// Tests for the deterministic PRNG (stats/rng.h).
#include "stats/rng.h"

#include <bit>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "base/chains.h"
#include "base/simd.h"

namespace msts::stats {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64()) << "diverged at " << i;
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, NormalTailsPlausible) {
  Rng rng(13);
  const int n = 100000;
  int beyond2 = 0;
  for (int i = 0; i < n; ++i) {
    if (std::abs(rng.normal()) > 2.0) ++beyond2;
  }
  // P(|Z|>2) = 4.55 %.
  EXPECT_NEAR(static_cast<double>(beyond2) / n, 0.0455, 0.005);
}

TEST(Rng, UniformIntWithinBound) {
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // every bucket hit
  EXPECT_EQ(rng.uniform_int(0), 0u);
  EXPECT_EQ(rng.uniform_int(1), 0u);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, SplitChildOwnsThePreJumpSegment) {
  // split() hands the child the current position and jumps the parent past
  // it: the child must reproduce exactly what the un-split generator would
  // have produced.
  Rng a(33);
  Rng reference = a;
  Rng child = a.split();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(child.next_u64(), reference.next_u64()) << "diverged at " << i;
  }
}

TEST(Rng, JumpIsDeterministicAndMovesTheState) {
  Rng a(5), b(5), stay(5);
  a.jump();
  b.jump();
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
  Rng c(5);
  c.jump();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (c.next_u64() == stay.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, JumpAndLongJumpReachDistinctStreams) {
  Rng j(5), lj(5);
  j.jump();
  lj.long_jump();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (j.next_u64() == lj.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, RepeatedSplitsArePairwiseDistinct) {
  // The old split() reseeded from one 64-bit draw, so distinct splits could
  // collide; jump-based splits occupy disjoint 2^128 segments by design.
  Rng root(77);
  std::vector<Rng> children;
  for (int i = 0; i < 8; ++i) children.push_back(root.split());
  std::vector<std::vector<std::uint64_t>> draws;
  for (auto& c : children) {
    std::vector<std::uint64_t> seq;
    for (int i = 0; i < 64; ++i) seq.push_back(c.next_u64());
    draws.push_back(seq);
  }
  for (std::size_t i = 0; i < draws.size(); ++i) {
    for (std::size_t j = i + 1; j < draws.size(); ++j) {
      int same = 0;
      for (int k = 0; k < 64; ++k) {
        if (draws[i][k] == draws[j][k]) ++same;
      }
      EXPECT_EQ(same, 0) << "children " << i << " and " << j << " correlate";
    }
  }
}

TEST(Rng, JumpDropsTheCachedNormal) {
  // A deviate cached before the jump belongs to the old stream position and
  // must not leak into the new one. Copy a generator that holds a cached
  // deviate, drain only the copy's cache (cache hits do not touch the linear
  // state), and check the post-jump normals of both agree: jump() must leave
  // them at identical positions regardless of cache contents. The copy trick
  // keeps the test independent of how many uniforms one normal() consumes
  // (the polar method's rejection count varies with the stream).
  Rng cached(91);
  (void)cached.normal();  // caches the partner deviate of the pair
  Rng plain = cached;
  (void)plain.normal();  // served from the copied cache; state untouched
  cached.jump();
  plain.jump();
  EXPECT_EQ(cached.normal(), plain.normal());
  Rng cached2(91);
  (void)cached2.normal();
  Rng plain2 = cached2;
  (void)plain2.normal();
  Rng cached_child = cached2.split();
  Rng plain_child = plain2.split();
  EXPECT_EQ(cached_child.normal(), plain_child.normal());
}

TEST(Rng, SkipNormalLandsWhereRepeatedNormalDoes) {
  // From both entry states (no cached deviate, one cached) and at even and
  // odd counts, a one-generator skip_normal_lanes(n) leaves the generator,
  // cached deviate included, exactly where n normal() calls do.
  for (const std::size_t n : {0, 1, 2, 3, 1000, 1001, 32768}) {
    for (const bool cached : {false, true}) {
      Rng a(n + 17), b(n + 17);
      if (cached) {
        (void)a.normal();
        (void)b.normal();
      }
      for (std::size_t i = 0; i < n; ++i) (void)a.normal();
      Rng* one[] = {&b};
      Rng::skip_normal_lanes(one, n);
      EXPECT_TRUE(a == b) << "n=" << n << " cached=" << cached;
      EXPECT_EQ(a.normal(), b.normal());
      EXPECT_EQ(a.next_u64(), b.next_u64());
    }
  }
}

TEST(Rng, FillNormalLanesMatchesFillNormal) {
  // Five generators (a full batch and one more), mixed entry states, at
  // lengths around the fill block: outputs and end states match each
  // generator's own fill_normal bit for bit.
  for (const std::size_t n : {0, 1, 2, 511, 512, 513, 1025, 4096}) {
    std::vector<Rng> lanes, alone;
    for (std::size_t l = 0; l < 5; ++l) {
      Rng r(1000 * n + l);
      if (l % 2 == 0) (void)r.normal();
      lanes.push_back(r);
      alone.push_back(r);
    }
    std::vector<std::vector<double>> out(5, std::vector<double>(n, -1.0));
    std::vector<Rng*> ptrs;
    std::vector<double*> outs;
    for (std::size_t l = 0; l < 5; ++l) {
      ptrs.push_back(&lanes[l]);
      outs.push_back(out[l].data());
    }
    Rng::fill_normal_lanes(ptrs, outs, n);
    for (std::size_t l = 0; l < 5; ++l) {
      std::vector<double> want(n);
      alone[l].fill_normal(want);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(out[l][i]), std::bit_cast<std::uint64_t>(want[i]))
            << "n=" << n << " lane " << l << " deviate " << i;
      }
      EXPECT_TRUE(lanes[l] == alone[l]) << "n=" << n << " lane " << l;
      EXPECT_EQ(lanes[l].normal(), alone[l].normal());
    }
  }
}

TEST(Rng, SkipNormalLanesMatchesRepeatedNormal) {
  // Five generators (a full batch and one more), mixed entry states.
  for (const std::size_t n : {1, 2, 777, 4096}) {
    std::vector<Rng> lanes, alone;
    for (std::size_t l = 0; l < 5; ++l) {
      Rng r(100 * n + l);
      if (l % 2 == 1) (void)r.normal();
      lanes.push_back(r);
      alone.push_back(r);
    }
    std::vector<Rng*> ptrs;
    for (Rng& r : lanes) ptrs.push_back(&r);
    Rng::skip_normal_lanes(ptrs, n);
    for (std::size_t l = 0; l < 5; ++l) {
      for (std::size_t i = 0; i < n; ++i) (void)alone[l].normal();
      EXPECT_TRUE(lanes[l] == alone[l]) << "n=" << n << " lane " << l;
      EXPECT_EQ(lanes[l].normal(), alone[l].normal());
    }
  }
}

TEST(Rng, StridedFillNormalLanesMatchesStrideOne) {
  // A full batch and a partial one, mixed entry states: deviate j of
  // output l lands at rec[j * stride + l], and no other slot is written.
  for (const std::size_t stride : {simd::kLanes, std::size_t{7}}) {
    for (const std::size_t n : {0, 1, 2, 511, 512, 513, 1500}) {
      for (const std::size_t lanes : {std::size_t{2}, simd::kLanes}) {
        std::vector<Rng> strided, plain;
        for (std::size_t l = 0; l < lanes; ++l) {
          Rng r(31 * n + l + stride);
          if (l % 3 == 0) (void)r.normal();
          strided.push_back(r);
          plain.push_back(r);
        }
        std::vector<double> rec(n * stride, -7.0);
        std::vector<std::vector<double>> want(lanes, std::vector<double>(n));
        std::vector<Rng*> sp, pp;
        std::vector<double*> so, po;
        for (std::size_t l = 0; l < lanes; ++l) {
          sp.push_back(&strided[l]);
          pp.push_back(&plain[l]);
          so.push_back(rec.data() + l);
          po.push_back(want[l].data());
        }
        Rng::fill_normal_lanes(sp, so, n, stride);
        Rng::fill_normal_lanes(pp, po, n);
        for (std::size_t j = 0; j < n; ++j) {
          for (std::size_t l = 0; l < stride; ++l) {
            const double got = rec[j * stride + l];
            if (l >= lanes) {
              ASSERT_EQ(got, -7.0) << "slot written: deviate " << j << " slot " << l;
              continue;
            }
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want[l][j]))
                << "stride " << stride << " n=" << n << " lane " << l << " deviate " << j;
          }
        }
        for (std::size_t l = 0; l < lanes; ++l) {
          EXPECT_TRUE(strided[l] == plain[l]) << "n=" << n << " lane " << l;
        }
      }
    }
  }
}

// One lane's polar loop, the one Rng::normal runs, from a raw state: the
// first `pairs` accepted candidates (u, v) and their s, and the end state.
struct LaneDraw {
  std::uint64_t state[4];
  std::vector<double> uv, s;
};

LaneDraw polar_loop(const std::uint64_t (&start)[4], std::size_t pairs) {
  LaneDraw d;
  std::copy(start, start + 4, d.state);
  std::uint64_t* st = d.state;
  while (d.s.size() < pairs) {
    const double unit_u = base::unit_from_bits<double>(base::xoshiro_next(st[0], st[1], st[2], st[3]));
    const double unit_v = base::unit_from_bits<double>(base::xoshiro_next(st[0], st[1], st[2], st[3]));
    double u, v;
    const double q = base::polar_candidate(unit_u, unit_v, u, v);
    if (q < 1.0 && q != 0.0) {
      d.uv.push_back(u);
      d.uv.push_back(v);
      d.s.push_back(q);
    }
  }
  return d;
}

TEST(Rng, DrawPairsUnevenRequestsMatchEachLanesOwnLoop) {
  // Requests far apart (0, 1, 511, 512) leave a long masked tail after the
  // mask-free rounds; each lane must still step exactly its own rounds. On
  // every backend, with outputs at stride 1 and kLanes and without.
  constexpr std::size_t K = simd::kLanes;
  const std::size_t requests[][K] = {{0, 1, 511, 512}, {512, 511, 1, 0}, {3, 300, 3, 301}};
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512, simd::Isa::kNeon}) {
    if (!simd::isa_compiled(isa) || !simd::isa_supported(isa)) continue;
    const simd::Kernels& kern = simd::kernels_for(isa);
    for (const auto& pairs : requests) {
      for (const std::size_t lanes : {std::size_t{3}, K}) {
        std::uint64_t start[K][4];
        Rng seeder(lanes * 7919 + pairs[0]);
        for (auto& st : start) {
          for (std::uint64_t& w : st) w = seeder.next_u64();
        }
        std::vector<LaneDraw> want;
        for (std::size_t l = 0; l < lanes; ++l) want.push_back(polar_loop(start[l], pairs[l]));
        for (const std::size_t stride : {std::size_t{0}, std::size_t{1}, K}) {
          // stride 0 stands for no outputs: the skip.
          std::uint64_t state[K][4];
          std::copy(&start[0][0], &start[0][0] + 4 * K, &state[0][0]);
          std::vector<std::vector<double>> uv(K), s(K);
          double* uvp[K];
          double* sp[K];
          for (std::size_t l = 0; l < K; ++l) {
            uv[l].assign(2 * 512 * K, 0.0);
            s[l].assign(512, 0.0);
            uvp[l] = uv[l].data();
            sp[l] = s[l].data();
          }
          kern.draw_pairs(state, pairs, lanes, stride == 0 ? nullptr : uvp,
                          stride == 0 ? nullptr : sp, stride == 0 ? 1 : stride);
          for (std::size_t l = 0; l < lanes; ++l) {
            const std::string where = std::string(simd::isa_name(isa)) + " lane " +
                                      std::to_string(l) + " stride " + std::to_string(stride);
            for (int w = 0; w < 4; ++w) EXPECT_EQ(state[l][w], want[l].state[w]) << where;
            if (stride == 0) continue;
            for (std::size_t k = 0; k < pairs[l]; ++k) {
              ASSERT_EQ(uv[l][2 * k * stride], want[l].uv[2 * k]) << where << " pair " << k;
              ASSERT_EQ(uv[l][(2 * k + 1) * stride], want[l].uv[2 * k + 1]) << where;
              ASSERT_EQ(s[l][k], want[l].s[k]) << where << " pair " << k;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace msts::stats
