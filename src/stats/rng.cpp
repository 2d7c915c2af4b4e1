#include "stats/rng.h"

#include <algorithm>

#include "base/require.h"

namespace msts::stats {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

void Rng::fill_normal(std::span<double> out) {
  std::size_t i = 0;
  if (has_cached_normal_ && !out.empty()) {
    has_cached_normal_ = false;
    out[i++] = cached_normal_;
  }
  // Whole pairs, a block at a time. Every candidate (u, v) is written to
  // pair slot k of the output and its s to s_block[k]; only an accepted one
  // advances k, so the block ends up holding exactly the pairs normal()
  // would accept, from the same draws. The scale kernel then maps the
  // block's pairs to deviates in place.
  const simd::Kernels& kern = simd::kernels();
  double s_block[kFillBlock / 2];
  while (out.size() - i >= 2) {
    const std::size_t pairs = std::min((out.size() - i) / 2, kFillBlock / 2);
    double* uv = out.data() + i;
    for (std::size_t k = 0; k < pairs;) {
      s_block[k] = polar_draw(uv[2 * k], uv[2 * k + 1]);
      k += polar_accepts(s_block[k]) ? 1 : 0;
    }
    kern.scale_pairs(s_block, uv, pairs, 1);
    i += 2 * pairs;
  }
  if (i < out.size()) out[i] = normal();
}

void Rng::normal_lanes(std::span<Rng* const> rngs, double* const* outs, std::size_t n,
                       std::size_t stride) {
  // Per lane exactly fill_normal's steps: the cached deviate, whole pairs a
  // block at a time (drawn side by side, then scaled lane by lane at the
  // stride), and an odd deviate from normal(). Deviate j of a lane lands at
  // out[j * stride].
  constexpr std::size_t L = simd::kLanes;
  constexpr std::size_t kPairs = kFillBlock / 2;
  const simd::Kernels& kern = simd::kernels();
  for (std::size_t first = 0; first < rngs.size(); first += L) {
    const std::size_t lanes = std::min(L, rngs.size() - first);
    Rng* r[L];
    double* out[L] = {};
    std::size_t next[L], left[L];
    for (std::size_t l = 0; l < lanes; ++l) {
      r[l] = rngs[first + l];
      if (outs != nullptr) out[l] = outs[first + l];
      next[l] = 0;
      if (n > 0 && r[l]->has_cached_normal_) {
        r[l]->has_cached_normal_ = false;
        if (out[l] != nullptr) out[l][0] = r[l]->cached_normal_;
        next[l] = 1;
      }
      left[l] = (n - next[l]) / 2;
    }
    double s_block[L][kPairs];
    for (;;) {
      std::uint64_t state[L][4];
      std::size_t pairs[L];
      double* uv[L];
      double* s[L];
      bool any = false;
      for (std::size_t l = 0; l < lanes; ++l) {
        // A skip stores nothing, so it needs no block bound.
        pairs[l] = outs != nullptr ? std::min(left[l], kPairs) : left[l];
        any = any || pairs[l] > 0;
        std::copy(r[l]->s_, r[l]->s_ + 4, state[l]);
        uv[l] = out[l] != nullptr ? out[l] + next[l] * stride : nullptr;
        s[l] = s_block[l];
      }
      if (!any) break;
      kern.draw_pairs(state, pairs, lanes, outs != nullptr ? uv : nullptr,
                      outs != nullptr ? s : nullptr, stride);
      for (std::size_t l = 0; l < lanes; ++l) {
        std::copy(state[l], state[l] + 4, r[l]->s_);
        if (out[l] != nullptr) kern.scale_pairs(s_block[l], uv[l], pairs[l], stride);
        next[l] += 2 * pairs[l];
        left[l] -= pairs[l];
      }
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      if (next[l] < n) {
        const double d = r[l]->normal();
        if (out[l] != nullptr) out[l][next[l] * stride] = d;
      }
    }
  }
}

void Rng::fill_normal_lanes(std::span<Rng* const> rngs, std::span<double* const> outs,
                            std::size_t n, std::size_t stride) {
  MSTS_REQUIRE(outs.size() == rngs.size(), "one output per generator");
  MSTS_REQUIRE(stride >= 1, "output stride must be >= 1");
  normal_lanes(rngs, outs.data(), n, stride);
}

void Rng::skip_normal_lanes(std::span<Rng* const> rngs, std::size_t n) {
  normal_lanes(rngs, nullptr, n, 1);
}

std::uint64_t Rng::uniform_int(std::uint64_t bound) {
  if (bound == 0) return 0;
  const std::uint64_t threshold = (0 - bound) % bound;  // rejection threshold
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

namespace {

// Jump polynomials from the reference xoshiro256plusplus.c (Blackman &
// Vigna). They depend only on the linear engine, so they are shared by the
// whole xoshiro256 family.
constexpr std::uint64_t kJump[4] = {0x180ec6d33cfd0abaull, 0xd5a61266f0c9392cull,
                                    0xa9582618e03fc9aaull, 0x39abdc4529b1661cull};
constexpr std::uint64_t kLongJump[4] = {0x76e15d3efefdcbbfull, 0xc5004e441c522fb3ull,
                                        0x77710069854ee241ull, 0x39109bb02acbe635ull};

}  // namespace

void Rng::apply_jump_poly(const std::uint64_t (&poly)[4]) {
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (const std::uint64_t word : poly) {
    for (int b = 0; b < 64; ++b) {
      if (word & (1ull << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      next_u64();
    }
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
  // A cached polar deviate belongs to the pre-jump position.
  has_cached_normal_ = false;
  cached_normal_ = 0.0;
}

void Rng::jump() { apply_jump_poly(kJump); }

void Rng::long_jump() { apply_jump_poly(kLongJump); }

Rng Rng::split() {
  Rng child = *this;
  child.has_cached_normal_ = false;
  child.cached_normal_ = 0.0;
  jump();  // parent leaps past the segment the child now owns
  return child;
}

}  // namespace msts::stats
