// Tests for the portable SIMD layer (base/simd.h): backend dispatch and
// override plumbing, per-backend kernel-table invariants, the forced-scalar
// vs native drift contracts, and thread-count independence of the
// Monte-Carlo reduction with vector kernels active. The binary carries the
// ctest label "simd" so the forced-scalar tier-1 leg can rerun exactly the
// SIMD-sensitive suites (see ROADMAP.md).
#include "base/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "analog/lpf.h"
#include "analog/signal.h"
#include "base/chains.h"
#include "base/polar_log.h"
#include "digital/fault_sim.h"
#include "digital/faults.h"
#include "digital/netlist.h"
#include "dsp/oscillator.h"
#include "dsp/tonegen.h"
#include "stats/rng.h"
#include "stats/uncertain.h"
#include "stats/yield.h"

namespace msts {
namespace {

using simd::Isa;

// ---------------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------------

TEST(SimdDispatch, IsaNamesRoundTripThroughParse) {
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512, Isa::kNeon}) {
    EXPECT_EQ(simd::parse_isa(simd::isa_name(isa)), isa);
  }
}

TEST(SimdDispatch, ParseRejectsUnknownNames) {
  EXPECT_THROW(simd::parse_isa("sse9"), std::invalid_argument);
  EXPECT_THROW(simd::parse_isa("AVX2"), std::invalid_argument);  // case-exact
  // Empty / auto / native all mean "widest compiled backend this CPU runs".
  EXPECT_EQ(simd::parse_isa(""), simd::parse_isa("auto"));
  EXPECT_EQ(simd::parse_isa(nullptr), simd::parse_isa("native"));
}

TEST(SimdDispatch, ScalarBackendAlwaysAvailable) {
  EXPECT_TRUE(simd::isa_compiled(Isa::kScalar));
  EXPECT_TRUE(simd::isa_supported(Isa::kScalar));
}

TEST(SimdDispatch, ActiveBackendIsCompiledAndSupported) {
  const Isa isa = simd::active_isa();
  EXPECT_TRUE(simd::isa_compiled(isa));
  EXPECT_TRUE(simd::isa_supported(isa));
  EXPECT_EQ(simd::kernels().isa, isa);
}

TEST(SimdDispatch, KernelTableWidthsAreConsistent) {
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512, Isa::kNeon}) {
    if (!simd::isa_compiled(isa)) continue;
    const simd::Kernels& k = simd::kernels_for(isa);
    EXPECT_EQ(k.isa, isa);
    EXPECT_TRUE(k.f64_width == 1 || k.f64_width == 2 || k.f64_width == 4 ||
                k.f64_width == 8)
        << simd::isa_name(isa);
    EXPECT_EQ(k.fault_words, k.f64_width);
    EXPECT_NE(k.apply_window, nullptr);
    EXPECT_NE(k.fft_pass, nullptr);
    EXPECT_NE(k.rfft_combine, nullptr);
    EXPECT_NE(k.add_cosine, nullptr);
    EXPECT_NE(k.lpf_record, nullptr);
    EXPECT_NE(k.fir_block, nullptr);
    EXPECT_NE(k.adc_convert, nullptr);
    EXPECT_NE(k.fault_eval, nullptr);
    EXPECT_NE(k.lo_lanes, nullptr);
    EXPECT_NE(k.amp_lanes, nullptr);
    EXPECT_NE(k.mixer_lanes, nullptr);
    EXPECT_NE(k.lpf_lanes, nullptr);
    EXPECT_NE(k.draw_pairs, nullptr);
    EXPECT_NE(k.scale_pairs, nullptr);
    EXPECT_NE(k.polar_factor, nullptr);
  }
}

TEST(SimdDispatch, ScopedIsaForcesAndRestores) {
  const Isa before = simd::active_isa();
  {
    simd::ScopedIsa scalar(Isa::kScalar);
    EXPECT_EQ(simd::active_isa(), Isa::kScalar);
    EXPECT_EQ(simd::kernels().f64_width, 1u);
  }
  EXPECT_EQ(simd::active_isa(), before);
}

// ---------------------------------------------------------------------------
// Forced-scalar vs native drift contracts
// ---------------------------------------------------------------------------

TEST(SimdDrift, AddCosineNativeVsScalarOverMillionSamples) {
  // Both backends reseed from the same double-double carrier every
  // dsp::kResyncPeriod samples, so the gap never accumulates past ~1 ulp of
  // the amplitude even over a million samples.
  constexpr std::size_t kN = 1u << 20;
  const double omega = 2.0 * 3.14159265358979 * 0.1234567;
  const double phase = 0.321;
  const double amp = 0.5;
  std::vector<double> native(kN, 0.0);
  dsp::add_cosine(native.data(), kN, omega, phase, amp);
  std::vector<double> scalar(kN, 0.0);
  {
    simd::ScopedIsa forced(Isa::kScalar);
    dsp::add_cosine(scalar.data(), kN, omega, phase, amp);
  }
  double max_abs = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    max_abs = std::max(max_abs, std::abs(native[i] - scalar[i]));
  }
  EXPECT_LE(max_abs, 1e-12);
}

TEST(SimdDrift, PhasorOscillatorIdenticalUnderForcedScalar) {
  // The streaming LO phasor is plain scalar code on every backend; forcing
  // the ISA must not change a single bit of its output.
  const double omega = 0.05;
  dsp::PhasorOscillator native_osc(omega, 0.1);
  std::vector<double> native;
  for (int i = 0; i < 4096; ++i) native.push_back(native_osc.cos_next());
  simd::ScopedIsa forced(Isa::kScalar);
  dsp::PhasorOscillator scalar_osc(omega, 0.1);
  for (int i = 0; i < 4096; ++i) {
    const double v = scalar_osc.cos_next();
    EXPECT_EQ(std::memcmp(&v, &native[static_cast<std::size_t>(i)], sizeof v), 0)
        << "sample " << i;
  }
}

// ---------------------------------------------------------------------------
// Thread-count independence with vector kernels active
// ---------------------------------------------------------------------------

TEST(SimdParallel, McEvaluationBitIdenticalAcrossThreadCounts) {
  // The Monte-Carlo reduction partitions trials deterministically; with the
  // SIMD backends active underneath (spectrum, transient, fault kernels all
  // dispatch) the outcome must still be a pure function of the seed, not of
  // the thread count.
  const stats::Normal param{0.0, 1.0};
  const auto spec = stats::SpecLimits::window(-1.8, 1.8);
  const auto threshold = spec.tightened(0.12);
  const auto error = stats::ErrorModel::gaussian(0.05);
  constexpr int kTrials = 60000;

  auto run = [&](int threads) {
    stats::Rng rng(0x51D5EEDull);
    return stats::evaluate_test_mc(param, spec, threshold, error, rng, kTrials,
                                   threads);
  };
  const stats::TestOutcome one = run(1);
  for (const int threads : {2, 8}) {
    const stats::TestOutcome many = run(threads);
    EXPECT_EQ(std::memcmp(&many.yield, &one.yield, sizeof(double)), 0) << threads;
    EXPECT_EQ(std::memcmp(&many.accept_rate, &one.accept_rate, sizeof(double)), 0)
        << threads;
    EXPECT_EQ(std::memcmp(&many.yield_loss, &one.yield_loss, sizeof(double)), 0)
        << threads;
    EXPECT_EQ(
        std::memcmp(&many.fault_coverage_loss, &one.fault_coverage_loss, sizeof(double)),
        0)
        << threads;
  }
}

TEST(SimdParallel, FaultCampaignBitIdenticalAcrossThreadCounts) {
  // Wide-word batches split across worker threads must land the exact same
  // verdicts as the serial sweep (the batch partition is fixed).
  digital::Netlist nl;
  digital::Bus in, out;
  stats::Rng rng(77);
  std::vector<digital::NetId> pool;
  for (int i = 0; i < 5; ++i) {
    const digital::NetId n = nl.add_input("i" + std::to_string(i));
    in.bits.push_back(n);
    pool.push_back(n);
  }
  const digital::GateType kinds[] = {digital::GateType::kAnd, digital::GateType::kOr,
                                     digital::GateType::kXor, digital::GateType::kNand};
  for (int g = 0; g < 120; ++g) {
    if (rng.uniform() < 0.1) {
      pool.push_back(nl.add_dff(pool[rng.uniform_int(pool.size())]));
      continue;
    }
    pool.push_back(nl.add_gate(kinds[rng.uniform_int(4)],
                               pool[rng.uniform_int(pool.size())],
                               pool[rng.uniform_int(pool.size())]));
  }
  for (int o = 0; o < 3; ++o) {
    const digital::NetId n = pool[pool.size() - 1 - static_cast<std::size_t>(o)];
    nl.mark_output(n);
    out.bits.push_back(n);
  }
  std::vector<std::int64_t> stim;
  for (int c = 0; c < 48; ++c) {
    stim.push_back(static_cast<std::int64_t>(rng.uniform_int(32)) - 16);
  }
  const auto faults = digital::collapsed_faults(nl);

  auto run = [&](int threads) {
    digital::FaultSimOptions fo;
    fo.threads = threads;
    return digital::simulate_faults(nl, in, out, stim, faults, fo);
  };
  const auto serial = run(1);
  for (const int threads : {2, 8}) {
    const auto parallel = run(threads);
    ASSERT_EQ(parallel.detected.size(), serial.detected.size()) << threads;
    for (std::size_t f = 0; f < serial.detected.size(); ++f) {
      EXPECT_EQ(parallel.detected[f], serial.detected[f])
          << "fault " << f << " threads " << threads;
    }
    EXPECT_EQ(parallel.good_waveform, serial.good_waveform) << threads;
  }
}

// ---------------------------------------------------------------------------
// Memoryless lane kernels vs the one-device expression
// ---------------------------------------------------------------------------

// Equal bit patterns, or both NaN (a NaN's payload may follow operand order).
bool same_value(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

// Inputs and deviates that reach both clamp rails, signed zeros, NaN and
// the infinities.
const std::vector<double>& special_values() {
  constexpr double inf = std::numeric_limits<double>::infinity();
  static const std::vector<double> v = {0.0,   -0.0, 1e-3,  -1e-3, 0.2,   -0.2, 0.9, -0.9,
                                        3.0,   -3.0, 1e200, -1e200, inf,  -inf,
                                        std::numeric_limits<double>::quiet_NaN()};
  return v;
}

TEST(SimdLanes, AmpAndMixerLanesMatchTheOneDeviceExpression) {
  constexpr std::size_t K = simd::kLanes;
  const std::vector<double>& sv = special_values();
  // Every (input, deviate) pair, then every LO value for each.
  const std::size_t n = sv.size() * sv.size() * sv.size();
  // Lane l's constants: a small rail on lane 0 so ordinary inputs clamp, a
  // zero rail on lane 3 (every output is a signed zero or NaN).
  const double a1[K] = {10.0, 3.16, 1.0, 2.0}, c2[K] = {0.05, 0.0, -0.1, 0.02};
  const double c3[K] = {-0.6, -0.02, -1.3, 0.0}, vsat[K] = {0.05, 1.2, 0.7, 0.0};
  const double sigma[K] = {1e-3, 0.0, 0.5, 2e-6}, dc[K] = {1e-3, -0.0, -2e-3, 0.0};
  const double leak[K] = {0.01, 1e-4, 0.0, 0.3};
  std::vector<double> x(n * K), noise(n * K), lo(n * K), shared(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = sv[i % sv.size()];
    shared[i] = xi;
    for (std::size_t l = 0; l < K; ++l) {
      // Rotate the tables per lane so lanes see different combinations.
      x[i * K + l] = sv[(i + l) % sv.size()];
      noise[i * K + l] = sv[(i / sv.size() + 2 * l) % sv.size()];
      lo[i * K + l] = sv[(i / (sv.size() * sv.size()) + l) % sv.size()];
    }
  }
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512, Isa::kNeon}) {
    if (!simd::isa_compiled(isa) || !simd::isa_supported(isa)) continue;
    const simd::Kernels& k = simd::kernels_for(isa);
    // 1-3-lane batches and a full one; lane 2 alone covers a hole below.
    for (const unsigned active : {0b0001u, 0b0011u, 0b0111u, 0b0100u, 0b1111u}) {
      simd::AmpLanes amp;
      simd::MixerLanes mix;
      for (std::size_t l = 0; l < K; ++l) {
        amp.a1[l] = mix.a1[l] = a1[l];
        amp.c2[l] = c2[l];
        amp.c3[l] = mix.c3[l] = c3[l];
        amp.vsat[l] = mix.vsat[l] = vsat[l];
        amp.noise_sigma[l] = mix.noise_sigma[l] = sigma[l];
        amp.dc_offset_v[l] = dc[l];
        mix.leak[l] = leak[l];
      }
      amp.active = mix.active = active;
      for (const bool from_shared : {false, true}) {
        const double* in = from_shared ? shared.data() : x.data();
        std::vector<double> amp_out(n * K, 42.0), mix_out(n * K, 42.0);
        k.amp_lanes(amp, in, from_shared, noise.data(), amp_out.data(), n);
        k.mixer_lanes(mix, in, from_shared, noise.data(), lo.data(), mix_out.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t l = 0; l < K; ++l) {
            const std::size_t at = i * K + l;
            if (((active >> l) & 1u) == 0) {
              ASSERT_EQ(amp_out[at], 42.0) << "inactive lane written";
              ASSERT_EQ(mix_out[at], 42.0) << "inactive lane written";
              continue;
            }
            const double xi = from_shared ? shared[i] : x[at];
            const double want_amp = base::amp_apply(xi, noise[at], sigma[l], a1[l], c2[l],
                                                    c3[l], vsat[l], dc[l]);
            const double want_mix = base::mixer_apply(xi, noise[at], lo[at], sigma[l], a1[l],
                                                      c3[l], vsat[l], leak[l]);
            ASSERT_TRUE(same_value(amp_out[at], want_amp))
                << simd::isa_name(isa) << " amp lane " << l << " x=" << xi
                << " dev=" << noise[at] << ": " << amp_out[at] << " vs " << want_amp;
            ASSERT_TRUE(same_value(mix_out[at], want_mix))
                << simd::isa_name(isa) << " mixer lane " << l << " x=" << xi
                << " dev=" << noise[at] << " lo=" << lo[at] << ": " << mix_out[at] << " vs "
                << want_mix;
          }
        }
      }
    }
  }
}

TEST(SimdLanes, InPlaceAmpLanesReadEachSampleBeforeWritingIt) {
  // The lane walk runs the amp in place on its interleaved record: the
  // same as running it into another buffer.
  constexpr std::size_t K = simd::kLanes;
  const std::size_t n = 37;
  std::vector<double> rec(n * K), noise(n * K);
  for (std::size_t i = 0; i < n * K; ++i) {
    rec[i] = 0.01 * static_cast<double>(i % 13) - 0.05;
    noise[i] = 0.1 * static_cast<double>(i % 7) - 0.3;
  }
  simd::AmpLanes amp;
  for (std::size_t l = 0; l < K; ++l) {
    amp.a1[l] = 5.0;
    amp.c2[l] = 0.1;
    amp.c3[l] = -0.4;
    amp.vsat[l] = 0.2;
    amp.noise_sigma[l] = 0.01;
    amp.dc_offset_v[l] = 1e-3;
  }
  amp.active = 0b1111u;
  std::vector<double> want(n * K);
  simd::kernels().amp_lanes(amp, rec.data(), false, noise.data(), want.data(), n);
  simd::kernels().amp_lanes(amp, rec.data(), false, noise.data(), rec.data(), n);
  for (std::size_t i = 0; i < n * K; ++i) EXPECT_TRUE(same_value(rec[i], want[i])) << i;
}

// ---------------------------------------------------------------------------
// One-device LPF bits
// ---------------------------------------------------------------------------

TEST(SimdLpf, OneDeviceFilterBitsArePinned) {
  // analog::LowPassFilter::process by bit pattern, on every backend this
  // machine runs: orders 2 to 16; records of 1-3 samples (the first two
  // outputs take the vector backends' two-term feed-forward), an odd length
  // and a full transient; and one record of signed zeros and large values,
  // filtered with and without the clock spur. The vector backends fuse the
  // feed-forward (base/chains.h), so each backend has its own literal.
  auto fold = [](std::uint64_t& h, double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  constexpr double kFs = 32.0e6;
  // Uniform samples on [-0.5, 0.5) from a 64-bit LCG: no libm involved.
  auto record = [&](std::size_t n, std::uint64_t seed) {
    analog::Signal s{kFs, std::vector<double>(n)};
    for (double& x : s.samples) {
      seed = seed * 6364136223846793005ull + 1442695040888963407ull;
      x = static_cast<double>(seed >> 11) * 0x1.0p-53 - 0.5;
    }
    return s;
  };
  const analog::Signal special{
      kFs, {0.0, -0.0, -0.0, 1e6, -0.0, 0.0, -1e6, 0.25, -0.0, 0.0, 1e6, -0.0, -0.0}};
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!simd::isa_compiled(isa) || !simd::isa_supported(isa)) continue;
    simd::ScopedIsa forced(isa);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const int order : {2, 4, 6, 16}) {
      analog::LpfParams p;
      p.order = order;
      stats::Rng rng(0x4C5046ull + static_cast<std::uint64_t>(order));
      const auto lpf = analog::LowPassFilter::sampled(p, rng);
      for (const std::size_t n : {1, 2, 3, 257, 32768}) {
        for (const double y : lpf.process(record(n, n + order)).samples) fold(h, y);
      }
      p.clock_spur_v = stats::Uncertain::exact(0.0);
      const auto quiet = analog::LowPassFilter::sampled(p, rng);
      for (const auto* f : {&lpf, &quiet}) {
        for (const double y : f->process(special).samples) fold(h, y);
      }
    }
    // AVX2 and AVX-512 fuse the same products, so their bits agree.
    std::uint64_t want = 0;
    switch (isa) {
      case Isa::kScalar: want = 0xc86f06439a376a4cull; break;
      case Isa::kAvx2: want = 0x963ce8dc8622c385ull; break;
      case Isa::kAvx512: want = 0x963ce8dc8622c385ull; break;
      case Isa::kNeon: break;  // No literal recorded on NEON.
    }
    EXPECT_EQ(h, want) << simd::isa_name(isa);
  }
}

// ---------------------------------------------------------------------------
// Normal deviate bits
// ---------------------------------------------------------------------------

// FNV-1a over a double's bytes, low byte first.
void fold_bits(std::uint64_t& h, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ull;
  }
}

// A generator's end state: its cached deviate (or the next pair's first
// deviate when none is cached), then its next raw draw.
void fold_state(std::uint64_t& h, stats::Rng& r) {
  fold_bits(h, r.normal());
  fold_bits(h, std::bit_cast<double>(r.next_u64()));
}

TEST(SimdRng, DeviateBitsArePinned) {
  // Every normal deviate and stream end state, by bit pattern, on every
  // backend this machine runs: per-call normal(), fill_normal around its
  // block edges and at a transient's length, and the lane draws at both
  // strides with streams entering with and without a cached deviate. The
  // deviates are exact functions of the draws (the polar method's scale is
  // evaluated the same way on every backend), so one literal holds for all.
  constexpr std::size_t K = simd::kLanes;
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!simd::isa_compiled(isa) || !simd::isa_supported(isa)) continue;
    simd::ScopedIsa forced(isa);
    std::uint64_t h = 0xcbf29ce484222325ull;
    stats::Rng one(0x4E4F524Dull);
    for (int i = 0; i < 4097; ++i) fold_bits(h, one.normal());
    fold_state(h, one);
    for (const std::size_t n : {1, 2, 511, 512, 513, 32768}) {
      stats::Rng r(0x46494C4Cull + n);
      std::vector<double> out(n);
      r.fill_normal(out);
      for (const double d : out) fold_bits(h, d);
      fold_state(h, r);
    }
    for (std::size_t lanes = 1; lanes <= K; ++lanes) {
      for (const std::size_t stride : {std::size_t{1}, K}) {
        for (const bool cached : {false, true}) {
          constexpr std::size_t kN = 1027;
          std::vector<stats::Rng> rngs;
          for (std::size_t l = 0; l < lanes; ++l) {
            rngs.emplace_back(0x4C414E45ull + 16 * lanes + l);
            // One normal() leaves a cached deviate; two leave none.
            rngs.back().normal();
            if (!cached) rngs.back().normal();
          }
          std::vector<double> x(kN * stride * lanes);
          std::vector<stats::Rng*> ptrs;
          std::vector<double*> outs;
          for (std::size_t l = 0; l < lanes; ++l) {
            ptrs.push_back(&rngs[l]);
            outs.push_back(stride == 1 ? x.data() + l * kN : x.data() + l);
          }
          stats::Rng::fill_normal_lanes(ptrs, outs, kN, stride);
          for (const double d : x) fold_bits(h, d);
          for (stats::Rng& r : rngs) fold_state(h, r);
        }
      }
    }
    EXPECT_EQ(h, 0xfae80ea639db02e0ull) << simd::isa_name(isa);
  }
}

// The log pin's inputs: 2^20 polar-method s, 2^16 points spread over the
// log's near-1 window [0.9375, 1 + 0x1.09p-4) (above 1 too), and the ends:
// 2^-104, 0.9375 and its neighbours, the window's upper edge and its
// neighbours, and 1 - 2^-53.
std::vector<double> log_pin_inputs() {
  std::vector<double> in;
  std::uint64_t s0 = 0x6C6F675F70696E31ull, s1 = 0x9E3779B97F4A7C15ull;
  std::uint64_t s2 = 0xBF58476D1CE4E5B9ull, s3 = 0x94D049BB133111EBull;
  while (in.size() < (1u << 20)) {
    const double unit_u = base::unit_from_bits<double>(base::xoshiro_next(s0, s1, s2, s3));
    const double unit_v = base::unit_from_bits<double>(base::xoshiro_next(s0, s1, s2, s3));
    double u, v;
    const double s = base::polar_candidate(unit_u, unit_v, u, v);
    if (s < 1.0 && s != 0.0) in.push_back(s);
  }
  const std::uint64_t lo = base::kLogNearOneLo, hi = base::kLogNearOneHi;
  const std::uint64_t step = (hi - lo) >> 16;
  for (std::uint64_t j = 0; j < (1u << 16); ++j) {
    in.push_back(std::bit_cast<double>(lo + j * step + base::xoshiro_next(s0, s1, s2, s3) % step));
  }
  for (const std::uint64_t b : {std::uint64_t{0x3970000000000000}, lo - 1, lo, lo + 1, hi - 1, hi,
                                hi + 1, std::uint64_t{0x3FEFFFFFFFFFFFFF}}) {
    in.push_back(std::bit_cast<double>(b));
  }
  return in;
}

TEST(SimdRng, PolarLogReproducesGlibcLogBits) {
  // One FNV-1a over log's bits on the inputs above. The literal is
  // std::log's on an x86-64 host with FMA, whose libm (glibc 2.36) the
  // replica follows op for op (EXPERIMENTS.md says how it was read).
  const std::vector<double> in = log_pin_inputs();
  constexpr std::uint64_t kLogBits = 0xa120f89d62fa4839ull;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double x : in) fold_bits(h, base::polar_log(x));
  EXPECT_EQ(h, kLogBits) << "scalar form";
  // The vector form (both paths in every lane, then a blend), on two-lane
  // vectors of this unit's baseline ISA.
  typedef double v2 __attribute__((vector_size(16)));
  h = 0xcbf29ce484222325ull;
  for (std::size_t j = 0; j + 1 < in.size(); j += 2) {
    const v2 y = base::polar_log(v2{in[j], in[j + 1]});
    fold_bits(h, y[0]);
    fold_bits(h, y[1]);
  }
  EXPECT_EQ(h, kLogBits) << "two-lane form";
  // Every backend's scale kernels on the inputs below 1: scale_pairs with
  // u = 1 and v = -0.5, in blocks of 0 to 19 pairs at strides 1 and kLanes,
  // and polar_factor. The literal is the FNV of m and -m / 2,
  // m = sqrt(-2 std::log(s) / s).
  std::vector<double> s;
  for (const double x : in) {
    if (x < 1.0) s.push_back(x);
  }
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!simd::isa_compiled(isa) || !simd::isa_supported(isa)) continue;
    const simd::Kernels& kern = simd::kernels_for(isa);
    for (const std::size_t stride : {std::size_t{1}, simd::kLanes}) {
      h = 0xcbf29ce484222325ull;
      std::vector<double> uv;
      std::size_t block = 0;
      for (std::size_t k = 0; k < s.size(); k += block, block = (block + 1) % 20) {
        const std::size_t pairs = std::min(block, s.size() - k);
        uv.assign(2 * pairs * stride, 0.0);
        for (std::size_t p = 0; p < pairs; ++p) {
          uv[2 * p * stride] = 1.0;
          uv[(2 * p + 1) * stride] = -0.5;
        }
        kern.scale_pairs(s.data() + k, uv.data(), pairs, stride);
        for (std::size_t j = 0; j < 2 * pairs; ++j) fold_bits(h, uv[j * stride]);
      }
      EXPECT_EQ(h, 0xaaa6a88bbaa84d06ull) << simd::isa_name(isa) << " stride " << stride;
    }
    // The one-pair entry normal() calls, by value: the same literal.
    h = 0xcbf29ce484222325ull;
    for (const double x : s) {
      const double m = kern.polar_factor(x);
      fold_bits(h, 1.0 * m);
      fold_bits(h, -0.5 * m);
    }
    EXPECT_EQ(h, 0xaaa6a88bbaa84d06ull) << simd::isa_name(isa) << " polar_factor";
  }
}

}  // namespace
}  // namespace msts
