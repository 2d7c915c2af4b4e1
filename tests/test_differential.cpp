// Tests for the golden-model differential harness (src/check): ulp metric,
// comparator semantics, reproducer format, determinism, registry publishing,
// and the shipped kernel-pair checks (seven golden-model pairs plus the five
// SIMD-vs-scalar pairs). The binary carries the ctest label "differential"
// so the sanitizer leg can run exactly this suite.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/differential.h"
#include "check/generators.h"
#include "check/kernel_checks.h"
#include "check/yield_quadrature.h"
#include "obs/config.h"
#include "obs/registry.h"
#include "path/receiver_path.h"
#include "stats/rng.h"

namespace msts {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// ulp_distance
// ---------------------------------------------------------------------------

TEST(UlpDistance, EqualValuesAreZero) {
  EXPECT_EQ(check::ulp_distance(1.0, 1.0), 0.0);
  EXPECT_EQ(check::ulp_distance(0.0, -0.0), 0.0);
  EXPECT_EQ(check::ulp_distance(kInf, kInf), 0.0);
  EXPECT_EQ(check::ulp_distance(-kInf, -kInf), 0.0);
  EXPECT_EQ(check::ulp_distance(kNan, kNan), 0.0);
}

TEST(UlpDistance, AdjacentDoublesAreOneUlp) {
  const double a = 1.0;
  const double b = std::nextafter(a, 2.0);
  EXPECT_EQ(check::ulp_distance(a, b), 1.0);
  EXPECT_EQ(check::ulp_distance(b, a), 1.0);
  // Across zero: -denorm_min .. +denorm_min is two steps.
  const double d = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(check::ulp_distance(-d, d), 2.0);
  EXPECT_EQ(check::ulp_distance(0.0, d), 1.0);
}

TEST(UlpDistance, MismatchedSpecialsAreInfinite) {
  EXPECT_EQ(check::ulp_distance(kNan, 1.0), kInf);
  EXPECT_EQ(check::ulp_distance(1.0, kNan), kInf);
  EXPECT_EQ(check::ulp_distance(kInf, 1.0), kInf);
  EXPECT_EQ(check::ulp_distance(kInf, -kInf), kInf);
}

TEST(UlpDistance, ScalesWithExponent) {
  // One ulp at 2^52 is exactly 1.0; distance 3 means three representables.
  const double a = 4503599627370496.0;  // 2^52
  EXPECT_EQ(check::ulp_distance(a, a + 3.0), 3.0);
}

// ---------------------------------------------------------------------------
// Harness semantics via synthetic kernel pairs
// ---------------------------------------------------------------------------

struct TrivialCase {
  int n = 0;
};

check::Report run_synthetic(
    const std::function<std::vector<double>(const TrivialCase&, stats::Rng&)>& fast,
    const std::function<std::vector<double>(const TrivialCase&, stats::Rng&)>& ref,
    const check::Tolerance& tol, const check::RunOptions& opts = {}) {
  return check::differential<TrivialCase>(
      "synthetic",
      [](stats::Rng& rng) { return TrivialCase{8 + static_cast<int>(rng.uniform_int(8))}; },
      fast, ref,
      [](const TrivialCase& c, obs::json::Writer& w) { w.kv("n", c.n); },
      tol, opts);
}

TEST(DifferentialHarness, IdenticalRngStateOnBothSides) {
  // Both sides draw from their RNG; if the harness hands them different
  // streams this cannot pass bit-identically.
  const auto draw = [](const TrivialCase& c, stats::Rng& rng) {
    std::vector<double> v(static_cast<std::size_t>(c.n));
    for (double& x : v) x = rng.normal();
    return v;
  };
  const check::Report r = run_synthetic(draw, draw, check::Tolerance::bit_identical());
  EXPECT_TRUE(r.passed()) << r.reproducer;
  EXPECT_EQ(r.cases, 24);
  EXPECT_GT(r.compared, 0u);
}

TEST(DifferentialHarness, FailureProducesParseableReproducer) {
  check::RunOptions opts;
  opts.cases = 5;
  const check::Report r = run_synthetic(
      [](const TrivialCase& c, stats::Rng&) {
        std::vector<double> v(static_cast<std::size_t>(c.n), 1.0);
        v[2] = 1.5;  // deliberate divergence at index 2
        return v;
      },
      [](const TrivialCase& c, stats::Rng&) {
        return std::vector<double>(static_cast<std::size_t>(c.n), 1.0);
      },
      check::Tolerance::abs_only(1e-9), opts);

  EXPECT_FALSE(r.passed());
  EXPECT_EQ(r.failures, r.cases);
  EXPECT_EQ(r.worst.worst_index, 2u);
  EXPECT_EQ(r.worst.fast_value, 1.5);
  EXPECT_EQ(r.worst.reference_value, 1.0);
  EXPECT_EQ(r.worst.max_abs, 0.5);

  // The reproducer is one valid JSON object naming the exact case to replay.
  std::string err;
  const auto doc = obs::json::parse(r.reproducer, &err);
  ASSERT_TRUE(doc.has_value()) << err << "\n" << r.reproducer;
  ASSERT_TRUE(doc->is_object());
  ASSERT_NE(doc->find("check"), nullptr);
  EXPECT_EQ(doc->find("check")->string, "synthetic");
  ASSERT_NE(doc->find("seed"), nullptr);
  ASSERT_NE(doc->find("case"), nullptr);
  EXPECT_EQ(doc->find("case")->number, 0.0);  // first failing case
  ASSERT_NE(doc->find("config"), nullptr);
  ASSERT_TRUE(doc->find("config")->is_object());
  ASSERT_NE(doc->find("config")->find("n"), nullptr);
  EXPECT_TRUE(doc->find("config")->find("n")->is_number());
}

TEST(DifferentialHarness, SizeMismatchFailsWithSizesInReproducer) {
  check::RunOptions opts;
  opts.cases = 2;
  const check::Report r = run_synthetic(
      [](const TrivialCase& c, stats::Rng&) {
        return std::vector<double>(static_cast<std::size_t>(c.n) + 1, 0.0);
      },
      [](const TrivialCase& c, stats::Rng&) {
        return std::vector<double>(static_cast<std::size_t>(c.n), 0.0);
      },
      check::Tolerance::abs_only(1.0), opts);
  EXPECT_FALSE(r.passed());
  const auto doc = obs::json::parse(r.reproducer);
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->find("fast_size"), nullptr);
  ASSERT_NE(doc->find("reference_size"), nullptr);
  EXPECT_EQ(doc->find("fast_size")->number,
            doc->find("reference_size")->number + 1.0);
}

TEST(DifferentialHarness, AbsOrUlpPassesWhenEitherBoundHolds) {
  // 1e9 vs next representable: abs diff far above 1e-12 but only 1 ulp.
  const double big = 1.0e9;
  const double big_next = std::nextafter(big, 2.0e9);
  check::RunOptions opts;
  opts.cases = 1;
  const check::Report r = run_synthetic(
      [&](const TrivialCase&, stats::Rng&) { return std::vector<double>{big, 1e-13}; },
      [&](const TrivialCase&, stats::Rng&) { return std::vector<double>{big_next, 0.0}; },
      check::Tolerance::abs_or_ulp(1e-12, 4.0), opts);
  EXPECT_TRUE(r.passed()) << r.reproducer;
}

TEST(DifferentialHarness, SameSeedReproducesIdenticalReport) {
  check::RunOptions opts;
  opts.cases = 4;
  const check::Report a = check::check_oscillator_vs_libm_trig(opts);
  const check::Report b = check::check_oscillator_vs_libm_trig(opts);
  EXPECT_EQ(a.cases, b.cases);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.compared, b.compared);
  EXPECT_EQ(a.worst_case, b.worst_case);
  EXPECT_EQ(a.worst.worst_index, b.worst.worst_index);
  // Bit-compare the divergence magnitudes: the run is a pure function of
  // (seed, cases), so even the worst-case float must replay exactly.
  EXPECT_EQ(std::memcmp(&a.worst.max_abs, &b.worst.max_abs, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.worst.fast_value, &b.worst.fast_value, sizeof(double)), 0);
}

TEST(DifferentialHarness, DifferentSeedDrawsDifferentCases) {
  check::RunOptions a_opts;
  a_opts.cases = 3;
  check::RunOptions b_opts = a_opts;
  b_opts.seed ^= 0x1234;
  const check::Report a = check::check_oscillator_vs_libm_trig(a_opts);
  const check::Report b = check::check_oscillator_vs_libm_trig(b_opts);
  // Same-structure runs over different cases should (overwhelmingly) observe
  // different worst divergences.
  EXPECT_NE(a.worst.fast_value, b.worst.fast_value);
}

TEST(DifferentialHarness, PublishesRegistryMetrics) {
  const obs::Config prior = obs::current_config();
  obs::Config cfg;
  cfg.metrics = true;
  obs::configure(cfg);
  obs::Registry::instance().reset();

  check::RunOptions opts;
  opts.cases = 3;
  const check::Report r = check::check_oscillator_vs_libm_trig(opts);

  bool saw_cases = false, saw_failures = false, saw_hist = false;
  for (const obs::Metric& m : obs::Registry::instance().snapshot()) {
    if (m.name == "check.oscillator_vs_libm_trig.cases") {
      saw_cases = true;
      EXPECT_EQ(m.count, static_cast<std::uint64_t>(r.cases));
    }
    if (m.name == "check.oscillator_vs_libm_trig.failures") saw_failures = true;
    if (m.name == "check.oscillator_vs_libm_trig.max_abs") {
      saw_hist = true;
      EXPECT_EQ(m.kind, obs::Metric::Kind::kHistogram);
    }
  }
  obs::Registry::instance().reset();
  obs::configure(prior);

  EXPECT_TRUE(saw_cases);
  EXPECT_TRUE(saw_failures);
  EXPECT_TRUE(saw_hist);
}

// ---------------------------------------------------------------------------
// Generators stay inside every block precondition
// ---------------------------------------------------------------------------

TEST(Generators, RandomPathConfigAlwaysConstructible) {
  stats::Rng rng(0xC0FFEE);
  for (int i = 0; i < 50; ++i) {
    const path::PathConfig cfg = check::random_path_config(rng);
    EXPECT_NO_THROW({ path::ReceiverPath p(cfg); }) << "draw " << i;
    EXPECT_GE(cfg.digital_fs(), 2.0e6);  // decimation <= 16 at 32 MHz
  }
}

TEST(Generators, RandomSpecTripleIsWellFormed) {
  stats::Rng rng(0xBEEF);
  for (int i = 0; i < 200; ++i) {
    const check::SpecTriple t = check::random_spec_triple(rng);
    EXPECT_NE(t.guard_delta, 0.0);  // always_guard_banded default
    if (t.spec.side == stats::SpecSide::kTwoSided) {
      EXPECT_LT(t.spec.lo, t.spec.hi);
      EXPECT_LE(t.threshold.lo, t.threshold.hi);
    }
    // Yield stays in the band the generator promises, so MC conditionals are
    // well determined.
    const double z_yield = [&] {
      const auto& p = t.param;
      switch (t.spec.side) {
        case stats::SpecSide::kLowerBound: return 1.0 - p.cdf(t.spec.lo);
        case stats::SpecSide::kUpperBound: return p.cdf(t.spec.hi);
        case stats::SpecSide::kTwoSided:
          return p.cdf(t.spec.hi) - p.cdf(t.spec.lo);
      }
      return 0.0;
    }();
    EXPECT_GT(z_yield, 0.05) << "draw " << i;
    EXPECT_LT(z_yield, 0.99) << "draw " << i;
  }
}

// ---------------------------------------------------------------------------
// The eight shipped kernel pairs
// ---------------------------------------------------------------------------

TEST(KernelChecks, FftPlanMatchesNaiveDft) {
  const check::Report r = check::check_fft_plan_vs_naive_dft();
  EXPECT_TRUE(r.passed()) << r.reproducer;
  EXPECT_EQ(r.cases, 24);
  EXPECT_GT(r.compared, 0u);
}

TEST(KernelChecks, GoertzelMatchesDirectCorrelation) {
  const check::Report r = check::check_goertzel_vs_direct_correlation();
  EXPECT_TRUE(r.passed()) << r.reproducer;
}

TEST(KernelChecks, OscillatorMatchesLibmTrig) {
  const check::Report r = check::check_oscillator_vs_libm_trig();
  EXPECT_TRUE(r.passed()) << r.reproducer;
}

TEST(KernelChecks, WorkspaceRunBitIdenticalToAllocatingRun) {
  const check::Report r = check::check_path_workspace_vs_allocating_run();
  EXPECT_TRUE(r.passed()) << r.reproducer;
  // Bit-identical contract: the worst divergence must be exactly zero.
  EXPECT_EQ(r.worst.max_abs, 0.0);
  EXPECT_EQ(r.worst.max_ulp, 0.0);
}

TEST(KernelChecks, ParallelMcBitIdenticalToSerial) {
  const check::Report r = check::check_parallel_mc_vs_serial();
  EXPECT_TRUE(r.passed()) << r.reproducer;
  EXPECT_EQ(r.worst.max_abs, 0.0);
}

TEST(KernelChecks, GuardBandedAnalyticMatchesMonteCarlo) {
  // The independent oracle for the loss integrals: an analytic evaluation
  // that misplaces the acceptance step at a sharp-error guard-banded
  // threshold diverges from Monte Carlo by far more than sampling error.
  check::RunOptions opts;
  opts.cases = 16;
  const check::Report r = check::check_guard_band_analytic_vs_mc(opts);
  EXPECT_TRUE(r.passed()) << r.reproducer;
}

TEST(KernelChecks, ClosedFormMatchesQuadrature) {
  const check::Report r = check::check_closed_form_vs_quadrature();
  EXPECT_TRUE(r.passed()) << r.reproducer;
  EXPECT_EQ(r.cases, 24);
  EXPECT_EQ(r.compared, 24u * 4u);
}

TEST(KernelChecks, FillNormalMatchesRepeatedNormal) {
  const check::Report r = check::check_fill_normal_vs_normal();
  EXPECT_TRUE(r.passed()) << r.reproducer;
  EXPECT_EQ(r.cases, 24);
  EXPECT_EQ(r.worst.max_abs, 0.0);
  EXPECT_EQ(r.worst.max_ulp, 0.0);
}

TEST(KernelChecks, LaneWalkBitIdenticalToOneDevice) {
  const check::Report r = check::check_path_lanes_vs_one_device();
  EXPECT_TRUE(r.passed()) << r.reproducer;
  EXPECT_EQ(r.cases, 24);
  EXPECT_EQ(r.worst.max_abs, 0.0);
  EXPECT_EQ(r.worst.max_ulp, 0.0);
}

TEST(YieldQuadrature, RejectsBadArguments) {
  const stats::Normal ok{0.0, 1.0};
  const auto spec = stats::SpecLimits::at_least(0.0);
  EXPECT_THROW(check::evaluate_test_quadrature(ok, spec, spec, stats::ErrorModel::none(), 10),
               std::invalid_argument);
  EXPECT_THROW(check::evaluate_test_quadrature(stats::Normal{0.0, 0.0}, spec, spec,
                                               stats::ErrorModel::none(), 4001),
               std::invalid_argument);
  EXPECT_NO_THROW(
      check::evaluate_test_quadrature(ok, spec, spec, stats::ErrorModel::none(), 101));
}

// ---------------------------------------------------------------------------
// The SIMD-vs-scalar pairs (green on every backend: when the run is already
// forced scalar they degenerate to an identity check)
// ---------------------------------------------------------------------------

TEST(KernelChecks, SimdWindowBitIdenticalToScalar) {
  const check::Report r = check::check_simd_window_vs_scalar();
  EXPECT_TRUE(r.passed()) << r.reproducer;
  EXPECT_EQ(r.worst.max_abs, 0.0);
  EXPECT_EQ(r.worst.max_ulp, 0.0);
}

TEST(KernelChecks, SimdRfftWithinUlpsOfScalar) {
  const check::Report r = check::check_simd_rfft_vs_scalar();
  EXPECT_TRUE(r.passed()) << r.reproducer;
}

TEST(KernelChecks, SimdBiquadWithinUlpsOfScalar) {
  const check::Report r = check::check_simd_biquad_vs_scalar();
  EXPECT_TRUE(r.passed()) << r.reproducer;
}

TEST(KernelChecks, SimdAddCosineWithinResyncBoundOfScalar) {
  const check::Report r = check::check_simd_add_cosine_vs_scalar();
  EXPECT_TRUE(r.passed()) << r.reproducer;
}

TEST(KernelChecks, SimdFaultSimBitIdenticalAcrossWidths) {
  const check::Report r = check::check_simd_fault_sim_wide_vs_64();
  EXPECT_TRUE(r.passed()) << r.reproducer;
  EXPECT_EQ(r.worst.max_abs, 0.0);
  EXPECT_EQ(r.worst.max_ulp, 0.0);
}

TEST(KernelChecks, SimdAdcFirBitIdenticalToScalar) {
  const check::Report r = check::check_simd_adc_fir_vs_scalar();
  EXPECT_TRUE(r.passed()) << r.reproducer;
  EXPECT_EQ(r.worst.max_abs, 0.0);
  EXPECT_EQ(r.worst.max_ulp, 0.0);
}

TEST(KernelChecks, SimdPolarScaleBitIdenticalToScalarForm) {
  const check::Report r = check::check_simd_polar_scale_vs_scalar();
  EXPECT_TRUE(r.passed()) << r.reproducer;
  EXPECT_EQ(r.worst.max_abs, 0.0);
  EXPECT_EQ(r.worst.max_ulp, 0.0);
}

TEST(KernelChecks, RunAllCoversEveryPair) {
  check::RunOptions opts;
  opts.cases = 2;  // smoke pass over all sixteen pairs
  const std::vector<check::Report> reports = check::run_all_kernel_checks(opts);
  ASSERT_EQ(reports.size(), 16u);
  for (const check::Report& r : reports) {
    EXPECT_TRUE(r.passed()) << r.name << ": " << r.reproducer;
    EXPECT_EQ(r.cases, 2);
  }
}

}  // namespace
}  // namespace msts
