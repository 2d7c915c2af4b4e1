// Tests for the executable test program (core/test_program.h).
#include "core/test_program.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "sweep/sweep.h"

namespace msts::core {
namespace {

path::PathConfig cfg() { return path::reference_path_config(); }

path::MeasureOptions fast_opts() {
  path::MeasureOptions o;
  o.digital_record = 1024;
  return o;
}

TEST(TestProgram, CompositesComeFirst) {
  const TestProgram prog(cfg(), GuardBandPolicy::kAtTol, fast_opts());
  ASSERT_GE(prog.steps().size(), 6u);
  EXPECT_EQ(prog.steps()[0].name, "path_gain");
  EXPECT_EQ(prog.steps()[1].name, "lo_freq_error");
}

TEST(TestProgram, CanonicalStepsArePinned) {
  // Each step's name, unit, spec, applied limits and error budget, under
  // every guard-band policy, by bit pattern.
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  auto fold_double = [&fold](double v) { fold(std::bit_cast<std::uint64_t>(v)); };
  auto fold_string = [&fold](const std::string& s) {
    fold(s.size());
    for (const char c : s) fold(static_cast<unsigned char>(c));
  };
  auto fold_limits = [&](const stats::SpecLimits& l) {
    fold(static_cast<std::uint64_t>(l.side));
    fold_double(l.lo);
    fold_double(l.hi);
  };
  for (const GuardBandPolicy policy :
       {GuardBandPolicy::kAtTol, GuardBandPolicy::kMinusErr, GuardBandPolicy::kPlusErr}) {
    const TestProgram prog(cfg(), policy, fast_opts());
    fold(prog.steps().size());
    for (const TestStep& s : prog.steps()) {
      fold_string(s.name);
      fold_string(s.unit);
      fold_limits(s.spec);
      fold_limits(s.limits);
      fold_double(s.error_budget_wc);
    }
  }
  EXPECT_EQ(h, 0xaae52ae7aa657b45ull);
}

TEST(TestProgram, NominalDevicePassesEverything) {
  const TestProgram prog(cfg(), GuardBandPolicy::kAtTol, fast_opts());
  const path::PathGraph device(cfg());
  stats::Rng rng(91);
  const auto log = prog.run(device, rng);
  EXPECT_TRUE(log.pass) << format_datalog(log);
  EXPECT_EQ(log.steps.size(), prog.steps().size());
  for (const auto& s : log.steps) {
    EXPECT_TRUE(s.pass) << s.name;
    EXPECT_GT(s.margin, 0.0) << s.name;
  }
}

TEST(TestProgram, DefectiveMixerFailsTheIip3Step) {
  auto bad = cfg();
  bad.mixer.iip3_dbm = stats::Uncertain::exact(-6.0);  // far below 2-sigma limit
  const TestProgram prog(cfg(), GuardBandPolicy::kAtTol, fast_opts());
  const path::PathGraph device(bad);
  stats::Rng rng(92);
  const auto log = prog.run(device, rng);
  EXPECT_FALSE(log.pass);
  bool iip3_failed = false;
  for (const auto& s : log.steps) {
    if (s.name == "mixer_iip3") iip3_failed = !s.pass;
  }
  EXPECT_TRUE(iip3_failed) << format_datalog(log);
}

TEST(TestProgram, ShiftedCutoffFailsTheCutoffStep) {
  auto bad = cfg();
  bad.lpf.cutoff_hz = stats::Uncertain::exact(1.25e6);  // outside the window
  const TestProgram prog(cfg(), GuardBandPolicy::kAtTol, fast_opts());
  const path::PathGraph device(bad);
  stats::Rng rng(93);
  const auto log = prog.run(device, rng);
  EXPECT_FALSE(log.pass);
  for (const auto& s : log.steps) {
    if (s.name == "lpf_cutoff") EXPECT_FALSE(s.pass) << format_datalog(log);
  }
}

TEST(TestProgram, StopOnFailTruncatesTheDatalog) {
  auto bad = cfg();
  bad.lo.freq_error_ppm = stats::Uncertain::exact(40.0);  // fails step 2
  const TestProgram prog(cfg(), GuardBandPolicy::kAtTol, fast_opts());
  const path::PathGraph device(bad);
  stats::Rng rng(94);
  const auto log = prog.run(device, rng, /*stop_on_fail=*/true);
  EXPECT_FALSE(log.pass);
  EXPECT_EQ(log.failed_at, "lo_freq_error");
  EXPECT_EQ(log.steps.size(), 2u);  // path_gain + the failing step
}

TEST(TestProgram, GuardBandPoliciesOrderTheLimits) {
  const TestProgram at_tol(cfg(), GuardBandPolicy::kAtTol, fast_opts());
  const TestProgram loose(cfg(), GuardBandPolicy::kMinusErr, fast_opts());
  const TestProgram tight(cfg(), GuardBandPolicy::kPlusErr, fast_opts());
  for (std::size_t i = 0; i < at_tol.steps().size(); ++i) {
    const auto& a = at_tol.steps()[i];
    const auto& l = loose.steps()[i];
    const auto& t = tight.steps()[i];
    if (std::isfinite(a.limits.lo)) {
      EXPECT_LE(l.limits.lo, a.limits.lo) << a.name;
      EXPECT_GE(t.limits.lo, a.limits.lo) << a.name;
    }
    if (std::isfinite(a.limits.hi)) {
      EXPECT_GE(l.limits.hi, a.limits.hi) << a.name;
      EXPECT_LE(t.limits.hi, a.limits.hi) << a.name;
    }
  }
}

TEST(TestProgram, MarginalDeviceCaughtOnlyByTightLimits) {
  // A mixer IIP3 just below the spec: the Tol+Err program must reject it
  // (zero test escapes), while Tol-Err accepts it (zero yield loss policy).
  auto marginal = cfg();
  const auto& p = cfg().mixer.iip3_dbm;
  marginal.mixer.iip3_dbm = stats::Uncertain::exact(p.nominal - 2.0 * p.sigma - 0.2);
  const path::PathGraph device(marginal);
  const TestProgram tight(cfg(), GuardBandPolicy::kPlusErr, fast_opts());
  const TestProgram loose(cfg(), GuardBandPolicy::kMinusErr, fast_opts());
  stats::Rng r1(95), r2(96);
  EXPECT_FALSE(tight.run(device, r1).pass);
  EXPECT_TRUE(loose.run(device, r2).pass);
}

TEST(TestProgram, EveryArrangementRunsReproducibly) {
  // A nominal device of each sweep arrangement, run twice from one seed:
  // identical datalogs with one finite measurement per step.
  for (const char* topology : {"canonical", "if-amp", "dual-lpf", "no-amp"}) {
    const path::PathGraphConfig graph = sweep::make_topology(topology, cfg());
    const TestProgram prog(graph, GuardBandPolicy::kAtTol, fast_opts());
    const path::PathGraph device(graph);
    stats::Rng r1(98), r2(98);
    const DeviceResult a = prog.run(device, r1);
    const DeviceResult b = prog.run(device, r2);
    ASSERT_EQ(a.steps.size(), prog.steps().size()) << topology;
    ASSERT_EQ(b.steps.size(), a.steps.size()) << topology;
    for (std::size_t i = 0; i < a.steps.size(); ++i) {
      EXPECT_EQ(a.steps[i].name, prog.steps()[i].name) << topology;
      EXPECT_TRUE(std::isfinite(a.steps[i].measured))
          << topology << ' ' << a.steps[i].name;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.steps[i].measured),
                std::bit_cast<std::uint64_t>(b.steps[i].measured))
          << topology << ' ' << a.steps[i].name;
      EXPECT_EQ(a.steps[i].pass, b.steps[i].pass) << topology << ' ' << a.steps[i].name;
    }
    EXPECT_EQ(format_datalog(a), format_datalog(b)) << topology;
  }
}

TEST(TestProgram, DatalogFormatsReadably) {
  const TestProgram prog(cfg(), GuardBandPolicy::kAtTol, fast_opts());
  const path::PathGraph device(cfg());
  stats::Rng rng(97);
  const std::string text = format_datalog(prog.run(device, rng));
  EXPECT_NE(text.find("path_gain"), std::string::npos);
  EXPECT_NE(text.find("PASS"), std::string::npos);
  EXPECT_NE(text.find("bin:"), std::string::npos);
}

}  // namespace
}  // namespace msts::core
