// Tests for the executed-test Monte-Carlo validation (core/mc_validation.h).
#include "core/mc_validation.h"

#include <gtest/gtest.h>

#include "core/synthesizer.h"
#include "sweep/sweep.h"

namespace msts::core {
namespace {

TEST(McValidation, LossesFiniteAndBelowWorstCasePrediction) {
  const auto config = path::reference_path_config();
  const TestSynthesizer synth(config, /*adaptive=*/true);
  const auto study = synth.study_mixer_iip3();
  stats::Rng rng(77);
  path::MeasureOptions opts;
  opts.digital_record = 1024;
  const auto v = validate_iip3_study_mc(config, study, 150, rng, true, opts);

  EXPECT_EQ(v.trials, 150);
  EXPECT_GT(v.weight_good, 0.0);
  EXPECT_GT(v.weight_faulty, 0.0);
  EXPECT_GE(v.fcl_measured, 0.0);
  EXPECT_LE(v.fcl_measured, 1.0);
  EXPECT_GE(v.yl_measured, 0.0);
  EXPECT_LE(v.yl_measured, 1.0);
  // The uniform worst-case analytic model upper-bounds the executed test
  // (generous slack for 150-trial statistics).
  EXPECT_LT(v.fcl_measured, v.fcl_predicted + 0.15);
  EXPECT_LT(v.yl_measured, v.yl_predicted + 0.10);
}

TEST(McValidation, MeasurementErrorWithinBudget) {
  const auto config = path::reference_path_config();
  const TestSynthesizer synth(config, /*adaptive=*/true);
  const auto study = synth.study_mixer_iip3();
  stats::Rng rng(78);
  path::MeasureOptions opts;
  opts.digital_record = 1024;
  const auto v = validate_iip3_study_mc(config, study, 60, rng, true, opts);
  // Mean |error| must sit well inside the worst-case budget.
  EXPECT_LT(v.mean_abs_meas_error, study.error_wc);
  EXPECT_GT(v.mean_abs_meas_error, 0.0);
}

TEST(McValidation, BitIdenticalAcrossThreadCounts) {
  // One RNG stream per trial plus a serial trial-order reduction: every
  // field must match exactly whatever the thread count, on the canonical
  // receiver and on two sweep arrangements around it.
  path::MeasureOptions opts;
  opts.digital_record = 1024;
  for (const char* topology : {"canonical", "if-amp", "no-amp"}) {
    const path::PathGraphConfig graph =
        sweep::make_topology(topology, path::reference_path_config());
    const TestSynthesizer synth(graph, /*adaptive=*/true);
    const auto study = synth.study_mixer_iip3();

    // 37 trials: the lane groups end in a partial batch of path::kLanes.
    auto run = [&](int threads) {
      stats::Rng rng(80);
      return validate_iip3_study_mc(graph, study, 37, rng, true, opts, threads);
    };
    const auto serial = run(1);
    for (const int threads : {2, 3, 8}) {
      const auto parallel = run(threads);
      EXPECT_EQ(parallel.weight_good, serial.weight_good) << topology << ", " << threads;
      EXPECT_EQ(parallel.weight_faulty, serial.weight_faulty)
          << topology << ", " << threads;
      EXPECT_EQ(parallel.fcl_measured, serial.fcl_measured)
          << topology << ", " << threads;
      EXPECT_EQ(parallel.yl_measured, serial.yl_measured) << topology << ", " << threads;
      EXPECT_EQ(parallel.mean_abs_meas_error, serial.mean_abs_meas_error)
          << topology << ", " << threads;
    }
  }
}

TEST(McValidation, ResultIsPinned) {
  // One translated_mc op (40 adaptive trials at the default record). The
  // weights and losses are exact on every thread count and SIMD backend;
  // the FFT behind the measurement error differs by a few ulps between
  // backends, hence the relative bound on that one field.
  const auto config = path::reference_path_config();
  const TestSynthesizer synth(config, /*adaptive=*/true);
  const auto study = synth.study_mixer_iip3();
  stats::Rng rng(81);
  const auto v = validate_iip3_study_mc(config, study, 40, rng, true);
  EXPECT_EQ(v.trials, 40);
  EXPECT_EQ(v.weight_good, 0x1.5d7bcddb541edp+3);
  EXPECT_EQ(v.weight_faulty, 0x1.74072313701bfp-3);
  EXPECT_EQ(v.fcl_measured, 0x1.eab4e0b7ea6f7p-2);
  EXPECT_EQ(v.yl_measured, 0x1.223bcbbf3fe22p-4);
  constexpr double kMeanAbsError = 0x1.2dfc8b9ed7268p-2;
  EXPECT_NEAR(v.mean_abs_meas_error, kMeanAbsError, 1e-12 * kMeanAbsError);
}

TEST(McValidation, RejectsTooFewTrials) {
  const auto config = path::reference_path_config();
  const TestSynthesizer synth(config);
  stats::Rng rng(79);
  EXPECT_THROW(validate_iip3_study_mc(config, synth.study_mixer_iip3(), 5, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace msts::core
