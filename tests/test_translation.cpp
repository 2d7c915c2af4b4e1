// Tests for the translation engine (core/translation.h): error budgets,
// untranslatability detection, and executed translated measurements against
// the true (sampled) block parameters.
#include "core/translation.h"

#include <cmath>

#include <gtest/gtest.h>

#include "base/units.h"

namespace msts::core {
namespace {

path::PathConfig cfg() { return path::reference_path_config(); }

path::MeasureOptions fast_opts() {
  path::MeasureOptions o;
  o.digital_record = 2048;
  return o;
}

TEST(Translator, AdaptiveIip3ErrorSmallerThanNominal) {
  const Translator tr(cfg());
  const auto adaptive = tr.analyze_mixer_iip3(true);
  const auto nominal = tr.analyze_mixer_iip3(false);
  EXPECT_EQ(adaptive.method, TranslationMethod::kPropagation);
  EXPECT_EQ(nominal.method, TranslationMethod::kPropagation);
  // Fig. 4: adaptive error ~ tol(G_A) ~ 1 dB; nominal error stacks the mixer
  // and post-mixer tolerances (>= 1.5 dB).
  EXPECT_LT(adaptive.error.wc, nominal.error.wc);
  EXPECT_NEAR(adaptive.error.wc, 1.0, 0.2);
  EXPECT_GT(nominal.error.wc, 1.4);
}

TEST(Translator, P1dbErrorIsAmpTolerance) {
  const Translator tr(cfg());
  const auto a = tr.analyze_mixer_p1db();
  EXPECT_NEAR(a.error.wc, cfg().amp.gain_db.wc, 0.15);
}

TEST(Translator, CutoffErrorWellBelowTolerance) {
  const Translator tr(cfg());
  const auto a = tr.analyze_lpf_cutoff();
  EXPECT_GT(a.error.wc, 1e3);                      // nonzero: flatness budget
  EXPECT_LT(a.error.wc, cfg().lpf.cutoff_hz.wc);   // but below the 50 kHz tol
}

TEST(Translator, UntranslatableParametersAreFlagged) {
  const Translator tr(cfg());
  EXPECT_FALSE(tr.analyze_mixer_lo_isolation().translatable);
  EXPECT_EQ(tr.analyze_mixer_lo_isolation().method, TranslationMethod::kDirectDft);
  EXPECT_FALSE(tr.analyze_amp_offset().translatable);
  EXPECT_FALSE(tr.analyze_amp_hd3().translatable);
}

TEST(Translator, PathGainIsComposition) {
  const Translator tr(cfg());
  const auto a = tr.analyze_path_gain();
  EXPECT_EQ(a.method, TranslationMethod::kComposition);
  EXPECT_LT(a.error.wc, 0.1);  // high-accuracy composite
}

TEST(Translator, StimulusChoicesAreInBand) {
  const Translator tr(cfg());
  const double f = tr.test_if_freq();
  EXPECT_GT(f, 0.0);
  EXPECT_LT(f, cfg().lpf.cutoff_hz.nominal);
  const auto [f1, f2] = tr.test_two_tone();
  EXPECT_LT(f1, f2);
  EXPECT_LT(f2, cfg().lpf.cutoff_hz.nominal);
  EXPECT_GT(2.0 * f1 - f2, 0.0);  // IM3 stays at positive frequency
  EXPECT_GT(tr.linear_drive_vpeak(), 0.0);
}

TEST(Translator, MeasuredPathGainTracksSampledPath) {
  const auto c = cfg();
  const Translator tr(c);
  stats::Rng mc(31);
  stats::Rng noise(32);
  for (int i = 0; i < 3; ++i) {
    const auto path = path::PathGraph::sampled(c, mc);
    const double g = tr.measure_path_gain_db(path, noise, fast_opts());
    const double actual = path.amp().actual_gain_db() +
                          path.mixer().actual_conv_gain_db() +
                          path.lpf().actual_passband_gain_db();
    EXPECT_NEAR(g, actual, 0.35) << "instance " << i;
  }
}

TEST(Translator, TranslatedIip3WithinAnalysisError) {
  const auto c = cfg();
  const Translator tr(c);
  const double budget_adaptive = tr.analyze_mixer_iip3(true).error.wc;
  stats::Rng mc(33);
  stats::Rng noise(34);
  for (int i = 0; i < 3; ++i) {
    const auto path = path::PathGraph::sampled(c, mc);
    const double est = tr.measure_mixer_iip3_dbm(path, noise, /*adaptive=*/true,
                                                 fast_opts());
    const double actual = path.mixer().actual_iip3_dbm();
    // Allow the analysis worst case plus a measurement floor.
    EXPECT_NEAR(est, actual, budget_adaptive + 1.0) << "instance " << i;
  }
}

TEST(Translator, AdaptiveIip3BeatsNominalOnGainSkewedPath) {
  // Force every post-mixer gain to its worst-case corner: the nominal-gain
  // computation inherits the full skew, the adaptive one only G_A's.
  auto c = cfg();
  c.mixer.conv_gain_db = stats::Uncertain::exact(11.0);         // +1 dB corner
  c.lpf.passband_gain_db = stats::Uncertain::exact(0.5);        // +0.5 dB corner
  const path::PathConfig nominal_cfg = cfg();
  const Translator tr(nominal_cfg);  // translator believes nominal gains
  const path::PathGraph skewed(c);
  stats::Rng n1(35), n2(36);
  const double est_adaptive =
      tr.measure_mixer_iip3_dbm(skewed, n1, true, fast_opts());
  const double est_nominal =
      tr.measure_mixer_iip3_dbm(skewed, n2, false, fast_opts());
  const double actual = skewed.mixer().actual_iip3_dbm();
  EXPECT_LT(std::abs(est_adaptive - actual), std::abs(est_nominal - actual));
}

TEST(Translator, TranslatedP1dbTracksActual) {
  const auto c = cfg();
  const Translator tr(c);
  stats::Rng mc(37), noise(38);
  const auto path = path::PathGraph::sampled(c, mc);
  const double est = tr.measure_mixer_p1db_dbm(path, noise, fast_opts());
  EXPECT_NEAR(est, path.mixer().actual_p1db_in_dbm(),
              tr.analyze_mixer_p1db().error.wc + 1.5);
}

TEST(Translator, TranslatedCutoffTracksActual) {
  const auto c = cfg();
  const Translator tr(c);
  stats::Rng mc(39), noise(40);
  const auto path = path::PathGraph::sampled(c, mc);
  const double est = tr.measure_lpf_cutoff_hz(path, noise, fast_opts());
  EXPECT_NEAR(est, path.lpf().actual_cutoff_hz(), 0.1 * c.lpf.cutoff_hz.nominal);
}

TEST(Translator, LoFrequencyErrorMeasured) {
  auto c = cfg();
  c.lo.freq_error_ppm = stats::Uncertain::exact(-6.0);
  const Translator tr(c);
  const path::PathGraph path(c);
  stats::Rng noise(41);
  const double est = tr.measure_lo_freq_error_ppm(path, noise, fast_opts());
  // Estimation floor is set by the LO phase noise over the record (~2 ppm).
  EXPECT_NEAR(est, -6.0, 2.5);
}

TEST(TranslationMethod, Names) {
  EXPECT_EQ(to_string(TranslationMethod::kComposition), "composition");
  EXPECT_EQ(to_string(TranslationMethod::kPropagation), "propagation");
  EXPECT_EQ(to_string(TranslationMethod::kDirectDft), "DFT required");
}

}  // namespace
}  // namespace msts::core
