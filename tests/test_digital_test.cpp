// Tests for digital-filter test synthesis (core/digital_test.h).
#include "core/digital_test.h"

#include <cmath>

#include <gtest/gtest.h>

#include "base/units.h"

namespace msts::core {
namespace {

path::PathConfig cfg() { return path::reference_path_config(); }

// Every n-th collapsed fault: keeps unit tests fast; benches run all.
std::vector<digital::Fault> subsample(const std::vector<digital::Fault>& all,
                                      std::size_t stride) {
  std::vector<digital::Fault> out;
  for (std::size_t i = 0; i < all.size(); i += stride) out.push_back(all[i]);
  return out;
}

TEST(DigitalTester, PlanPlacesCleanInBandTones) {
  const DigitalTester tester(cfg());
  DigitalTestOptions opt;
  const auto plan = tester.plan(opt);
  ASSERT_EQ(plan.if_freqs.size(), 2u);
  for (double f : plan.if_freqs) {
    EXPECT_GT(f, 0.0);
    EXPECT_LT(f, cfg().lpf.cutoff_hz.nominal);
    EXPECT_LT(f, cfg().fir_cutoff_norm * cfg().digital_fs());
  }
  ASSERT_EQ(plan.rf_tones.size(), 2u);
  for (const auto& t : plan.rf_tones) {
    EXPECT_GT(t.freq, cfg().lo.freq_hz);  // up-converted stimulus
    EXPECT_GT(t.amplitude, 0.0);
  }
  EXPECT_EQ(plan.mask_power_db.size(), opt.record / 2 + 1);
  EXPECT_EQ(plan.excluded.size(), opt.record / 2 + 1);
}

TEST(DigitalTester, PlanReportsPropagatedSignalQuality) {
  const DigitalTester tester(cfg());
  const auto plan = tester.plan(DigitalTestOptions{});
  // Attribute propagation predicts a healthy but finite SNR at the filter.
  EXPECT_GT(plan.expected_filter_in_snr_db, 40.0);
  EXPECT_LT(plan.expected_filter_in_snr_db, 90.0);
  EXPECT_GT(plan.expected_filter_in_sfdr_db, 20.0);
}

TEST(DigitalTester, ExcludedBinsCoverTonesAndDc) {
  const DigitalTester tester(cfg());
  DigitalTestOptions opt;
  const auto plan = tester.plan(opt);
  const double bin_w = cfg().digital_fs() / static_cast<double>(opt.record);
  EXPECT_TRUE(plan.excluded[0]);
  for (double f : plan.if_freqs) {
    EXPECT_TRUE(plan.excluded[static_cast<std::size_t>(std::llround(f / bin_w))]) << f;
  }
  // But most bins remain active for detection.
  std::size_t active = 0;
  for (bool e : plan.excluded) active += e ? 0 : 1;
  EXPECT_GT(active, plan.excluded.size() / 2);
}

TEST(DigitalTester, IdealCodesAreCoherentTones) {
  const DigitalTester tester(cfg());
  const auto plan = tester.plan(DigitalTestOptions{});
  const auto codes = tester.ideal_codes(plan);
  ASSERT_EQ(codes.size(), plan.record);
  std::int64_t peak = 0;
  for (auto c : codes) peak = std::max<std::int64_t>(peak, std::llabs(c));
  // Composite peak near the requested 70 % of full scale.
  EXPECT_GT(peak, 1100);
  EXPECT_LE(peak, 2047);
}

TEST(DigitalTester, ExactCampaignDetectsMostFaults) {
  const DigitalTester tester(cfg());
  const auto plan = tester.plan(DigitalTestOptions{});
  const auto codes = tester.ideal_codes(plan);
  const auto faults = subsample(tester.faults(), 40);
  const auto r = tester.exact_campaign(codes, faults);
  EXPECT_EQ(r.total, faults.size());
  EXPECT_GT(r.coverage(), 0.7);
  EXPECT_LT(r.coverage(), 1.0);  // some faults need more patterns
}

TEST(DigitalTester, TwoToneBeatsSingleTone) {
  const DigitalTester tester(cfg());
  DigitalTestOptions one;
  one.num_tones = 1;
  DigitalTestOptions two;
  two.num_tones = 2;
  const auto faults = subsample(tester.faults(), 40);
  const auto r1 = tester.exact_campaign(tester.ideal_codes(tester.plan(one)), faults);
  const auto r2 = tester.exact_campaign(tester.ideal_codes(tester.plan(two)), faults);
  // Sec. 3: the two-tone exercises intermodulation behaviour and covers more.
  EXPECT_GE(r2.coverage(), r1.coverage());
}

TEST(DigitalTester, SpectralCampaignGoodCircuitStaysInsideMask) {
  const auto c = cfg();
  const DigitalTester tester(c);
  const auto plan = tester.plan(DigitalTestOptions{});
  const path::PathGraph path(c);
  stats::Rng rng(51);
  const auto noisy = tester.path_codes(plan, path, rng);
  const auto ideal = tester.ideal_codes(plan);
  const auto faults = subsample(tester.faults(), 200);
  const auto out = tester.spectral_campaign(plan, ideal, noisy, faults);
  EXPECT_FALSE(out.good_circuit_flagged);
  EXPECT_GT(out.result.coverage(), 0.4);
}

TEST(DigitalTester, SpectralCoverageBelowExactCoverage) {
  // Analog noise hides the weakest fault effects (sec. 5: 95.5 % exact
  // drops to ~80 % under the translated test).
  const auto c = cfg();
  const DigitalTester tester(c);
  const auto plan = tester.plan(DigitalTestOptions{});
  const path::PathGraph path(c);
  stats::Rng rng(52);
  const auto noisy = tester.path_codes(plan, path, rng);
  const auto ideal = tester.ideal_codes(plan);
  const auto faults = subsample(tester.faults(), 100);
  const auto exact = tester.exact_campaign(ideal, faults);
  const auto spectral = tester.spectral_campaign(plan, ideal, noisy, faults);
  EXPECT_LE(spectral.result.coverage(), exact.coverage() + 0.02);
}

TEST(DigitalTester, LargerMaskMarginLowersCoverage) {
  const auto c = cfg();
  const DigitalTester tester(c);
  const path::PathGraph path(c);
  const auto faults = subsample(tester.faults(), 200);

  DigitalTestOptions tight;
  tight.mask_margin_db = 6.0;
  DigitalTestOptions loose;
  loose.mask_margin_db = 25.0;

  const auto plan_t = tester.plan(tight);
  const auto plan_l = tester.plan(loose);
  stats::Rng r1(53), r2(53);
  const auto noisy_t = tester.path_codes(plan_t, path, r1);
  const auto noisy_l = tester.path_codes(plan_l, path, r2);
  const auto out_t =
      tester.spectral_campaign(plan_t, tester.ideal_codes(plan_t), noisy_t, faults);
  const auto out_l =
      tester.spectral_campaign(plan_l, tester.ideal_codes(plan_l), noisy_l, faults);
  // The paper's FCL-vs-YL trade: a looser mask loses coverage.
  EXPECT_GE(out_t.result.coverage(), out_l.result.coverage());
}

TEST(DigitalTester, PlanValidatesOptions) {
  const DigitalTester tester(cfg());
  DigitalTestOptions bad;
  bad.record = 500;  // not a power of two
  EXPECT_THROW(tester.plan(bad), std::invalid_argument);
  DigitalTestOptions zero;
  zero.num_tones = 0;
  EXPECT_THROW(tester.plan(zero), std::invalid_argument);
  DigitalTestOptions fs;
  fs.adc_fullscale_fraction = 1.5;
  EXPECT_THROW(tester.plan(fs), std::invalid_argument);
}

TEST(DigitalTester, OutputVoltsScalesLikeReceiverPath) {
  const auto c = cfg();
  const DigitalTester tester(c);
  const std::vector<std::int64_t> raw = {1 << c.fir_coeff_frac_bits};
  const auto v = tester.output_volts(raw);
  const double lsb = 2.0 * c.adc.vref / 4096.0;
  EXPECT_NEAR(v[0], lsb, 1e-12);
}

}  // namespace
}  // namespace msts::core
