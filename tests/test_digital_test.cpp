// Tests for digital-filter test synthesis (core/digital_test.h).
#include "core/digital_test.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "base/simd.h"
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

TEST(DigitalTester, CanonicalPlanIsPinned) {
  // Every field of the canonical plan by bit pattern, at the two records of
  // the sec. 5 campaigns. `plan` folds the tone placement, the RF stimulus
  // referred back through the attribute model, the propagated SNR / SFDR and
  // the excluded bins; `mask` folds the detection mask, which carries the
  // good-circuit spectrum and so the FFT backend's last-ulp rounding.
  auto fold = [](std::uint64_t& h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::uint64_t plan_h = 0xcbf29ce484222325ull;
  std::uint64_t mask_h = 0xcbf29ce484222325ull;
  const DigitalTester tester(cfg());
  for (const std::size_t record : {std::size_t{512}, std::size_t{8192}}) {
    DigitalTestOptions opt;
    opt.record = record;
    const auto plan = tester.plan(opt);
    for (const double f : plan.if_freqs) fold(plan_h, bits(f));
    for (const dsp::Tone& t : plan.rf_tones) {
      fold(plan_h, bits(t.freq));
      fold(plan_h, bits(t.amplitude));
      fold(plan_h, bits(t.phase));
    }
    fold(plan_h, bits(plan.per_tone_adc_vpeak));
    fold(plan_h, bits(plan.expected_filter_in_snr_db));
    fold(plan_h, bits(plan.expected_filter_in_sfdr_db));
    for (const bool e : plan.excluded) fold(plan_h, e ? 1 : 0);
    for (const double m : plan.mask_power_db) fold(mask_h, bits(m));
  }
  EXPECT_EQ(plan_h, 0x464189d3248d270bull);
  switch (simd::kernels().isa) {
    case simd::Isa::kScalar: EXPECT_EQ(mask_h, 0x4f844e195b047d89ull); break;
    case simd::Isa::kAvx2: EXPECT_EQ(mask_h, 0x1c0849ea7b6294b5ull); break;
    case simd::Isa::kAvx512: EXPECT_EQ(mask_h, 0xc3d4ca22790f3cf2ull); break;
    case simd::Isa::kNeon: break;  // No mask literal recorded on NEON.
  }
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
