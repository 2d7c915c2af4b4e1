// Integration tests for the assembled receive path (path/receiver_path.h)
// and the system-level measurement procedures (path/measurements.h).
#include "path/receiver_path.h"

#include <cmath>

#include <gtest/gtest.h>

#include "base/units.h"
#include "digital/fir.h"
#include "dsp/tonegen.h"
#include "path/measurements.h"

namespace msts::path {
namespace {

MeasureOptions fast_opts() {
  MeasureOptions o;
  o.digital_record = 2048;
  return o;
}

analog::Signal rf_tone(const PathConfig& c, double if_freq, double amp,
                       std::size_t digital_n) {
  const dsp::Tone t{c.lo.freq_hz + if_freq, amp, 0.0};
  analog::Signal s;
  s.fs = c.analog_fs;
  s.samples = dsp::generate_tones(std::span(&t, 1), 0.0, c.analog_fs,
                                  digital_n * c.adc_decimation);
  return s;
}

TEST(ReceiverPath, TraceHasConsistentDimensions) {
  const PathConfig c = reference_path_config();
  const ReceiverPath path(c);
  stats::Rng rng(1);
  const auto trace = path.run(rf_tone(c, 500e3, 1e-3, 1024), rng);
  EXPECT_EQ(trace.analog_stages[0].size(), 1024u * c.adc_decimation);
  EXPECT_EQ(trace.adc_codes.size(), 1024u);
  EXPECT_EQ(trace.filter_out.size(), 1024u);
  EXPECT_DOUBLE_EQ(trace.digital_fs, 4.0e6);
  EXPECT_EQ(path.fir().coeffs.size(), c.fir_taps);
}

TEST(ReceiverPath, RejectsWrongSampleRate) {
  const PathConfig c = reference_path_config();
  const ReceiverPath path(c);
  stats::Rng rng(1);
  analog::Signal bad;
  bad.fs = 1.0e6;
  bad.samples.assign(256, 0.0);
  EXPECT_THROW(path.run(bad, rng), std::invalid_argument);
}

TEST(ReceiverPath, WorkspaceSurvivesRecordLengthChanges) {
  // Shrinking then regrowing the record must not leave stale tail samples.
  const PathConfig c = reference_path_config();
  const ReceiverPath path(c);
  GraphWorkspace ws;
  for (std::size_t digital_n : {std::size_t{1024}, std::size_t{256}, std::size_t{1024}}) {
    const auto rf = rf_tone(c, 500e3, 1e-3, digital_n);
    stats::Rng rng_a(7);
    stats::Rng rng_b(7);
    const auto fresh = path.run(rf, rng_a);
    const auto& reused = path.run(rf, rng_b, ws);
    ASSERT_EQ(reused.filter_out, fresh.filter_out) << "digital_n " << digital_n;
  }
}

TEST(ReceiverPath, FilterOutputVoltsIntoMatchesValueForm) {
  const PathConfig c = reference_path_config();
  const ReceiverPath path(c);
  stats::Rng rng(3);
  const auto trace = path.run(rf_tone(c, 400e3, 1e-3, 512), rng);
  const auto by_value = path.output_volts(trace);
  std::vector<double> into(3, -99.0);  // wrong size and content on purpose
  path.output_volts_into(trace, into);
  ASSERT_EQ(into, by_value);
  // The canonical receiver reads the FIR words, scaled by the ADC LSB over
  // the coefficient scaling.
  const double scale = path.adc().lsb() / static_cast<double>(1 << c.fir_coeff_frac_bits);
  ASSERT_EQ(by_value.size(), trace.filter_out.size());
  for (std::size_t i = 0; i < by_value.size(); ++i) {
    ASSERT_EQ(by_value[i], static_cast<double>(trace.filter_out[i]) * scale) << i;
  }
}

TEST(ReceiverPath, FirBlockMatchesStepwiseModel) {
  // The transient uses digital::fir_block_into; pin it against FirModel::step
  // on the path's own coefficient set, including negative and saturating-range
  // inputs around the warm-up boundary.
  const PathConfig c = reference_path_config();
  const ReceiverPath path(c);
  digital::FirModel model(path.fir().coeffs, c.adc.bits);

  std::vector<std::int64_t> x;
  for (int i = 0; i < 64; ++i) {
    x.push_back(((i * 37) % 4001) - 2000);  // deterministic, in 12-bit range
  }
  std::vector<std::int64_t> block;
  digital::fir_block_into(path.fir().coeffs, c.adc.bits, x, block);
  ASSERT_EQ(block.size(), x.size());
  model.reset();
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(block[i], model.step(x[i])) << "sample " << i;
  }
}

TEST(Measurements, PathGainNearNominalCascade) {
  const PathConfig c = reference_path_config();
  const ReceiverPath path(c);
  stats::Rng rng(2);
  const MeasureOptions opts = fast_opts();
  const double f = coherent_if_freq(c, opts, 400e3);
  const double g = measure_path_gain_db(path, f, vpeak_from_dbm(-35.0), rng, opts);
  // Nominal cascade: amp 15 + mixer 10 + lpf 0 = 25 dB.
  EXPECT_NEAR(g, 25.0, 0.8);
}

TEST(Measurements, GainIsFlatAcrossThePassband) {
  const PathConfig c = reference_path_config();
  const ReceiverPath path(c);
  stats::Rng rng(3);
  const MeasureOptions opts = fast_opts();
  const double a = vpeak_from_dbm(-35.0);
  const double g1 = measure_path_gain_db(path, coherent_if_freq(c, opts, 200e3), a,
                                         rng, opts);
  const double g2 = measure_path_gain_db(path, coherent_if_freq(c, opts, 600e3), a,
                                         rng, opts);
  EXPECT_NEAR(g1, g2, 0.6);
}

TEST(Measurements, TwoToneShowsIm3BelowCarrier) {
  const PathConfig c = reference_path_config();
  const ReceiverPath path(c);
  stats::Rng rng(4);
  const MeasureOptions opts = fast_opts();
  const double f1 = coherent_if_freq(c, opts, 300e3);
  const double f2 = coherent_if_freq(c, opts, 410e3);
  const auto r = measure_two_tone(path, f1, f2, vpeak_from_dbm(-40.0), rng, opts);
  // Mixer IIP3 (+2 dBm) referred to the RF input is -13 dBm, so IM3 should
  // sit near 2*(-40 - (-13)) = -54 dBc.
  const double im3_dbc = r.im3_power_db - r.fund_power_db;
  EXPECT_LT(im3_dbc, -40.0);
  EXPECT_GT(im3_dbc, -70.0);  // visible above the noise floor
}

TEST(Measurements, PathP1dbNearMixerLimit) {
  const PathConfig c = reference_path_config();
  const ReceiverPath path(c);
  stats::Rng rng(5);
  const MeasureOptions opts = fast_opts();
  const double f = coherent_if_freq(c, opts, 400e3);
  const double p1db = measure_path_p1db_dbm(path, f, rng, opts);
  // Mixer P1dB (-8 dBm at its input) referred to the RF input: -8 - 15 = -23.
  EXPECT_NEAR(p1db, -23.0, 2.5);
}

TEST(Measurements, CutoffNearLpfNominal) {
  const PathConfig c = reference_path_config();
  const ReceiverPath path(c);
  stats::Rng rng(6);
  const MeasureOptions opts = fast_opts();
  const double fc = measure_path_cutoff_hz(path, vpeak_from_dbm(-35.0), rng, opts);
  EXPECT_NEAR(fc, c.lpf.cutoff_hz.nominal, 0.12 * c.lpf.cutoff_hz.nominal);
}

TEST(Measurements, OutputDcTracksPathOffsets) {
  PathConfig c = reference_path_config();
  // Exaggerate the ADC offset so it dominates the (noisy) estimate.
  c.adc.offset_error_v = stats::Uncertain::exact(20e-3);
  const ReceiverPath path(c);
  stats::Rng rng(7);
  const double dc = measure_output_dc_v(path, rng, fast_opts());
  EXPECT_NEAR(dc, 20e-3, 2e-3);
}

TEST(Measurements, SpectrumReportShowsHealthyDynamicRange) {
  const PathConfig c = reference_path_config();
  const ReceiverPath path(c);
  stats::Rng rng(8);
  const MeasureOptions opts = fast_opts();
  const double f = coherent_if_freq(c, opts, 400e3);
  const auto rep = measure_spectrum_report(path, f, vpeak_from_dbm(-40.0), rng, opts);
  EXPECT_GT(rep.snr_db, 45.0);
  EXPECT_GT(rep.sfdr_db, 40.0);
}

TEST(Measurements, LoFrequencyErrorRecovered) {
  PathConfig c = reference_path_config();
  c.lo.freq_error_ppm = stats::Uncertain::exact(8.0);
  c.lo.phase_noise_rad = stats::Uncertain::exact(1e-4);
  const ReceiverPath path(c);
  stats::Rng rng(9);
  const MeasureOptions opts = fast_opts();
  const double f = coherent_if_freq(c, opts, 400e3);
  const double ppm =
      measure_lo_freq_error_ppm(path, f, vpeak_from_dbm(-30.0), rng, opts);
  EXPECT_NEAR(ppm, 8.0, 1.0);
}

TEST(Measurements, SampledPathsSpreadAroundNominal) {
  const PathConfig c = reference_path_config();
  stats::Rng mc(10);
  stats::Rng noise(11);
  const MeasureOptions opts = fast_opts();
  const double f = coherent_if_freq(c, opts, 400e3);
  double min_g = 1e9, max_g = -1e9;
  for (int i = 0; i < 10; ++i) {
    const ReceiverPath path = ReceiverPath::sampled(c, mc);
    const double g = measure_path_gain_db(path, f, vpeak_from_dbm(-35.0), noise, opts);
    min_g = std::min(min_g, g);
    max_g = std::max(max_g, g);
  }
  // Gains vary with tolerance but stay within the worst-case stack (+/- ~2.5 dB).
  EXPECT_GT(max_g - min_g, 0.2);
  EXPECT_GT(min_g, 25.0 - 3.0);
  EXPECT_LT(max_g, 25.0 + 3.0);
}

TEST(Measurements, GroupDelayMatchesFirPlusLpf) {
  const PathConfig c = reference_path_config();
  const ReceiverPath path(c);
  stats::Rng rng(13);
  const MeasureOptions opts = fast_opts();
  const double f_if = coherent_if_freq(c, opts, 400e3);
  const double measured =
      measure_group_delay_s(path, f_if, vpeak_from_dbm(-35.0), rng, opts);
  // Linear-phase FIR contributes (taps-1)/2 digital samples; the LPF its
  // own analytic group delay at the IF.
  const double fir_delay =
      (static_cast<double>(c.fir_taps) - 1.0) / 2.0 / c.digital_fs();
  const double lpf_delay = path.lpf().group_delay_at(f_if, c.analog_fs);
  EXPECT_NEAR(measured, fir_delay + lpf_delay, 0.15e-6);
}

TEST(Measurements, GroupDelayRisesTowardTheCutoff) {
  // Butterworth group delay peaks near fc: the path delay at 0.9 MHz must
  // exceed the mid-band value.
  const PathConfig c = reference_path_config();
  const ReceiverPath path(c);
  stats::Rng rng(14);
  const MeasureOptions opts = fast_opts();
  const double mid = measure_group_delay_s(path, coherent_if_freq(c, opts, 300e3),
                                           vpeak_from_dbm(-35.0), rng, opts);
  const double edge = measure_group_delay_s(path, coherent_if_freq(c, opts, 900e3),
                                            vpeak_from_dbm(-35.0), rng, opts);
  EXPECT_GT(edge, mid + 0.05e-6);
}

TEST(Measurements, GroupDelayNarrowsToneSpacingForLongFirs) {
  // Regression: the phase-slope delay is only unambiguous within
  // +/- 1/(2 df). With the old fixed +/-4-bin spacing a 701-tap FIR
  // (87.5 us of delay against a 51.2 us unambiguous range at this record)
  // wrapped the phase difference past pi and silently reported ~40 us. The
  // measurement now narrows the spacing to +/-2 bins, where the delay fits,
  // and must recover the true value.
  PathConfig c = reference_path_config();
  c.fir_taps = 701;
  const ReceiverPath path(c);
  stats::Rng rng(21);
  const MeasureOptions opts;  // default 4096-sample record
  const double f_if = coherent_if_freq(c, opts, 400e3);
  const double measured =
      measure_group_delay_s(path, f_if, vpeak_from_dbm(-35.0), rng, opts);
  const double fir_delay =
      (static_cast<double>(c.fir_taps) - 1.0) / 2.0 / c.digital_fs();
  const double lpf_delay = path.lpf().group_delay_at(f_if, c.analog_fs);
  EXPECT_NEAR(measured, fir_delay + lpf_delay, 0.3e-6);
}

TEST(Measurements, GroupDelayRefusesToAliasWhenDelayExceedsRange) {
  // 1025 taps is 128 us of FIR delay — beyond the unambiguous range even at
  // the narrowest tone spacing for a 2048-sample record (51.2 us). The old
  // code happily measured a wrapped phase difference (128 us aliases to
  // ~0 us at +/-4-bin spacing); it must refuse instead of lying.
  PathConfig c = reference_path_config();
  c.fir_taps = 1025;
  const ReceiverPath path(c);
  stats::Rng rng(22);
  const MeasureOptions opts = fast_opts();
  const double f_if = coherent_if_freq(c, opts, 400e3);
  EXPECT_THROW(
      measure_group_delay_s(path, f_if, vpeak_from_dbm(-35.0), rng, opts),
      std::invalid_argument);
}

TEST(Measurements, ClockSpurVisibleInOutputSpectrum) {
  PathConfig c = reference_path_config();
  c.lpf.clock_spur_v = stats::Uncertain::exact(2e-3);
  const ReceiverPath path(c);
  stats::Rng rng(12);
  const MeasureOptions opts = fast_opts();
  const double f = coherent_if_freq(c, opts, 300e3);
  const double freqs[] = {f};
  const double amps[] = {vpeak_from_dbm(-35.0)};
  const auto spectrum = run_two_port(path, freqs, amps, rng, opts);
  // The 6.4 MHz clock folds to 1.6 MHz at the 4 MHz digital rate; the FIR
  // attenuates it there but it must still stand clear of the noise floor.
  const auto spur = dsp::measure_tone(spectrum, 1.6e6);
  const double fir_att = path.fir_magnitude_at(1.6e6);
  EXPECT_NEAR(spur.amplitude / fir_att, 2e-3, 1e-3);
}

}  // namespace
}  // namespace msts::path
