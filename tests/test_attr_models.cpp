// Tests for the attribute-domain block models (core/attr_models.h): the
// symbolic propagation must agree with the sample-level simulation within
// the tolerances it claims.
#include "core/attr_models.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "base/units.h"
#include "dsp/fir_design.h"
#include "dsp/metrics.h"
#include "dsp/spectrum.h"
#include "dsp/tonegen.h"
#include "path/measurements.h"
#include "stats/rng.h"

namespace msts::core {
namespace {

using stats::Uncertain;

path::PathConfig cfg() { return path::reference_path_config(); }

SignalAttributes rf_probe(double f_rf, double amp) {
  return make_stimulus(cfg().analog_fs,
                       {ToneAttr{Uncertain::exact(f_rf), Uncertain::exact(amp),
                                 Uncertain::exact(0.0)}});
}

TEST(AmpAttrModel, GainAndToleranceTracked) {
  const AmpAttrModel amp(cfg().amp);
  const auto out = amp.forward(rf_probe(10.4e6, 1e-3));
  ASSERT_EQ(out.tones.size(), 1u);
  const double expected = 1e-3 * amplitude_ratio_from_db(15.0);
  EXPECT_NEAR(out.tones[0].amplitude.nominal, expected, 1e-9);
  // ±1 dB tolerance is about ±12 % worst case.
  EXPECT_NEAR(out.tones[0].amplitude.relative_wc(), std::log(10.0) / 20.0, 0.01);
  // Frequency is untouched by an amplifier.
  EXPECT_DOUBLE_EQ(out.tones[0].freq.nominal, 10.4e6);
}

TEST(AmpAttrModel, AddsHarmonicSpurs) {
  const AmpAttrModel amp(cfg().amp);
  const auto out = amp.forward(rf_probe(10.4e6, 0.01));
  bool has_hd2 = false, has_hd3 = false;
  for (const SpurAttr& s : out.spurs) {
    if (s.origin == "amp.HD2") {
      has_hd2 = true;
      EXPECT_DOUBLE_EQ(s.freq, 2 * 10.4e6);
    }
    if (s.origin == "amp.HD3") {
      has_hd3 = true;
      EXPECT_DOUBLE_EQ(s.freq, 3 * 10.4e6);
    }
  }
  EXPECT_TRUE(has_hd2);
  EXPECT_TRUE(has_hd3);
}

TEST(AmpAttrModel, NoiseGrowsWithNf) {
  auto params = cfg().amp;
  const AmpAttrModel amp(params);
  auto in = rf_probe(10.4e6, 1e-3);
  in.noise_power = Uncertain::exact(1e-12);
  const auto out = amp.forward(in);
  const double g2 = std::pow(amplitude_ratio_from_db(15.0), 2.0);
  EXPECT_GT(out.noise_power.nominal, 1e-12 * g2);  // NF adds on top of gain
}

TEST(MixerAttrModel, DownconvertsAndAddsLoUncertainty) {
  const MixerAttrModel mixer(cfg().mixer, cfg().lo);
  const auto out = mixer.forward(rf_probe(10.4e6, 1e-3));
  ASSERT_EQ(out.tones.size(), 1u);
  EXPECT_NEAR(out.tones[0].freq.nominal, 400e3, 1e-6);
  // ±10 ppm of 10 MHz -> ±100 Hz worst-case frequency uncertainty.
  EXPECT_NEAR(out.tones[0].freq.wc, 100.0, 1e-9);
  EXPECT_NEAR(out.tones[0].amplitude.nominal,
              1e-3 * amplitude_ratio_from_db(10.0), 1e-9);
}

TEST(MixerAttrModel, DcBecomesLoSpurNotOutputDc) {
  const MixerAttrModel mixer(cfg().mixer, cfg().lo);
  auto in = rf_probe(10.4e6, 1e-3);
  in.dc = Uncertain::exact(5e-3);
  const auto out = mixer.forward(in);
  EXPECT_DOUBLE_EQ(out.dc.nominal, 0.0);
  bool found = false;
  for (const SpurAttr& s : out.spurs) {
    if (s.origin == "mixer.LO-feedthrough") {
      found = true;
      EXPECT_DOUBLE_EQ(s.freq, 10e6);
      EXPECT_GT(s.amplitude.nominal, amplitude_ratio_from_db(-40.0) * 0.9);
    }
  }
  EXPECT_TRUE(found);
}

TEST(LpfAttrModel, AttenuationFollowsResponse) {
  const LpfAttrModel lpf(cfg().lpf, cfg().analog_fs);
  const analog::LowPassFilter ref(cfg().lpf);
  for (double f : {100e3, 500e3, 1e6, 2e6, 5e6}) {
    const auto g = lpf.gain_at(f);
    EXPECT_NEAR(g.nominal, ref.magnitude_at(f, cfg().analog_fs), 1e-12) << f;
  }
  // Cutoff tolerance matters at the edge, not deep in the pass-band.
  const auto g_pass = lpf.gain_at(100e3);
  const auto g_edge = lpf.gain_at(1e6);
  EXPECT_GT(g_edge.wc / g_edge.nominal, 2.0 * g_pass.wc / g_pass.nominal);
}

// The model designs its three cascades once; the values they give must be
// the bits of filters designed per call, as LowPassFilter does: the nominal
// gain is the nominal filter's magnitude, and the worst case is built from
// the cutoff +/- wc filters' magnitudes exactly as before.
TEST(LpfAttrModel, DesignedResponsesMatchFilterMagnitude) {
  stats::Rng rng(917);
  const double fs = cfg().analog_fs;
  const double rel_per_db = std::log(10.0) / 20.0;
  for (int trial = 0; trial < 200; ++trial) {
    analog::LpfParams p;
    const double fc = rng.uniform(0.2e6, 6e6);
    p.cutoff_hz = Uncertain::from_tolerance(fc, fc * rng.uniform(0.0, 0.2));
    p.passband_gain_db = Uncertain::from_tolerance(rng.uniform(-2.0, 2.0),
                                                   rng.uniform(0.0, 1.0));
    p.order = 2 + 2 * static_cast<int>(rng.uniform(0.0, 4.0));
    const LpfAttrModel model(p, fs);

    analog::LpfParams hi = p;
    hi.cutoff_hz = Uncertain::exact(p.cutoff_hz.nominal + p.cutoff_hz.wc);
    analog::LpfParams lo = p;
    lo.cutoff_hz = Uncertain::exact(p.cutoff_hz.nominal - p.cutoff_hz.wc);
    const analog::LowPassFilter nominal_filter(p), hi_filter(hi), lo_filter(lo);
    for (int k = 0; k < 8; ++k) {
      const double f = rng.uniform(0.0, fs / 2.0);
      const double h = nominal_filter.magnitude_at(f, fs);
      const double wc_from_fc = std::max(std::abs(hi_filter.magnitude_at(f, fs) - h),
                                         std::abs(lo_filter.magnitude_at(f, fs) - h));
      const Uncertain g = model.gain_at(f);
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " f " << f);
      EXPECT_EQ(g.nominal, h);
      EXPECT_EQ(g.wc, wc_from_fc + h * rel_per_db * p.passband_gain_db.wc);
    }
  }
}

TEST(LpfAttrModel, AddsClockSpurAndShrinksNoiseBand) {
  const LpfAttrModel lpf(cfg().lpf, cfg().analog_fs);
  auto in = rf_probe(400e3, 1e-3);
  in.noise_power = Uncertain::exact(1e-8);
  const auto out = lpf.forward(in);
  bool clock = false;
  for (const SpurAttr& s : out.spurs) clock |= (s.origin == "lpf.clock");
  EXPECT_TRUE(clock);
  // 1 MHz noise bandwidth out of 16 MHz Nyquist: noise power drops sharply.
  EXPECT_LT(out.noise_power.nominal, 0.2 * 1e-8);
}

TEST(AdcAttrModel, AddsQuantizationNoiseAndOffset) {
  const AdcAttrModel adc(cfg().adc, cfg().adc_decimation);
  auto in = rf_probe(400e3, 0.1);
  in.fs = cfg().analog_fs;
  const auto out = adc.forward(in);
  EXPECT_DOUBLE_EQ(out.fs, cfg().digital_fs());
  const double lsb = 2.0 * cfg().adc.vref / 4096.0;
  EXPECT_GE(out.noise_power.nominal, lsb * lsb / 12.0);
  EXPECT_DOUBLE_EQ(out.dc.wc, cfg().adc.offset_error_v.wc);
}

TEST(AdcAttrModel, FoldsOutOfBandTones) {
  const AdcAttrModel adc(cfg().adc, cfg().adc_decimation);
  // 3.5 MHz at a 4 MHz digital rate folds to 0.5 MHz.
  auto in = make_stimulus(cfg().analog_fs,
                          {ToneAttr{Uncertain::exact(3.5e6), Uncertain::exact(0.01),
                                    Uncertain::exact(0.0)}});
  const auto out = adc.forward(in);
  EXPECT_NEAR(out.tones[0].freq.nominal, 0.5e6, 1.0);
}

TEST(FirAttrModel, ExactResponseNoAddedNoise) {
  const auto cfgv = cfg();
  const auto h = dsp::design_lowpass(cfgv.fir_taps, cfgv.fir_cutoff_norm);
  const auto q = dsp::quantize_coefficients(h, cfgv.fir_coeff_frac_bits);
  const FirAttrModel fir(q, cfgv.fir_coeff_frac_bits);

  auto in = make_stimulus(cfgv.digital_fs(),
                          {ToneAttr{Uncertain::exact(400e3), Uncertain(0.1, 0.01, 0.003),
                                    Uncertain::exact(0.0)}});
  in.noise_power = Uncertain::exact(1e-9);
  const auto out = fir.forward(in);
  const double mag = fir.magnitude_at(400e3, cfgv.digital_fs());
  EXPECT_NEAR(out.tones[0].amplitude.nominal, 0.1 * mag, 1e-12);
  // Known filter: relative uncertainty unchanged.
  EXPECT_NEAR(out.tones[0].amplitude.relative_wc(), 0.1, 1e-9);
  // Noise through sum(h^2) < 1 for this low-pass.
  EXPECT_LT(out.noise_power.nominal, 1e-9);
  EXPECT_GT(out.noise_power.nominal, 0.0);
}

TEST(PathAttrModel, CascadeGainMatchesBlockSum) {
  const PathAttrModel model(cfg());
  const double f_rf = 10.4e6;
  const path::PathGraphConfig& g = model.graph();
  const auto g_amp_in = model.gain_db_to(g.first_index(path::BlockKind::kAmp), f_rf);
  EXPECT_NEAR(g_amp_in.nominal, 0.0, 1e-9);
  const auto g_mixer_in = model.gain_db_to(g.first_index(path::BlockKind::kMixer), f_rf);
  EXPECT_NEAR(g_mixer_in.nominal, 15.0, 0.01);
  EXPECT_NEAR(g_mixer_in.wc, 1.0, 0.01);
  const auto g_path = model.path_gain_db(f_rf);
  // amp 15 + mixer 10 + lpf(~0 at 400 kHz) + adc(~0) + fir(~0 in band).
  EXPECT_NEAR(g_path.nominal, 25.0, 0.3);
  // Worst case stacks the gain tolerances: >= 1 + 1 + 0.5 dB.
  EXPECT_GT(g_path.wc, 2.2);
}

TEST(PathAttrModel, GainSplitsAdd) {
  const PathAttrModel model(cfg());
  const double f_rf = 10.4e6;
  const std::size_t lpf = model.graph().first_index(path::BlockKind::kLpf);
  const double to = model.gain_db_to(lpf, f_rf).nominal;
  const double from = model.gain_db_from(lpf, f_rf).nominal;
  EXPECT_NEAR(to + from, model.path_gain_db(f_rf).nominal, 1e-6);
}

TEST(PathAttrModel, InverseStimulusComputation) {
  const PathAttrModel model(cfg());
  const double f_rf = 10.4e6;
  const std::size_t adc = model.graph().first_index(path::BlockKind::kAdc);
  const double pi_amp = model.pi_amplitude_for(adc, f_rf, 0.1);
  // Forward-propagating that amplitude must land 0.1 V at the ADC input.
  const auto at_adc = model.forward_upto(
      make_stimulus(cfg().analog_fs, {ToneAttr{Uncertain::exact(f_rf),
                                               Uncertain::exact(pi_amp),
                                               Uncertain::exact(0.0)}}),
      adc);
  EXPECT_NEAR(at_adc.tones[0].amplitude.nominal, 0.1, 1e-6);
}

TEST(PathAttrModel, AgreesWithTransientSimulation) {
  // The headline property: the symbolic gain must predict the simulated
  // path gain within its own worst-case band (nominal path here).
  const auto c = cfg();
  const PathAttrModel model(c);
  const path::PathGraph path(c);
  stats::Rng rng(21);
  path::MeasureOptions opts;
  opts.digital_record = 2048;
  const double f_if = path::coherent_if_freq(c, opts, 400e3);
  const double measured =
      path::measure_path_gain_db(path, f_if, vpeak_from_dbm(-38.0), rng, opts);
  const auto predicted = model.path_gain_db(c.lo.freq_hz + f_if);
  EXPECT_NEAR(measured, predicted.nominal, 0.5);
}

TEST(PathAttrModel, PredictsFilterInputNoiseLevel) {
  // Attribute-model SNR at the filter input vs simulated SNR at the ADC
  // output: within a few dB (the noise model is an estimate, the paper
  // trades that into the mask margin).
  const auto c = cfg();
  const PathAttrModel model(c);
  const path::PathGraph path(c);
  stats::Rng rng(22);

  const double amp_pi = 2e-3;
  const double f_rf = 10.4e6;
  const auto predicted = model.forward_upto(
      make_stimulus(c.analog_fs, {ToneAttr{Uncertain::exact(f_rf),
                                           Uncertain::exact(amp_pi),
                                           Uncertain::exact(0.0)}}),
      model.graph().first_index(path::BlockKind::kAdc) + 1);

  analog::Signal rf;
  rf.fs = c.analog_fs;
  const dsp::Tone t{f_rf, amp_pi, 0.0};
  rf.samples = dsp::generate_tones(std::span(&t, 1), 0.0, c.analog_fs, 2048 * 8);
  const auto trace = path.run(rf, rng);
  std::vector<double> volts;
  for (const std::int64_t code : trace.adc_codes) {
    volts.push_back(static_cast<double>(code) * path.adc().lsb());
  }
  dsp::AnalysisOptions ao;
  ao.fundamentals = {400e3};
  const auto rep = dsp::analyze_spectrum(
      dsp::Spectrum(volts, trace.digital_fs, dsp::WindowType::kBlackmanHarris4), ao);
  EXPECT_NEAR(predicted.snr_db(), rep.snr_db, 4.0);
}

}  // namespace
}  // namespace msts::core
