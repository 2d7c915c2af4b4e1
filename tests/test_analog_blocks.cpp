// Tests for the analog behavioral blocks (analog/*): each block's simulated
// waveform must exhibit the datasheet parameter it was configured with.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analog/adc.h"
#include "analog/amp.h"
#include "analog/lo.h"
#include "analog/lpf.h"
#include "analog/mixer.h"
#include "analog/noise.h"
#include "base/units.h"
#include "dsp/metrics.h"
#include "dsp/spectrum.h"
#include "dsp/tonegen.h"
#include "stats/rng.h"

namespace msts::analog {
namespace {

constexpr double kFs = 32.0e6;
constexpr std::size_t kN = 8192;

Signal tone_signal(double freq, double amp) {
  const dsp::Tone t{freq, amp, 0.0};
  Signal s;
  s.fs = kFs;
  s.samples = dsp::generate_tones(std::span(&t, 1), 0.0, kFs, kN);
  return s;
}

double tone_amp(const Signal& s, double freq) {
  const dsp::Spectrum spec(s.samples, s.fs, dsp::WindowType::kBlackmanHarris4);
  return dsp::measure_tone(spec, freq).amplitude;
}

AmpParams quiet_amp() {
  AmpParams p;
  p.nf_db = stats::Uncertain::exact(0.0);       // no thermal noise
  p.dc_offset_v = stats::Uncertain::exact(0.0);
  p.iip2_dbm = stats::Uncertain::exact(80.0);   // negligible HD2
  return p;
}

TEST(Amplifier, SmallSignalGainMatchesSpec) {
  AmpParams p = quiet_amp();
  p.gain_db = stats::Uncertain::exact(15.0);
  Amplifier amp(p);
  stats::Rng rng(1);
  const double f = dsp::coherent_frequency(kFs, kN, 2e6);
  const Signal out = amp.process(tone_signal(f, 1e-3), rng);
  EXPECT_NEAR(db_from_amplitude_ratio(tone_amp(out, f) / 1e-3), 15.0, 0.05);
}

TEST(Amplifier, DcOffsetAppearsAtOutput) {
  AmpParams p = quiet_amp();
  p.dc_offset_v = stats::Uncertain::exact(5e-3);
  Amplifier amp(p);
  stats::Rng rng(1);
  const Signal out = amp.process(tone_signal(1e6, 1e-3), rng);
  double mean = 0.0;
  for (double v : out.samples) mean += v;
  mean /= static_cast<double>(out.size());
  EXPECT_NEAR(mean, 5e-3, 1e-4);
}

TEST(Amplifier, Im3LevelMatchesIip3) {
  AmpParams p = quiet_amp();
  p.gain_db = stats::Uncertain::exact(15.0);
  p.iip3_dbm = stats::Uncertain::exact(10.0);
  p.p1db_in_dbm = stats::Uncertain::exact(20.0);  // keep the clamp out of the way
  Amplifier amp(p);
  stats::Rng rng(1);
  const auto freqs = dsp::place_test_tones(kFs, kN, 1e6, 3e6, 2);
  const double a = vpeak_from_dbm(-20.0);
  const dsp::Tone tones[] = {{freqs[0], a, 0.0}, {freqs[1], a, 0.0}};
  Signal in;
  in.fs = kFs;
  in.samples = dsp::generate_tones(tones, 0.0, kFs, kN);
  const Signal out = amp.process(in, rng);

  const dsp::Spectrum spec(out.samples, kFs, dsp::WindowType::kBlackmanHarris4);
  const auto fund = dsp::measure_tone(spec, freqs[0]);
  const auto im3 = dsp::measure_tone(spec, 2.0 * freqs[1] - freqs[0]);
  // IM3 (dBc) = 2 * (Pin - IIP3) = 2 * (-20 - 10) = -60 dBc.
  EXPECT_NEAR(im3.power_db - fund.power_db, -60.0, 1.5);
}

TEST(Amplifier, SaturatesAtP1dbDerivedLevel) {
  AmpParams p = quiet_amp();
  p.gain_db = stats::Uncertain::exact(15.0);
  p.p1db_in_dbm = stats::Uncertain::exact(0.0);
  Amplifier amp(p);
  stats::Rng rng(1);
  // Drive 10 dB past the compression point: output must clip at vsat.
  const Signal out = amp.process(tone_signal(1e6, vpeak_from_dbm(10.0)), rng);
  const double vsat = vsat_from_p1db(vpeak_from_dbm(0.0), amplitude_ratio_from_db(15.0));
  double peak = 0.0;
  for (double v : out.samples) peak = std::max(peak, std::abs(v));
  EXPECT_NEAR(peak, vsat, 1e-9);
}

TEST(Amplifier, NoiseFigureSetsNoiseFloor) {
  AmpParams p = quiet_amp();
  p.gain_db = stats::Uncertain::exact(20.0);
  p.nf_db = stats::Uncertain::exact(10.0);
  Amplifier amp(p);
  stats::Rng rng(7);
  Signal silence;
  silence.fs = kFs;
  silence.samples.assign(kN, 0.0);
  const Signal out = amp.process(silence, rng);
  double power = 0.0;
  for (double v : out.samples) power += v * v;
  power /= static_cast<double>(out.size());
  const double expected =
      std::pow(noise_vrms_from_nf(10.0, kFs) * amplitude_ratio_from_db(20.0), 2.0);
  EXPECT_NEAR(power / expected, 1.0, 0.1);
}

TEST(Amplifier, SampledInstanceStaysWithinTolerance) {
  const AmpParams p;  // defaults carry tolerances
  stats::Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const Amplifier a = Amplifier::sampled(p, rng);
    EXPECT_GE(a.actual_gain_db(), p.gain_db.lower());
    EXPECT_LE(a.actual_gain_db(), p.gain_db.upper());
    EXPECT_GE(a.actual_nf_db(), 0.0);
  }
}

TEST(NoisyStages, ProcessIntoRejectsAliasedOutput) {
  // The noise is drawn into the output before the input is read, so an
  // in-place call would read its own deviates.
  const Amplifier amp{AmpParams{}};
  const Mixer mixer{MixerParams{}};
  stats::Rng rng(4);
  Signal rf = tone_signal(10.5e6, 1e-3);
  Signal lo_wave = LocalOscillator(LoParams{}).generate(kFs, kN, rng);
  EXPECT_THROW(amp.process_into(rf, rng, rf), std::invalid_argument);
  EXPECT_THROW(mixer.process_into(rf, lo_wave, rng, rf), std::invalid_argument);
  EXPECT_THROW(mixer.process_into(rf, lo_wave, rng, lo_wave), std::invalid_argument);
  Signal out;
  EXPECT_NO_THROW(mixer.process_into(rf, lo_wave, rng, out));
}

TEST(LocalOscillator, FrequencyErrorShiftsOutput) {
  LoParams p;
  p.freq_hz = 10e6;
  p.freq_error_ppm = stats::Uncertain::exact(50.0);
  p.phase_noise_rad = stats::Uncertain::exact(0.0);
  const LocalOscillator lo(p);
  EXPECT_NEAR(lo.actual_freq_hz(), 10e6 * (1.0 + 50e-6), 1e-3);
  stats::Rng rng(1);
  const Signal wave = lo.generate(kFs, kN, rng);
  const double measured = dsp::estimate_tone_frequency(wave.samples, kFs, 10e6);
  EXPECT_NEAR(measured, lo.actual_freq_hz(), 5.0);
}

TEST(LocalOscillator, PhaseNoiseBroadensTone) {
  LoParams clean;
  clean.phase_noise_rad = stats::Uncertain::exact(0.0);
  LoParams noisy;
  noisy.phase_noise_rad = stats::Uncertain::exact(5e-3);
  stats::Rng r1(1), r2(1);
  const Signal wc = LocalOscillator(clean).generate(kFs, kN, r1);
  const Signal wn = LocalOscillator(noisy).generate(kFs, kN, r2);
  dsp::AnalysisOptions ao;
  ao.fundamentals = {10e6};
  const auto rep_c = dsp::analyze_spectrum(
      dsp::Spectrum(wc.samples, kFs, dsp::WindowType::kBlackmanHarris4), ao);
  const auto rep_n = dsp::analyze_spectrum(
      dsp::Spectrum(wn.samples, kFs, dsp::WindowType::kBlackmanHarris4), ao);
  EXPECT_GT(rep_c.snr_db, rep_n.snr_db + 20.0);
}

TEST(Mixer, DownconvertsWithSpecifiedGain) {
  MixerParams p;
  p.conv_gain_db = stats::Uncertain::exact(10.0);
  p.nf_db = stats::Uncertain::exact(0.0);
  p.iip3_dbm = stats::Uncertain::exact(40.0);
  p.lo_isolation_db = stats::Uncertain::exact(120.0);
  const Mixer mixer(p);
  LoParams lp;
  lp.phase_noise_rad = stats::Uncertain::exact(0.0);
  const LocalOscillator lo(lp);
  stats::Rng rng(1);
  const double f_if = dsp::coherent_frequency(kFs, kN, 700e3);
  const Signal rf = tone_signal(10e6 + f_if, 1e-3);
  const Signal lo_wave = lo.generate(kFs, kN, rng);
  const Signal out = mixer.process(rf, lo_wave, rng);
  EXPECT_NEAR(db_from_amplitude_ratio(tone_amp(out, f_if) / 1e-3), 10.0, 0.1);
  // Up-converted image sits at 2*f_lo + f_if with the same level.
  EXPECT_NEAR(db_from_amplitude_ratio(tone_amp(out, 20e6 + f_if) / 1e-3), 10.0, 0.1);
}

TEST(Mixer, LoFeedthroughMatchesIsolation) {
  MixerParams p;
  p.nf_db = stats::Uncertain::exact(0.0);
  p.lo_isolation_db = stats::Uncertain::exact(40.0);
  const Mixer mixer(p);
  LoParams lp;
  lp.phase_noise_rad = stats::Uncertain::exact(0.0);
  const LocalOscillator lo(lp);
  stats::Rng rng(1);
  Signal rf;
  rf.fs = kFs;
  rf.samples.assign(kN, 0.0);
  const Signal lo_wave = lo.generate(kFs, kN, rng);
  const Signal out = mixer.process(rf, lo_wave, rng);
  // LO amplitude is 1 V; -40 dB isolation leaks 10 mV at 10 MHz.
  EXPECT_NEAR(db_from_amplitude_ratio(tone_amp(out, 10e6) / 1.0), -40.0, 0.3);
}

TEST(LowPassFilter, PassbandAndCutoff) {
  LpfParams p;
  p.cutoff_hz = stats::Uncertain::exact(1e6);
  p.clock_spur_v = stats::Uncertain::exact(0.0);
  const LowPassFilter lpf(p);
  // Magnitude response: ~1 deep in the pass-band, -3 dB at fc, steep after.
  EXPECT_NEAR(db_from_amplitude_ratio(lpf.magnitude_at(50e3, kFs)), 0.0, 0.1);
  EXPECT_NEAR(db_from_amplitude_ratio(lpf.magnitude_at(1e6, kFs)), -3.0, 0.35);
  EXPECT_LT(db_from_amplitude_ratio(lpf.magnitude_at(4e6, kFs)), -40.0);

  // Transient agreement with the magnitude response.
  const double f = dsp::coherent_frequency(kFs, kN, 500e3);
  const Signal out = lpf.process(tone_signal(f, 0.1));
  EXPECT_NEAR(tone_amp(out, f) / 0.1, lpf.magnitude_at(f, kFs), 0.01);
}

TEST(LowPassFilter, ClockSpurInjected) {
  LpfParams p;
  p.clock_hz = 6.4e6;
  p.clock_spur_v = stats::Uncertain::exact(1e-3);
  const LowPassFilter lpf(p);
  const Signal out = lpf.process(tone_signal(100e3, 0.01));
  EXPECT_NEAR(tone_amp(out, 6.4e6), 1e-3, 1e-4);
}

TEST(Adc, IdealConverterReachesExpectedEnob) {
  AdcParams p;
  p.inl_peak_lsb = stats::Uncertain::exact(0.0);
  p.dnl_sigma_lsb = stats::Uncertain::exact(0.0);
  const Adc adc(p);
  const double f = dsp::coherent_frequency(kFs / 8.0, kN / 8, 300e3);
  const Signal in = tone_signal(f, 0.9 * p.vref);
  const auto codes = adc.digitize(in, 8);
  std::vector<double> volts;
  for (auto c : codes) volts.push_back(static_cast<double>(c) * adc.lsb());
  dsp::AnalysisOptions ao;
  ao.fundamentals = {f};
  const auto rep = dsp::analyze_spectrum(
      dsp::Spectrum(volts, kFs / 8.0, dsp::WindowType::kBlackmanHarris4), ao);
  EXPECT_GT(rep.enob, 11.0);
  EXPECT_LT(rep.enob, 12.3);
}

TEST(Adc, OffsetErrorShiftsCodes) {
  AdcParams p;
  p.inl_peak_lsb = stats::Uncertain::exact(0.0);
  p.dnl_sigma_lsb = stats::Uncertain::exact(0.0);
  p.offset_error_v = stats::Uncertain::exact(10e-3);
  const Adc adc(p);
  Signal zero;
  zero.fs = kFs;
  zero.samples.assign(64, 0.0);
  const auto codes = adc.digitize(zero, 1);
  const auto expected = std::llround(10e-3 / adc.lsb());
  for (auto c : codes) EXPECT_EQ(c, expected);
}

TEST(Adc, InlCreatesDistortion) {
  AdcParams clean;
  clean.inl_peak_lsb = stats::Uncertain::exact(0.0);
  clean.dnl_sigma_lsb = stats::Uncertain::exact(0.0);
  AdcParams bowed = clean;
  bowed.inl_peak_lsb = stats::Uncertain::exact(4.0);
  const double f = dsp::coherent_frequency(kFs / 8.0, kN / 8, 300e3);
  const Signal in = tone_signal(f, 0.9 * 1.0);
  auto sinad_of = [&](const Adc& adc) {
    const auto codes = adc.digitize(in, 8);
    std::vector<double> volts;
    for (auto c : codes) volts.push_back(static_cast<double>(c) * adc.lsb());
    dsp::AnalysisOptions ao;
    ao.fundamentals = {f};
    return dsp::analyze_spectrum(
               dsp::Spectrum(volts, kFs / 8.0, dsp::WindowType::kBlackmanHarris4), ao)
        .sinad_db;
  };
  EXPECT_GT(sinad_of(Adc(clean)), sinad_of(Adc(bowed)) + 6.0);
}

TEST(Adc, ClampsBeyondFullScale) {
  AdcParams p;
  const Adc adc(p);
  Signal big;
  big.fs = kFs;
  // Far beyond the range of llround too: the rail is taken before rounding.
  big.samples = {10.0, -10.0, 1e300, -1e300, std::numeric_limits<double>::max()};
  const auto codes = adc.digitize(big, 1);
  const std::int64_t top = (1ll << (p.bits - 1)) - 1;
  const std::int64_t bottom = -(1ll << (p.bits - 1));
  EXPECT_EQ(codes, (std::vector<std::int64_t>{top, bottom, top, bottom, top}));
}

TEST(Adc, RejectsNonFiniteInput) {
  const Adc adc{AdcParams{}};
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Signal in;
    in.fs = kFs;
    in.samples = {0.1, bad};
    EXPECT_THROW((void)adc.digitize(in, 1), std::invalid_argument) << bad;
  }
  EXPECT_THROW((void)adc.inl_at(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  // A NaN parameter passes construction but cannot be digitized.
  AdcParams nan_offset;
  nan_offset.offset_error_v =
      stats::Uncertain::exact(std::numeric_limits<double>::quiet_NaN());
  Signal zero;
  zero.fs = kFs;
  zero.samples.assign(4, 0.0);
  EXPECT_THROW((void)Adc(nan_offset).digitize(zero, 1), std::invalid_argument);
}

TEST(Adc, RejectsBadConfig) {
  AdcParams p;
  p.bits = 2;
  EXPECT_THROW(Adc{p}, std::invalid_argument);
  AdcParams q;
  q.vref = -1.0;
  EXPECT_THROW(Adc{q}, std::invalid_argument);
}

TEST(NoiseHelpers, ScaleWithBandAndNf) {
  EXPECT_NEAR(noise_vrms_from_nf(0.0, kFs), 0.0, 1e-15);
  EXPECT_GT(noise_vrms_from_nf(6.0, kFs), noise_vrms_from_nf(3.0, kFs));
  EXPECT_NEAR(noise_vrms_from_nf(3.0, 4.0 * kFs) / noise_vrms_from_nf(3.0, kFs), 2.0,
              1e-9);
  EXPECT_GT(source_noise_vrms(kFs), 0.0);
  EXPECT_THROW(noise_vrms_from_nf(-1.0, kFs), std::invalid_argument);
}

TEST(AdcBow, SharedAcrossThreadsMatchesPerCodeConstruction) {
  // The INL bow is computed once per resolution and shared. Four threads
  // build converters of several resolutions at once (in different orders,
  // so first builds race); every table must equal the per-code
  // construction: walk += dnl * normal() / sqrt(codes), bow + walk, then
  // re-centred. Resolutions no other test in this binary builds.
  const int resolutions[] = {5, 7, 9, 11, 13};
  AdcParams params;
  auto expected = [&](int bits) {
    const std::size_t codes = std::size_t{1} << bits;
    stats::Rng pattern(12345);  // the nominal instance's pattern seed
    std::vector<double> t(codes);
    double walk = 0.0;
    for (std::size_t c = 0; c < codes; ++c) {
      const double u =
          2.0 * static_cast<double>(c) / static_cast<double>(codes - 1) - 1.0;
      walk += params.dnl_sigma_lsb.nominal * pattern.normal() /
              std::sqrt(static_cast<double>(codes));
      t[c] = params.inl_peak_lsb.nominal * std::sin(kPi * u) + walk;
    }
    double mean = 0.0;
    for (double v : t) mean += v;
    mean /= static_cast<double>(codes);
    for (double& v : t) v -= mean;
    return t;
  };
  // Code c's INL, read at a position that lands mid-code.
  auto table_of = [](const Adc& adc) {
    const std::size_t codes = std::size_t{1} << adc.bits();
    std::vector<double> t(codes);
    for (std::size_t c = 0; c < codes; ++c) {
      const double u = c + 1 < codes ? (2.0 * static_cast<double>(c) + 1.0) /
                                               static_cast<double>(codes - 1) -
                                           1.0
                                     : 1.0;
      t[c] = adc.inl_at(u);
    }
    return t;
  };
  std::vector<std::vector<std::vector<double>>> built(4);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < 4; ++k) {
    threads.emplace_back([&, k] {
      for (std::size_t i = 0; i < 5; ++i) {
        AdcParams p = params;
        p.bits = resolutions[(i + k) % 5];
        built[k].push_back(table_of(Adc(p)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t i = 0; i < 5; ++i) {
      const int bits = resolutions[(i + k) % 5];
      const std::vector<double> want = expected(bits);
      ASSERT_EQ(built[k][i].size(), want.size());
      for (std::size_t c = 0; c < want.size(); ++c) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(built[k][i][c]),
                  std::bit_cast<std::uint64_t>(want[c]))
            << bits << " bits, code " << c << ", thread " << k;
      }
    }
  }
}

}  // namespace
}  // namespace msts::analog
