#include "core/translation.h"

#include <cmath>
#include <utility>
#include <vector>

#include "base/require.h"
#include "base/units.h"
#include "dsp/tonegen.h"

namespace msts::core {

using stats::Uncertain;

std::string to_string(TranslationMethod m) {
  switch (m) {
    case TranslationMethod::kComposition: return "composition";
    case TranslationMethod::kPropagation: return "propagation";
    case TranslationMethod::kDirectDft: return "DFT required";
  }
  return "?";
}

namespace {

/// Residual error of a composed path-gain measurement (repeatability floor:
/// noise, windowing, record length). Determined empirically in the tests;
/// small compared to any block tolerance.
Uncertain measurement_floor_db() { return Uncertain(0.0, 0.05, 0.02); }

}  // namespace

Translator::Translator(const path::PathGraphConfig& graph)
    : model_(graph),
      amp_idx_(model_.graph().index_of(path::BlockKind::kAmp)),
      mixer_idx_(model_.graph().index_of(path::BlockKind::kMixer)),
      lpf_idx_(model_.graph().index_of(path::BlockKind::kLpf)) {}

double Translator::pre_mixer_gain_db() const {
  MSTS_REQUIRE(mixer_idx_.has_value(), "analysis needs a mixer block");
  double g = 0.0;
  for (std::size_t i = 0; i < *mixer_idx_; ++i) {
    if (graph().blocks[i].kind == path::BlockKind::kAmp) {
      g += graph().blocks[i].amp.gain_db.nominal;
    }
  }
  return g;
}

double Translator::lo_freq() const {
  return mixer_idx_ ? graph().blocks[*mixer_idx_].lo.freq_hz : 0.0;
}

double Translator::test_if_freq(const path::MeasureOptions& opts) const {
  MSTS_REQUIRE(lpf_idx_.has_value(), "stimulus placement needs an LPF block");
  return dsp::coherent_frequency(
      graph().digital_fs(), opts.digital_record,
      0.4 * graph().blocks[*lpf_idx_].lpf.cutoff_hz.nominal);
}

std::pair<double, double> Translator::test_two_tone(
    const path::MeasureOptions& opts) const {
  MSTS_REQUIRE(lpf_idx_.has_value(), "stimulus placement needs an LPF block");
  // Both tones in the LPF and FIR pass-band, placed so their IM3 products
  // stay in-band and off the fundamental bins.
  const double fs_d = graph().digital_fs();
  const double cutoff = graph().blocks[*lpf_idx_].lpf.cutoff_hz.nominal;
  const auto tones = dsp::place_test_tones(fs_d, opts.digital_record,
                                           0.25 * cutoff, 0.55 * cutoff, 2);
  return {tones[0], tones[1]};
}

double Translator::linear_drive_vpeak() const {
  // 15 dB below the path's compression-limited region: the mixer P1dB
  // referred to the primary input, minus margin.
  MSTS_REQUIRE(mixer_idx_.has_value(), "drive-level choice needs a mixer block");
  const double p1db_pi_dbm =
      graph().blocks[*mixer_idx_].mixer.p1db_in_dbm.nominal - pre_mixer_gain_db();
  return vpeak_from_dbm(p1db_pi_dbm - 15.0);
}

// ---------------------------------------------------------------------------
// Static analyses
// ---------------------------------------------------------------------------

TranslationAnalysis Translator::analyze_path_gain() const {
  TranslationAnalysis a;
  a.method = TranslationMethod::kComposition;
  a.error = measurement_floor_db();
  a.formula = "G_path = A_out(PO) / A_in(PI); composed over amp+mixer+lpf+adc";
  return a;
}

TranslationAnalysis Translator::analyze_mixer_iip3(bool adaptive) const {
  TranslationAnalysis a;
  a.method = TranslationMethod::kPropagation;
  MSTS_REQUIRE(mixer_idx_.has_value(), "mixer analysis needs a mixer block");
  const double f_rf = lo_freq() + test_if_freq();
  if (adaptive) {
    // IIP3 = X + (X - Y)/2 - G_path + G_A: the only tolerance left is G_A
    // (plus the path-gain measurement floor). Fig. 4b.
    const Uncertain g_a = model_.gain_db_to(*mixer_idx_, f_rf);
    a.error = Uncertain(0.0, g_a.wc, g_a.sigma) + measurement_floor_db();
    a.formula = "IIP3 = X + (X-Y)/2 - G_path(measured) + G_A(nominal)";
  } else {
    // IIP3 = X + (X - Y)/2 - (G_M + G_B) at nominal gains. Fig. 4a, no
    // access: the mixer and every block after it contribute tolerance.
    const Uncertain g_mb = model_.gain_db_from(*mixer_idx_, f_rf);
    a.error = Uncertain(0.0, g_mb.wc, g_mb.sigma);
    a.formula = "IIP3 = X + (X-Y)/2 - (G_M + G_B)(nominal)";
  }
  return a;
}

TranslationAnalysis Translator::analyze_mixer_p1db() const {
  TranslationAnalysis a;
  a.method = TranslationMethod::kPropagation;
  MSTS_REQUIRE(mixer_idx_.has_value(), "mixer analysis needs a mixer block");
  const double f_rf = lo_freq() + test_if_freq();
  const Uncertain g_a = model_.gain_db_to(*mixer_idx_, f_rf);
  a.error = Uncertain(0.0, g_a.wc, g_a.sigma) + measurement_floor_db();
  a.formula = "P1dB(mixer,in) = P1dB(path,PI measured) + G_A(nominal)";
  return a;
}

TranslationAnalysis Translator::analyze_lpf_cutoff() const {
  TranslationAnalysis a;
  a.method = TranslationMethod::kPropagation;
  MSTS_REQUIRE(lpf_idx_.has_value(), "cutoff analysis needs an LPF block");
  // The -3 dB crossing moves by (flatness error) / (response slope at fc).
  const analog::LpfParams& lpf = graph().blocks[*lpf_idx_].lpf;
  const double fc = lpf.cutoff_hz.nominal;
  const analog::LpfResponse nominal(fc, lpf.passband_gain_db.nominal, lpf.order,
                                    graph().analog_fs);
  const double df = fc * 1e-3;
  const double slope_db_per_hz =
      (db_from_amplitude_ratio(nominal.magnitude_at(fc + df)) -
       db_from_amplitude_ratio(nominal.magnitude_at(fc - df))) /
      (2.0 * df);
  MSTS_REQUIRE(slope_db_per_hz < 0.0, "filter response must fall at the cutoff");
  const double hz_per_db = 1.0 / std::abs(slope_db_per_hz);
  const Uncertain flat = graph().analog_flatness_db + measurement_floor_db();
  a.error = Uncertain(0.0, flat.wc * hz_per_db, flat.sigma * hz_per_db);
  a.formula = "f_c from -3 dB crossing of G(f)/G(f_ref); FIR response divided out";
  return a;
}

TranslationAnalysis Translator::analyze_lo_freq_error() const {
  TranslationAnalysis a;
  a.method = TranslationMethod::kPropagation;
  // Phase-slope frequency estimation: the error floor is set by phase noise
  // over the record, far below the 10 ppm tolerance. Budget 0.5 ppm.
  a.error = Uncertain(0.0, 0.5, 0.17);
  a.formula = "f_LO = f_RF(known) - f_out(estimated); error in ppm";
  return a;
}

SignalAttributes Translator::linear_probe_response() const {
  const SignalAttributes probe = make_stimulus(
      graph().analog_fs,
      {ToneAttr{Uncertain::exact(lo_freq() + test_if_freq()),
                Uncertain::exact(linear_drive_vpeak()), Uncertain::exact(0.0)}});
  return model_.forward(probe);
}

TranslationAnalysis Translator::analyze_mixer_lo_isolation() const {
  MSTS_REQUIRE(mixer_idx_.has_value(), "mixer analysis needs a mixer block");
  return analyze_mixer_lo_isolation(linear_probe_response());
}

TranslationAnalysis Translator::analyze_mixer_lo_isolation(
    const SignalAttributes& out) const {
  TranslationAnalysis a;
  // Propagate the feedthrough spur to the output and compare with the
  // minimum detectable level there.
  MSTS_REQUIRE(mixer_idx_.has_value(), "mixer analysis needs a mixer block");
  double feedthrough = 0.0;
  for (const SpurAttr& s : out.spurs) {
    if (s.origin == "mixer.LO-feedthrough") {
      feedthrough = std::max(feedthrough, s.amplitude.nominal);
    }
  }
  const double min_det = out.min_detectable_amplitude(10.0, 2048);
  if (feedthrough < min_det) {
    a.method = TranslationMethod::kDirectDft;
    a.translatable = false;
    a.formula = "LO feedthrough is filtered below the PO noise floor (" +
                std::to_string(feedthrough * 1e9) + " nV < " +
                std::to_string(min_det * 1e9) + " nV): untranslatable";
  } else {
    const analog::MixerParams& mixer = graph().blocks[*mixer_idx_].mixer;
    a.method = TranslationMethod::kPropagation;
    a.error = Uncertain(0.0, mixer.conv_gain_db.wc, mixer.conv_gain_db.sigma);
    a.formula = "isolation = LO level - feedthrough at PO + G_B";
  }
  return a;
}

TranslationAnalysis Translator::analyze_amp_offset() const {
  TranslationAnalysis a;
  // A multiplying mixer up-converts DC, so an amp offset cannot reach the
  // PO: inject a large probe offset and confirm the propagated output DC is
  // insensitive to it (it carries only the ADC offset).
  MSTS_REQUIRE(amp_idx_.has_value(), "amp analysis needs an amplifier block");
  SignalAttributes probe_zero = make_stimulus(graph().analog_fs, {});
  SignalAttributes probe_big = probe_zero;
  probe_big.dc =
      Uncertain::exact(graph().blocks[*amp_idx_].amp.dc_offset_v.upper() + 10e-3);
  const double dc_zero = model_.forward(probe_zero).dc.nominal;
  const double dc_big = model_.forward(probe_big).dc.nominal;
  MSTS_REQUIRE(std::abs(dc_big - dc_zero) < 1e-9,
               "output DC unexpectedly depends on the input offset");
  a.method = TranslationMethod::kDirectDft;
  a.translatable = false;
  a.formula = "amp DC offset is blocked by the mixer (heterodyne path): "
              "untranslatable without a test point";
  return a;
}

TranslationAnalysis Translator::analyze_amp_hd3() const {
  MSTS_REQUIRE(amp_idx_.has_value(), "amp analysis needs an amplifier block");
  return analyze_amp_hd3(linear_probe_response());
}

TranslationAnalysis Translator::analyze_amp_hd3(const SignalAttributes& out) const {
  TranslationAnalysis a;
  // HD3 of the RF tone sits at 3*f_rf; after down-conversion it is at
  // |3 f_rf - f_lo| ≈ 2 f_lo, far outside the LPF. Verify via propagation.
  MSTS_REQUIRE(amp_idx_.has_value(), "amp analysis needs an amplifier block");
  double hd3_at_po = 0.0;
  for (const SpurAttr& s : out.spurs) {
    if (s.origin == "amp.HD3") hd3_at_po = std::max(hd3_at_po, s.amplitude.nominal);
  }
  const double min_det = out.min_detectable_amplitude(10.0, 2048);
  if (hd3_at_po < min_det) {
    a.method = TranslationMethod::kDirectDft;
    a.translatable = false;
    a.formula = "amp HD3 falls outside the LPF after down-conversion: "
                "untranslatable; covered indirectly by the path IIP3 test";
  } else {
    const analog::AmpParams& amp = graph().blocks[*amp_idx_].amp;
    a.method = TranslationMethod::kPropagation;
    a.error = Uncertain(0.0, amp.gain_db.wc, amp.gain_db.sigma);
    a.formula = "HD3 measured at PO corrected by G_path";
  }
  return a;
}

TranslationAnalysis Translator::analyze_adc_offset() const {
  TranslationAnalysis a;
  a.method = TranslationMethod::kComposition;
  // The ADC is the only DC source reaching the PO, so the composed output DC
  // *is* the ADC offset; the error is the measurement floor only.
  a.error = Uncertain(0.0, 0.2e-3, 0.07e-3);  // volts
  a.formula = "offset(ADC) = DC(PO) / H_fir(0); other DC sources blocked by mixer";
  return a;
}

TranslationAnalysis Translator::analyze_path_nf() const {
  TranslationAnalysis a;
  a.method = TranslationMethod::kComposition;
  // SNR at the PO with a known stimulus gives the composed noise figure;
  // apportioning it to blocks is impossible without test points, which is
  // exactly why the paper composes it. Error: gain tolerances entering the
  // input-referral of the measured noise.
  const double f_rf = lo_freq() + test_if_freq();
  const Uncertain g = model_.path_gain_db(f_rf);
  a.error = Uncertain(0.0, g.wc, g.sigma) + measurement_floor_db();
  a.formula = "NF_path from SNR(PO) with known input level, referred by G_path";
  return a;
}

// ---------------------------------------------------------------------------
// Executed measurements
// ---------------------------------------------------------------------------

double Translator::measure_path_gain_db(const path::PathGraph& p, stats::Rng& rng,
                                        const path::MeasureOptions& opts) const {
  return path::measure_path_gain_db(p, test_if_freq(opts), linear_drive_vpeak(), rng,
                                    opts);
}

namespace {

// IIP3 (dBm, input-referred at the mixer) from an output two-tone response
// and the dB gain between the mixer input and the primary output.
double iip3_from_response(const path::TwoToneResponse& resp,
                          double g_after_mixer_db) {
  const double x_dbm =
      dbm_from_vpeak(std::sqrt(2.0 * power_ratio_from_db(resp.fund_power_db)));
  const double y_dbm =
      dbm_from_vpeak(std::sqrt(2.0 * power_ratio_from_db(resp.im3_power_db)));
  return x_dbm + (x_dbm - y_dbm) / 2.0 - g_after_mixer_db;
}

}  // namespace

double Translator::mixer_iip3_from(const path::TwoToneResponse& resp,
                                   std::optional<double> path_gain_db) const {
  const double f_rf = lo_freq() + 0.5 * (resp.f1 + resp.f2);
  if (path_gain_db) {
    return iip3_from_response(
        resp, *path_gain_db - model_.gain_db_to(*mixer_idx_, f_rf).nominal);
  }
  return iip3_from_response(resp, model_.gain_db_from(*mixer_idx_, f_rf).nominal);
}

double Translator::measure_mixer_iip3_dbm(const path::PathGraph& p, stats::Rng& rng,
                                          bool adaptive,
                                          const path::MeasureOptions& opts) const {
  if (adaptive) {
    return measure_mixer_iip3_dbm_with_gain(p, rng, measure_path_gain_db(p, rng, opts),
                                            opts);
  }
  const auto [f1, f2] = test_two_tone(opts);
  return mixer_iip3_from(
      path::measure_two_tone(p, f1, f2, linear_drive_vpeak(), rng, opts), std::nullopt);
}

void Translator::measure_mixer_iip3_dbm(std::span<const path::PathGraph* const> paths,
                                        std::span<stats::Rng* const> rngs, bool adaptive,
                                        std::span<double> out,
                                        const path::MeasureOptions& opts) const {
  MSTS_REQUIRE(out.size() == paths.size(), "one result per path");
  const auto [f1, f2] = test_two_tone(opts);
  // Each device's stream draws its gain transient, then its two-tone one,
  // as the one-device form does; `out` holds the gains in between.
  if (adaptive) {
    path::measure_path_gain_db(paths, test_if_freq(opts), linear_drive_vpeak(), rngs,
                               out, opts);
  }
  std::vector<path::TwoToneResponse> resp(paths.size());
  path::measure_two_tone(paths, f1, f2, linear_drive_vpeak(), rngs, resp, opts);
  for (std::size_t l = 0; l < paths.size(); ++l) {
    out[l] = mixer_iip3_from(resp[l], adaptive ? std::optional(out[l]) : std::nullopt);
  }
}

double Translator::measure_mixer_iip3_dbm_with_gain(
    const path::PathGraph& p, stats::Rng& rng, double path_gain_db,
    const path::MeasureOptions& opts) const {
  const auto [f1, f2] = test_two_tone(opts);
  return mixer_iip3_from(
      path::measure_two_tone(p, f1, f2, linear_drive_vpeak(), rng, opts), path_gain_db);
}

double Translator::measure_mixer_p1db_dbm(const path::PathGraph& p, stats::Rng& rng,
                                          const path::MeasureOptions& opts) const {
  const double f_rf = lo_freq() + test_if_freq(opts);
  const double p1db_pi =
      path::measure_path_p1db_dbm(p, test_if_freq(opts), rng, opts);
  const double g_a = model_.gain_db_to(*mixer_idx_, f_rf).nominal;
  return p1db_pi + g_a;
}

double Translator::measure_lpf_cutoff_hz(const path::PathGraph& p, stats::Rng& rng,
                                         const path::MeasureOptions& opts) const {
  return path::measure_path_cutoff_hz(p, linear_drive_vpeak(), rng, opts);
}

double Translator::measure_lo_freq_error_ppm(const path::PathGraph& p,
                                             stats::Rng& rng,
                                             const path::MeasureOptions& opts) const {
  return path::measure_lo_freq_error_ppm(p, test_if_freq(opts), linear_drive_vpeak(),
                                         rng, opts);
}

}  // namespace msts::core
