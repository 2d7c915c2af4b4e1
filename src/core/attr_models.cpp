#include "core/attr_models.h"

#include <cmath>
#include <cstdint>

#include "analog/amp.h"
#include "analog/lpf.h"
#include "analog/noise.h"
#include "base/require.h"
#include "base/units.h"
#include "dsp/fir_design.h"
#include "dsp/metrics.h"
#include "obs/registry.h"
#include "stats/uncertain.h"

namespace msts::core {

namespace {

using stats::Uncertain;

// Toleranced linear gain from a toleranced dB gain.
Uncertain lin_gain(const Uncertain& db) { return stats::db_to_linear_amplitude(db); }

// Counts every single-block propagation step of every PathAttrModel loop,
// so the work a synthesis does reads as an exact number on any host.
constexpr const char* kBlockForwards = "core.attr.block_forwards";

// Noise power after a gain stage that also adds input-referred noise vn
// (V rms): (noise_in + vn^2) * g^2.
Uncertain amplify_noise(const Uncertain& noise_in, double vn, const Uncertain& g_lin) {
  const Uncertain g2 = stats::multiply(g_lin, g_lin);
  return stats::multiply(noise_in + Uncertain::exact(vn * vn), g2);
}

}  // namespace

// --------------------------------------------------------------------------
// Amplifier
// --------------------------------------------------------------------------

AmpAttrModel::AmpAttrModel(const analog::AmpParams& params) : p_(params) {}

SignalAttributes AmpAttrModel::forward(const SignalAttributes& in) const {
  SignalAttributes out;
  out.fs = in.fs;

  const Uncertain g = lin_gain(p_.gain_db);
  const double c3 = analog::c3_from_iip3(vpeak_from_dbm(p_.iip3_dbm.nominal));
  const double c2 = analog::c2_from_iip2(vpeak_from_dbm(p_.iip2_dbm.nominal));

  for (const ToneAttr& t : in.tones) {
    ToneAttr o = t;
    o.amplitude = stats::multiply(t.amplitude, g);
    out.tones.push_back(o);
  }

  // Harmonic spurs of each tone and IM3 of each pair (memoryless cubic).
  for (const ToneAttr& t : in.tones) {
    const double a = t.amplitude.nominal;
    SpurAttr hd2;
    hd2.freq = 2.0 * t.freq.nominal;
    hd2.amplitude = stats::multiply(Uncertain::exact(c2 * a * a / 2.0), g);
    hd2.origin = "amp.HD2";
    out.spurs.push_back(hd2);
    SpurAttr hd3;
    hd3.freq = 3.0 * t.freq.nominal;
    hd3.amplitude = stats::multiply(Uncertain::exact(std::abs(c3) * a * a * a / 4.0), g);
    hd3.origin = "amp.HD3";
    out.spurs.push_back(hd3);
  }
  for (std::size_t i = 0; i < in.tones.size(); ++i) {
    for (std::size_t j = 0; j < in.tones.size(); ++j) {
      if (i == j) continue;
      const double ai = in.tones[i].amplitude.nominal;
      const double aj = in.tones[j].amplitude.nominal;
      SpurAttr im;
      im.freq = std::abs(2.0 * in.tones[i].freq.nominal - in.tones[j].freq.nominal);
      im.amplitude =
          stats::multiply(Uncertain::exact(0.75 * std::abs(c3) * ai * ai * aj), g);
      im.origin = "amp.IM3";
      out.spurs.push_back(im);
    }
  }

  // Existing spurs pass through the gain.
  for (const SpurAttr& s : in.spurs) {
    SpurAttr o = s;
    o.amplitude = stats::multiply(s.amplitude, g);
    out.spurs.push_back(o);
  }

  out.dc = stats::multiply(in.dc, g) + p_.dc_offset_v;
  out.noise_power = amplify_noise(in.noise_power,
                                  analog::noise_vrms_from_nf(p_.nf_db.nominal, in.fs), g);
  return out;
}

// --------------------------------------------------------------------------
// Mixer
// --------------------------------------------------------------------------

MixerAttrModel::MixerAttrModel(const analog::MixerParams& params,
                               const analog::LoParams& lo)
    : p_(params), lo_(lo) {}

SignalAttributes MixerAttrModel::forward(const SignalAttributes& in) const {
  SignalAttributes out;
  out.fs = in.fs;

  const Uncertain g = lin_gain(p_.conv_gain_db);
  const double f_lo = lo_.freq_hz;
  // LO frequency uncertainty in Hz (worst case / sigma from the ppm spec).
  const Uncertain f_lo_err(0.0, f_lo * lo_.freq_error_ppm.wc * 1e-6,
                           f_lo * lo_.freq_error_ppm.sigma * 1e-6);

  // Multiplying by the LO transfers its phase-noise linewidth onto every
  // tone: a random-walk phase of per-sample sigma s at rate fs has a
  // Lorentzian linewidth s^2 * fs / (2 pi). Budget the worst-case sigma so
  // the detection mask stays conservative.
  const double s_wc = lo_.phase_noise_rad.upper();
  const double lo_linewidth = s_wc * s_wc * in.fs / kTwoPi;

  for (const ToneAttr& t : in.tones) {
    ToneAttr o = t;
    // Down-conversion: |f - f_lo|; the LO error adds to the frequency
    // uncertainty (the paper's controllability indeterminism).
    o.freq = Uncertain(std::abs(t.freq.nominal - f_lo), t.freq.wc + f_lo_err.wc,
                       std::hypot(t.freq.sigma, f_lo_err.sigma));
    o.amplitude = stats::multiply(t.amplitude, g);
    o.linewidth_hz = t.linewidth_hz + lo_linewidth;
    out.tones.push_back(o);
  }

  // RF-port IM3 of tone pairs lands near the down-converted tones.
  const double c3 = analog::c3_from_iip3(vpeak_from_dbm(p_.iip3_dbm.nominal));
  for (std::size_t i = 0; i < in.tones.size(); ++i) {
    for (std::size_t j = 0; j < in.tones.size(); ++j) {
      if (i == j) continue;
      const double ai = in.tones[i].amplitude.nominal;
      const double aj = in.tones[j].amplitude.nominal;
      SpurAttr im;
      im.freq = std::abs(
          std::abs(2.0 * in.tones[i].freq.nominal - in.tones[j].freq.nominal) - f_lo);
      im.amplitude =
          stats::multiply(Uncertain::exact(0.75 * std::abs(c3) * ai * ai * aj), g);
      im.origin = "mixer.IM3";
      out.spurs.push_back(im);
    }
  }

  // Existing spurs are down-converted too.
  for (const SpurAttr& s : in.spurs) {
    SpurAttr o = s;
    o.freq = std::abs(s.freq - f_lo);
    o.amplitude = stats::multiply(s.amplitude, g);
    out.spurs.push_back(o);
  }

  // LO feedthrough: isolation leakage plus the RF-port DC turned into an
  // f_lo tone by the multiplication.
  SpurAttr leak;
  leak.freq = f_lo;
  const Uncertain iso_lin = lin_gain(-1.0 * p_.lo_isolation_db);
  leak.amplitude = iso_lin * lo_.amplitude + stats::multiply(in.dc, g) * (1.0 / 2.0);
  leak.origin = "mixer.LO-feedthrough";
  out.spurs.push_back(leak);

  out.dc = Uncertain::exact(0.0);
  out.noise_power = amplify_noise(in.noise_power,
                                  analog::noise_vrms_from_nf(p_.nf_db.nominal, in.fs), g);
  return out;
}

// --------------------------------------------------------------------------
// Low-pass filter
// --------------------------------------------------------------------------

LpfAttrModel::LpfAttrModel(const analog::LpfParams& params, double fs)
    : p_(params),
      nominal_(p_.cutoff_hz.nominal, p_.passband_gain_db.nominal, p_.order, fs),
      cutoff_hi_(p_.cutoff_hz.nominal + p_.cutoff_hz.wc, p_.passband_gain_db.nominal,
                 p_.order, fs),
      cutoff_lo_(p_.cutoff_hz.nominal - p_.cutoff_hz.wc, p_.passband_gain_db.nominal,
                 p_.order, fs) {}

stats::Uncertain LpfAttrModel::gain_at(double f) const {
  const double h = nominal_.magnitude_at(f);

  // Sensitivity to the cutoff tolerance, evaluated numerically.
  const double h_hi = cutoff_hi_.magnitude_at(f);
  const double h_lo = cutoff_lo_.magnitude_at(f);
  const double wc_from_fc = std::max(std::abs(h_hi - h), std::abs(h_lo - h));

  // magnitude_at already includes the nominal pass-band gain; its tolerance
  // contributes a relative error of ln(10)/20 per dB on top of the cutoff
  // sensitivity.
  const double rel_per_db = std::log(10.0) / 20.0;
  const double wc_from_g = h * rel_per_db * p_.passband_gain_db.wc;
  const double sigma = std::hypot(wc_from_fc / 3.0, h * rel_per_db * p_.passband_gain_db.sigma);
  return Uncertain(h, wc_from_fc + wc_from_g, sigma);
}

SignalAttributes LpfAttrModel::forward(const SignalAttributes& in) const {
  MSTS_REQUIRE(in.fs == nominal_.fs(), "lpf model input must run at the model's rate");
  SignalAttributes out;
  out.fs = in.fs;

  for (const ToneAttr& t : in.tones) {
    ToneAttr o = t;
    o.amplitude = stats::multiply(t.amplitude, gain_at(t.freq.nominal));
    out.tones.push_back(o);
  }
  for (const SpurAttr& s : in.spurs) {
    SpurAttr o = s;
    o.amplitude = stats::multiply(s.amplitude, gain_at(s.freq));
    out.spurs.push_back(o);
  }

  SpurAttr clock;
  clock.freq = dsp::alias_frequency(p_.clock_hz, in.fs);
  clock.amplitude = p_.clock_spur_v;
  clock.origin = "lpf.clock";
  out.spurs.push_back(clock);

  const Uncertain g_dc = gain_at(0.0);
  out.dc = stats::multiply(in.dc, g_dc);

  // White noise through the filter: total power shrinks to the filter's
  // equivalent noise bandwidth over the input Nyquist band.
  const double enbw_ratio = 1.026 * p_.cutoff_hz.nominal / (in.fs / 2.0);
  const double g0 = g_dc.nominal;
  out.noise_power = in.noise_power * (g0 * g0 * std::min(1.0, enbw_ratio));
  return out;
}

// --------------------------------------------------------------------------
// ADC
// --------------------------------------------------------------------------

AdcAttrModel::AdcAttrModel(const analog::AdcParams& params, std::size_t decimation)
    : p_(params), decimation_(decimation) {
  MSTS_REQUIRE(decimation >= 1, "decimation must be >= 1");
}

SignalAttributes AdcAttrModel::forward(const SignalAttributes& in) const {
  SignalAttributes out;
  out.fs = in.fs / static_cast<double>(decimation_);

  // Gain error is a small multiplicative term around 1.
  const Uncertain g(1.0 + p_.gain_error.nominal, p_.gain_error.wc, p_.gain_error.sigma);

  for (const ToneAttr& t : in.tones) {
    ToneAttr o = t;
    o.freq = Uncertain(dsp::alias_frequency(t.freq.nominal, out.fs), t.freq.wc,
                       t.freq.sigma);
    o.amplitude = stats::multiply(t.amplitude, g);
    out.tones.push_back(o);
  }
  const double lsb = 2.0 * p_.vref / static_cast<double>(1ll << p_.bits);
  for (const SpurAttr& s : in.spurs) {
    SpurAttr o = s;
    o.freq = dsp::alias_frequency(s.freq, out.fs);
    o.amplitude = stats::multiply(s.amplitude, g);
    if (o.amplitude.nominal > lsb / 8.0) {
      out.spurs.push_back(o);  // spurs far below a fraction of an LSB vanish
    }
  }

  // INL bow creates odd-order distortion; estimated at inl * lsb scaled by
  // how much of the range the strongest tone exercises.
  double a_max = 0.0;
  for (const ToneAttr& t : in.tones) a_max = std::max(a_max, t.amplitude.nominal);
  if (a_max > 0.0) {
    SpurAttr hd3;
    const double strongest_f =
        in.tones.empty() ? 0.0 : in.tones.front().freq.nominal;
    hd3.freq = dsp::alias_frequency(3.0 * strongest_f, out.fs);
    const double swing = std::min(1.0, a_max / p_.vref);
    hd3.amplitude = Uncertain(p_.inl_peak_lsb.nominal * lsb * swing * swing,
                              p_.inl_peak_lsb.wc * lsb * swing * swing,
                              p_.inl_peak_lsb.sigma * lsb * swing * swing);
    hd3.origin = "adc.INL-HD3";
    out.spurs.push_back(hd3);
  }

  out.dc = in.dc + p_.offset_error_v;

  // Decimation folds the full input noise band into the output band, and
  // quantisation plus DNL add (lsb^2/12 each scaled appropriately).
  const double q_noise = lsb * lsb / 12.0;
  const double dnl_noise =
      p_.dnl_sigma_lsb.nominal * p_.dnl_sigma_lsb.nominal * lsb * lsb / 12.0;
  out.noise_power = in.noise_power + Uncertain::exact(q_noise + dnl_noise);
  return out;
}

// --------------------------------------------------------------------------
// Digital FIR
// --------------------------------------------------------------------------

FirAttrModel::FirAttrModel(std::vector<std::int32_t> coeffs, int frac_bits)
    : coeffs_(std::move(coeffs)), frac_bits_(frac_bits) {
  MSTS_REQUIRE(!coeffs_.empty(), "FIR model needs coefficients");
}

double FirAttrModel::magnitude_at(double f, double fs) const {
  return std::abs(dsp::frequency_response_fixed(coeffs_, frac_bits_, f / fs));
}

SignalAttributes FirAttrModel::forward(const SignalAttributes& in) const {
  SignalAttributes out;
  out.fs = in.fs;

  for (const ToneAttr& t : in.tones) {
    ToneAttr o = t;
    // Exactly known response: scales the nominal and both uncertainties.
    o.amplitude = t.amplitude * magnitude_at(t.freq.nominal, in.fs);
    out.tones.push_back(o);
  }
  for (const SpurAttr& s : in.spurs) {
    SpurAttr o = s;
    o.amplitude = s.amplitude * magnitude_at(s.freq, in.fs);
    out.spurs.push_back(o);
  }
  out.dc = in.dc * magnitude_at(0.0, in.fs);

  // White-noise power gain of an FIR is sum(h^2).
  double h2 = 0.0;
  const double scale = 1.0 / static_cast<double>(1 << frac_bits_);
  for (std::int32_t c : coeffs_) {
    const double h = static_cast<double>(c) * scale;
    h2 += h * h;
  }
  out.noise_power = in.noise_power * h2;
  return out;
}

// --------------------------------------------------------------------------
// Path cascade
// --------------------------------------------------------------------------

PathAttrModel::PathAttrModel(const path::PathGraphConfig& graph) : graph_(graph) {
  path::validate(graph_);
  for (const path::BlockConfig& b : graph_.blocks) {
    switch (b.kind) {
      case path::BlockKind::kAmp:
        blocks_.push_back(std::make_unique<AmpAttrModel>(b.amp));
        break;
      case path::BlockKind::kMixer:
        blocks_.push_back(std::make_unique<MixerAttrModel>(b.mixer, b.lo));
        break;
      case path::BlockKind::kLpf:
        blocks_.push_back(std::make_unique<LpfAttrModel>(b.lpf, graph_.analog_fs));
        break;
      case path::BlockKind::kAdc:
        blocks_.push_back(std::make_unique<AdcAttrModel>(b.adc, b.adc_decimation));
        break;
      case path::BlockKind::kFir: {
        const auto h = dsp::design_lowpass(b.fir_taps, b.fir_cutoff_norm);
        blocks_.push_back(std::make_unique<FirAttrModel>(
            dsp::quantize_coefficients(h, b.fir_coeff_frac_bits),
            b.fir_coeff_frac_bits));
        break;
      }
    }
  }
}

SignalAttributes PathAttrModel::forward_upto(const SignalAttributes& rf,
                                             std::size_t nblocks) const {
  MSTS_REQUIRE(nblocks <= blocks_.size(), "block index out of range");
  SignalAttributes sig = rf;
  for (std::size_t i = 0; i < nblocks; ++i) sig = blocks_[i]->forward(sig);
  obs::counter_add(kBlockForwards, nblocks);
  return sig;
}

stats::Uncertain PathAttrModel::gain_db_to(std::size_t block_index, double f_rf) const {
  MSTS_REQUIRE(block_index <= blocks_.size(), "block index out of range");
  SignalAttributes probe = make_stimulus(
      graph_.analog_fs, {ToneAttr{stats::Uncertain::exact(f_rf),
                                   stats::Uncertain::exact(1e-3),
                                   stats::Uncertain::exact(0.0)}});
  const SignalAttributes at = forward_upto(probe, block_index);
  MSTS_REQUIRE(!at.tones.empty(), "probe tone vanished during propagation");
  return stats::linear_amplitude_to_db(at.tones.front().amplitude / 1e-3);
}

stats::Uncertain PathAttrModel::gain_db_from(std::size_t block_index,
                                             double f_rf) const {
  MSTS_REQUIRE(block_index <= blocks_.size(), "block index out of range");
  // Find the tone frequency and rate context at the input of `block_index`
  // with a nominal forward pass, then propagate a *fresh* exact probe from
  // there so only the tolerances of blocks block_index..end accumulate
  // (subtracting gain_db_to from the path gain would double-count the
  // front-end tolerances in worst-case arithmetic).
  SignalAttributes sig = make_stimulus(
      graph_.analog_fs, {ToneAttr{stats::Uncertain::exact(f_rf),
                                   stats::Uncertain::exact(1e-3),
                                   stats::Uncertain::exact(0.0)}});
  for (std::size_t i = 0; i < block_index; ++i) sig = blocks_[i]->forward(sig);
  obs::counter_add(kBlockForwards, block_index);
  MSTS_REQUIRE(!sig.tones.empty(), "probe tone vanished during propagation");

  SignalAttributes probe = make_stimulus(
      sig.fs, {ToneAttr{stats::Uncertain::exact(sig.tones.front().freq.nominal),
                        stats::Uncertain::exact(1e-3),
                        stats::Uncertain::exact(0.0)}});
  for (std::size_t i = block_index; i < blocks_.size(); ++i) {
    probe = blocks_[i]->forward(probe);
  }
  obs::counter_add(kBlockForwards, blocks_.size() - block_index);
  MSTS_REQUIRE(!probe.tones.empty(), "probe tone vanished during propagation");
  return stats::linear_amplitude_to_db(probe.tones.front().amplitude / 1e-3);
}

stats::Uncertain PathAttrModel::path_gain_db(double f_rf) const {
  return gain_db_to(blocks_.size(), f_rf);
}

double PathAttrModel::pi_amplitude_for(std::size_t block_index, double f_rf,
                                       double target_vpeak) const {
  MSTS_REQUIRE(target_vpeak > 0.0, "target amplitude must be positive");
  const double g = amplitude_ratio_from_db(gain_db_to(block_index, f_rf).nominal);
  return target_vpeak / g;
}

}  // namespace msts::core
