#include "path/path_graph.h"

#include <cmath>
#include <utility>

#include "base/require.h"
#include "base/simd.h"
#include "digital/fir.h"
#include "dsp/fir_design.h"
#include "obs/registry.h"

namespace msts::path {

std::string to_string(BlockKind kind) {
  switch (kind) {
    case BlockKind::kAmp: return "amp";
    case BlockKind::kMixer: return "mixer";
    case BlockKind::kLpf: return "lpf";
    case BlockKind::kAdc: return "adc";
    case BlockKind::kFir: return "fir";
  }
  return "?";
}

BlockConfig BlockConfig::make_amp(const analog::AmpParams& params) {
  BlockConfig b;
  b.kind = BlockKind::kAmp;
  b.amp = params;
  return b;
}

BlockConfig BlockConfig::make_mixer(const analog::MixerParams& params,
                                    const analog::LoParams& lo) {
  BlockConfig b;
  b.kind = BlockKind::kMixer;
  b.mixer = params;
  b.lo = lo;
  return b;
}

BlockConfig BlockConfig::make_lpf(const analog::LpfParams& params) {
  BlockConfig b;
  b.kind = BlockKind::kLpf;
  b.lpf = params;
  return b;
}

BlockConfig BlockConfig::make_adc(const analog::AdcParams& params,
                                  std::size_t decimation) {
  BlockConfig b;
  b.kind = BlockKind::kAdc;
  b.adc = params;
  b.adc_decimation = decimation;
  return b;
}

BlockConfig BlockConfig::make_fir(std::size_t taps, double cutoff_norm,
                                  int frac_bits) {
  BlockConfig b;
  b.kind = BlockKind::kFir;
  b.fir_taps = taps;
  b.fir_cutoff_norm = cutoff_norm;
  b.fir_coeff_frac_bits = frac_bits;
  return b;
}

std::optional<std::size_t> PathGraphConfig::index_of(BlockKind kind) const {
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (blocks[i].kind == kind) return i;
  }
  return std::nullopt;
}

std::size_t PathGraphConfig::first_index(BlockKind kind) const {
  const auto i = index_of(kind);
  MSTS_REQUIRE(i.has_value(), "path graph has no " + to_string(kind) + " block");
  return *i;
}

std::size_t PathGraphConfig::count(BlockKind kind) const {
  std::size_t n = 0;
  for (const BlockConfig& b : blocks) {
    if (b.kind == kind) ++n;
  }
  return n;
}

PathGraphConfig::PathGraphConfig(const PathConfig& config)
    : analog_fs(config.analog_fs),
      blocks{BlockConfig::make_amp(config.amp),
             BlockConfig::make_mixer(config.mixer, config.lo),
             BlockConfig::make_lpf(config.lpf),
             BlockConfig::make_adc(config.adc, config.adc_decimation),
             BlockConfig::make_fir(config.fir_taps, config.fir_cutoff_norm,
                                   config.fir_coeff_frac_bits)},
      analog_flatness_db(config.analog_flatness_db) {}

std::size_t PathGraphConfig::adc_decimation() const {
  return first(BlockKind::kAdc).adc_decimation;
}

namespace {

// Per-block parameter rules of validate(PathGraphConfig).
void validate_uncertain(const stats::Uncertain& u, const char* name) {
  MSTS_REQUIRE(std::isfinite(u.nominal) && std::isfinite(u.wc) &&
                   std::isfinite(u.sigma) && u.wc >= 0.0 && u.sigma >= 0.0,
               std::string(name) + " must be finite with wc >= 0 and sigma >= 0");
}

void validate_amp_block(const analog::AmpParams& amp) {
  validate_uncertain(amp.gain_db, "amp gain_db");
  validate_uncertain(amp.iip3_dbm, "amp iip3_dbm");
  validate_uncertain(amp.iip2_dbm, "amp iip2_dbm");
  validate_uncertain(amp.p1db_in_dbm, "amp p1db_in_dbm");
  validate_uncertain(amp.nf_db, "amp nf_db");
  validate_uncertain(amp.dc_offset_v, "amp dc_offset_v");
}

void validate_mixer_block(const analog::MixerParams& mixer, const analog::LoParams& lo,
                          double analog_fs) {
  validate_uncertain(mixer.conv_gain_db, "mixer conv_gain_db");
  validate_uncertain(mixer.iip3_dbm, "mixer iip3_dbm");
  validate_uncertain(mixer.p1db_in_dbm, "mixer p1db_in_dbm");
  validate_uncertain(mixer.lo_isolation_db, "mixer lo_isolation_db");
  validate_uncertain(mixer.nf_db, "mixer nf_db");
  MSTS_REQUIRE(lo.freq_hz > 0.0 && lo.freq_hz < analog_fs / 2.0,
               "lo freq_hz must lie in (0, analog_fs/2)");
  MSTS_REQUIRE(std::isfinite(lo.amplitude) && lo.amplitude > 0.0,
               "lo amplitude must be finite and > 0");
  validate_uncertain(lo.freq_error_ppm, "lo freq_error_ppm");
  validate_uncertain(lo.phase_noise_rad, "lo phase_noise_rad");
}

void validate_adc_block(const analog::AdcParams& adc, std::size_t decimation) {
  MSTS_REQUIRE(decimation >= 1, "decimation must be >= 1");
  MSTS_REQUIRE(adc.bits >= 2 && adc.bits <= 24,
               "adc bits must be in [2, 24] (digital filter input-width budget)");
  MSTS_REQUIRE(std::isfinite(adc.vref) && adc.vref > 0.0,
               "adc vref must be finite and > 0");
  validate_uncertain(adc.offset_error_v, "adc offset_error_v");
  validate_uncertain(adc.gain_error, "adc gain_error");
  validate_uncertain(adc.inl_peak_lsb, "adc inl_peak_lsb");
  validate_uncertain(adc.dnl_sigma_lsb, "adc dnl_sigma_lsb");
}

void validate_lpf_block(const analog::LpfParams& lpf, double analog_fs) {
  // analog::design_butterworth, behind both the response and the
  // transient, designs at most kMaxSections sections.
  MSTS_REQUIRE(lpf.order >= 2 && lpf.order % 2 == 0 &&
                   lpf.order <= 2 * static_cast<int>(simd::LpfCascade::kMaxSections),
               "lpf order must be an even biquad-cascade order from 2 to 16");
  validate_uncertain(lpf.cutoff_hz, "lpf cutoff_hz");
  validate_uncertain(lpf.passband_gain_db, "lpf passband_gain_db");
  validate_uncertain(lpf.clock_spur_v, "lpf clock_spur_v");
  // The attribute model designs the cutoff +/- wc filters at analog_fs.
  MSTS_REQUIRE(lpf.cutoff_hz.lower() > 0.0 && lpf.cutoff_hz.upper() < analog_fs / 2.0,
               "lpf cutoff_hz +/- wc must lie in (0, analog_fs/2)");
  MSTS_REQUIRE(std::isfinite(lpf.clock_hz) && lpf.clock_hz > 0.0,
               "lpf clock_hz must be finite and > 0");
}

void validate_fir_block(std::size_t taps, double cutoff_norm, int frac_bits) {
  MSTS_REQUIRE(taps >= 3 && taps % 2 == 1,
               "fir_taps must be odd and >= 3 (type-I linear-phase design)");
  MSTS_REQUIRE(cutoff_norm > 0.0 && cutoff_norm < 0.5,
               "fir_cutoff_norm must lie in (0, 0.5)");
  MSTS_REQUIRE(frac_bits >= 1 && frac_bits <= 30,
               "fir_coeff_frac_bits must be in [1, 30] (int32 coefficient budget)");
}

std::vector<std::int32_t> design_fir(std::size_t taps, double cutoff_norm,
                                     int frac_bits) {
  return dsp::quantize_coefficients(dsp::design_lowpass(taps, cutoff_norm),
                                    frac_bits);
}

}  // namespace

void validate(const PathGraphConfig& graph) {
  MSTS_REQUIRE(std::isfinite(graph.analog_fs) && graph.analog_fs > 0.0,
               "analog_fs must be a positive, finite rate");
  validate_uncertain(graph.analog_flatness_db, "analog_flatness_db");
  MSTS_REQUIRE(!graph.blocks.empty(), "path graph needs at least one block");
  MSTS_REQUIRE(graph.count(BlockKind::kAdc) == 1,
               "path graph needs exactly one ADC block");
  MSTS_REQUIRE(graph.count(BlockKind::kFir) <= 1,
               "path graph supports at most one FIR block");
  const std::size_t adc = *graph.index_of(BlockKind::kAdc);
  for (std::size_t i = 0; i < graph.blocks.size(); ++i) {
    const BlockConfig& b = graph.blocks[i];
    switch (b.kind) {
      case BlockKind::kAmp:
        MSTS_REQUIRE(i < adc, "analog blocks must precede the ADC");
        validate_amp_block(b.amp);
        break;
      case BlockKind::kMixer:
        MSTS_REQUIRE(i < adc, "analog blocks must precede the ADC");
        validate_mixer_block(b.mixer, b.lo, graph.analog_fs);
        break;
      case BlockKind::kLpf:
        MSTS_REQUIRE(i < adc, "analog blocks must precede the ADC");
        validate_lpf_block(b.lpf, graph.analog_fs);
        break;
      case BlockKind::kAdc:
        validate_adc_block(b.adc, b.adc_decimation);
        break;
      case BlockKind::kFir:
        MSTS_REQUIRE(i > adc, "digital FIR blocks must follow the ADC");
        validate_fir_block(b.fir_taps, b.fir_cutoff_norm, b.fir_coeff_frac_bits);
        break;
    }
  }
}

PathConfig reference_path_config() {
  PathConfig c;
  c.analog_fs = 32.0e6;
  c.adc_decimation = 8;

  c.amp.gain_db = stats::Uncertain::from_tolerance(15.0, 1.0);
  c.amp.iip3_dbm = stats::Uncertain::from_tolerance(10.0, 1.5);
  c.amp.iip2_dbm = stats::Uncertain::from_tolerance(45.0, 3.0);
  c.amp.p1db_in_dbm = stats::Uncertain::from_tolerance(0.0, 1.0);
  c.amp.nf_db = stats::Uncertain::from_tolerance(3.0, 0.5);
  c.amp.dc_offset_v = stats::Uncertain::from_tolerance(0.0, 2e-3);

  c.mixer.conv_gain_db = stats::Uncertain::from_tolerance(10.0, 1.0);
  c.mixer.iip3_dbm = stats::Uncertain::from_tolerance(2.0, 1.5);
  c.mixer.p1db_in_dbm = stats::Uncertain::from_tolerance(-8.0, 1.0);
  c.mixer.lo_isolation_db = stats::Uncertain::from_tolerance(40.0, 4.0);
  c.mixer.nf_db = stats::Uncertain::from_tolerance(8.0, 1.0);

  c.lo.freq_hz = 10.0e6;
  c.lo.freq_error_ppm = stats::Uncertain::from_tolerance(0.0, 10.0);
  c.lo.phase_noise_rad = stats::Uncertain::from_tolerance(2e-4, 1e-4);

  c.lpf.cutoff_hz = stats::Uncertain::from_tolerance(1.0e6, 5.0e4);
  c.lpf.passband_gain_db = stats::Uncertain::from_tolerance(0.0, 0.5);
  c.lpf.order = 4;
  // 6.4 MHz: folds to 1.6 MHz at the 4 MHz digital rate, so the spur stays
  // observable (a clock at a multiple of the digital rate would alias to DC).
  c.lpf.clock_hz = 6.4e6;
  c.lpf.clock_spur_v = stats::Uncertain::from_tolerance(200e-6, 100e-6);

  c.adc.bits = 12;
  c.adc.vref = 0.5;
  c.adc.offset_error_v = stats::Uncertain::from_tolerance(0.0, 1e-3);
  c.adc.gain_error = stats::Uncertain::from_tolerance(0.0, 0.01);
  c.adc.inl_peak_lsb = stats::Uncertain::from_tolerance(0.5, 0.3);
  c.adc.dnl_sigma_lsb = stats::Uncertain::from_tolerance(0.2, 0.1);

  c.fir_taps = 13;
  c.fir_cutoff_norm = 0.3;
  c.fir_coeff_frac_bits = 10;
  return c;
}

// ---------------------------------------------------------------------------
// PathGraph
// ---------------------------------------------------------------------------

namespace {

PathGraph::Stage manufacture(const BlockConfig& b, int adc_bits,
                             stats::Rng* rng) {
  switch (b.kind) {
    case BlockKind::kAmp:
      return rng ? analog::Amplifier::sampled(b.amp, *rng) : analog::Amplifier(b.amp);
    case BlockKind::kMixer: {
      if (rng) {
        // Sampling order within the stage is part of the graph contract:
        // mixer first, then its LO.
        analog::Mixer mixer = analog::Mixer::sampled(b.mixer, *rng);
        analog::LocalOscillator lo = analog::LocalOscillator::sampled(b.lo, *rng);
        return PathGraph::MixerStage{std::move(mixer), std::move(lo)};
      }
      return PathGraph::MixerStage{analog::Mixer(b.mixer),
                                   analog::LocalOscillator(b.lo)};
    }
    case BlockKind::kLpf:
      return rng ? analog::LowPassFilter::sampled(b.lpf, *rng)
                 : analog::LowPassFilter(b.lpf);
    case BlockKind::kAdc:
      return PathGraph::AdcStage{
          rng ? analog::Adc::sampled(b.adc, *rng) : analog::Adc(b.adc),
          b.adc_decimation};
    case BlockKind::kFir:
      return PathGraph::FirStage{
          design_fir(b.fir_taps, b.fir_cutoff_norm, b.fir_coeff_frac_bits),
          b.fir_coeff_frac_bits, adc_bits};
  }
  MSTS_REQUIRE(false, "unknown block kind");
  return PathGraph::FirStage{};
}

std::vector<PathGraph::Stage> manufacture_all(const PathGraphConfig& config,
                                              stats::Rng* rng) {
  const int adc_bits = config.first(BlockKind::kAdc).adc.bits;
  std::vector<PathGraph::Stage> stages;
  stages.reserve(config.blocks.size());
  for (const BlockConfig& b : config.blocks) {
    stages.push_back(manufacture(b, adc_bits, rng));
  }
  return stages;
}

}  // namespace

PathGraph::PathGraph(const PathGraphConfig& config, stats::Rng* rng)
    : config_((validate(config), config)),
      stages_(manufacture_all(config_, rng)),
      adc_index_(config_.first_index(BlockKind::kAdc)) {}

PathGraph::PathGraph(const PathGraphConfig& config) : PathGraph(config, nullptr) {}

PathGraph PathGraph::sampled(const PathGraphConfig& config, stats::Rng& rng) {
  return PathGraph(config, &rng);
}

const analog::Amplifier& PathGraph::amp_at(std::size_t i) const {
  MSTS_REQUIRE(i < stages_.size(), "stage index out of range");
  const auto* s = std::get_if<analog::Amplifier>(&stages_[i]);
  MSTS_REQUIRE(s != nullptr, "stage is not an amplifier");
  return *s;
}

const PathGraph::MixerStage& PathGraph::mixer_at(std::size_t i) const {
  MSTS_REQUIRE(i < stages_.size(), "stage index out of range");
  const auto* s = std::get_if<MixerStage>(&stages_[i]);
  MSTS_REQUIRE(s != nullptr, "stage is not a mixer");
  return *s;
}

const analog::LowPassFilter& PathGraph::lpf_at(std::size_t i) const {
  MSTS_REQUIRE(i < stages_.size(), "stage index out of range");
  const auto* s = std::get_if<analog::LowPassFilter>(&stages_[i]);
  MSTS_REQUIRE(s != nullptr, "stage is not a low-pass filter");
  return *s;
}

const PathGraph::AdcStage& PathGraph::adc_at(std::size_t i) const {
  MSTS_REQUIRE(i < stages_.size(), "stage index out of range");
  const auto* s = std::get_if<AdcStage>(&stages_[i]);
  MSTS_REQUIRE(s != nullptr, "stage is not an ADC");
  return *s;
}

const PathGraph::FirStage& PathGraph::fir_at(std::size_t i) const {
  MSTS_REQUIRE(i < stages_.size(), "stage index out of range");
  const auto* s = std::get_if<FirStage>(&stages_[i]);
  MSTS_REQUIRE(s != nullptr, "stage is not a FIR filter");
  return *s;
}

const analog::Amplifier& PathGraph::amp() const {
  return amp_at(config_.first_index(BlockKind::kAmp));
}

const analog::Mixer& PathGraph::mixer() const {
  return mixer_at(config_.first_index(BlockKind::kMixer)).mixer;
}

const analog::LocalOscillator& PathGraph::lo() const {
  return mixer_at(config_.first_index(BlockKind::kMixer)).lo;
}

const analog::LowPassFilter& PathGraph::lpf() const {
  return lpf_at(config_.first_index(BlockKind::kLpf));
}

const analog::Adc& PathGraph::adc() const { return adc_at(adc_index_).adc; }

const PathGraph::FirStage& PathGraph::fir() const {
  return fir_at(config_.first_index(BlockKind::kFir));
}

PathGraph::Trace PathGraph::run(const analog::Signal& rf,
                                stats::Rng& noise_rng) const {
  GraphWorkspace ws;
  run(rf, noise_rng, ws);
  return std::move(ws.trace);
}

const PathGraph::Trace& PathGraph::run(const analog::Signal& rf,
                                       stats::Rng& noise_rng,
                                       GraphWorkspace& ws) const {
  MSTS_REQUIRE(rf.fs == config_.analog_fs, "RF input must use the analog rate");
  Trace& t = ws.trace;
  const bool warm = !t.analog_stages.empty() &&
                    t.analog_stages.front().samples.capacity() >= rf.size();
  obs::counter_add(warm ? "path.graph.workspace.reuse"
                        : "path.graph.workspace.grow");
  obs::counter_add("path.run.analog_samples", rf.size());
  t.analog_stages.resize(adc_index_);

  // Noise draws follow the stage order; a mixer stage generates its LO
  // waveform before the mixer's own noise.
  const analog::Signal* cur = &rf;
  for (std::size_t i = 0; i < adc_index_; ++i) {
    analog::Signal& out = t.analog_stages[i];
    if (const auto* amp = std::get_if<analog::Amplifier>(&stages_[i])) {
      amp->process_into(*cur, noise_rng, out);
    } else if (const auto* mx = std::get_if<MixerStage>(&stages_[i])) {
      mx->lo.generate_into(cur->fs, cur->size(), noise_rng, ws.lo_wave);
      mx->mixer.process_into(*cur, ws.lo_wave, noise_rng, out);
    } else {
      std::get<analog::LowPassFilter>(stages_[i]).process_into(*cur, out);
    }
    cur = &out;
  }

  const AdcStage& adc = std::get<AdcStage>(stages_[adc_index_]);
  adc.adc.digitize_into(*cur, adc.decimation, t.adc_codes);

  if (adc_index_ + 1 < stages_.size()) {
    const FirStage& fir = std::get<FirStage>(stages_[adc_index_ + 1]);
    digital::fir_block_into(fir.coeffs, fir.input_bits, t.adc_codes, t.filter_out);
  } else {
    t.filter_out.clear();
  }
  t.digital_fs = config_.digital_fs();
  return t;
}

std::vector<double> PathGraph::output_volts(const Trace& trace) const {
  std::vector<double> out;
  output_volts_into(trace, out);
  return out;
}

void PathGraph::output_volts_into(const Trace& trace,
                                  std::vector<double>& out) const {
  const AdcStage& adc = std::get<AdcStage>(stages_[adc_index_]);
  if (adc_index_ + 1 < stages_.size()) {
    const FirStage& fir = std::get<FirStage>(stages_[adc_index_ + 1]);
    const double scale = adc.adc.lsb() / static_cast<double>(1 << fir.frac_bits);
    out.resize(trace.filter_out.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<double>(trace.filter_out[i]) * scale;
    }
    return;
  }
  const double lsb = adc.adc.lsb();
  out.resize(trace.adc_codes.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<double>(trace.adc_codes[i]) * lsb;
  }
}

double PathGraph::fir_magnitude_at(double f) const {
  if (adc_index_ + 1 >= stages_.size()) return 1.0;
  const FirStage& fir = std::get<FirStage>(stages_[adc_index_ + 1]);
  return std::abs(dsp::frequency_response_fixed(fir.coeffs, fir.frac_bits,
                                                f / config_.digital_fs()));
}

}  // namespace msts::path
