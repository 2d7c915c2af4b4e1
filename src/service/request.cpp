#include "service/request.h"

#include <bit>
#include <cstring>

#include "base/require.h"
#include "core/translation.h"

namespace msts::service {

namespace {

// ---------------------------------------------------------------------------
// Canonical byte serialization. Fixed-width little-endian integers, doubles
// by bit pattern (so -0.0 != +0.0 and every NaN payload is distinct — byte
// equality is exactly bit equality), strings length-prefixed.
// ---------------------------------------------------------------------------

void put_u64(std::string& out, std::uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.append(bytes, sizeof bytes);
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_double(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_bool(std::string& out, bool v) { out += v ? '\1' : '\0'; }

void put_string(std::string& out, const std::string& s) {
  put_u64(out, s.size());
  out += s;
}

void put_uncertain(std::string& out, const stats::Uncertain& u) {
  put_double(out, u.nominal);
  put_double(out, u.wc);
  put_double(out, u.sigma);
}

void put_spec(std::string& out, const stats::SpecLimits& s) {
  put_i64(out, static_cast<std::int64_t>(s.side));
  put_double(out, s.lo);
  put_double(out, s.hi);
}

// One block of the effective graph: the kind tag first (so reordered blocks
// always produce different bytes), then exactly the fields that kind uses.
void put_amp(std::string& out, const analog::AmpParams& amp) {
  put_i64(out, static_cast<std::int64_t>(path::BlockKind::kAmp));
  put_uncertain(out, amp.gain_db);
  put_uncertain(out, amp.iip3_dbm);
  put_uncertain(out, amp.iip2_dbm);
  put_uncertain(out, amp.p1db_in_dbm);
  put_uncertain(out, amp.nf_db);
  put_uncertain(out, amp.dc_offset_v);
}

void put_mixer(std::string& out, const analog::MixerParams& mixer,
               const analog::LoParams& lo) {
  put_i64(out, static_cast<std::int64_t>(path::BlockKind::kMixer));
  put_uncertain(out, mixer.conv_gain_db);
  put_uncertain(out, mixer.iip3_dbm);
  put_uncertain(out, mixer.p1db_in_dbm);
  put_uncertain(out, mixer.lo_isolation_db);
  put_uncertain(out, mixer.nf_db);
  put_double(out, lo.freq_hz);
  put_uncertain(out, lo.freq_error_ppm);
  put_uncertain(out, lo.phase_noise_rad);
  put_double(out, lo.amplitude);
}

void put_lpf(std::string& out, const analog::LpfParams& lpf) {
  put_i64(out, static_cast<std::int64_t>(path::BlockKind::kLpf));
  put_uncertain(out, lpf.cutoff_hz);
  put_uncertain(out, lpf.passband_gain_db);
  put_i64(out, lpf.order);
  put_double(out, lpf.clock_hz);
  put_uncertain(out, lpf.clock_spur_v);
}

void put_adc(std::string& out, const analog::AdcParams& adc, std::size_t decimation) {
  put_i64(out, static_cast<std::int64_t>(path::BlockKind::kAdc));
  put_i64(out, adc.bits);
  put_double(out, adc.vref);
  put_uncertain(out, adc.offset_error_v);
  put_uncertain(out, adc.gain_error);
  put_uncertain(out, adc.inl_peak_lsb);
  put_uncertain(out, adc.dnl_sigma_lsb);
  put_u64(out, decimation);
}

void put_fir(std::string& out, std::size_t taps, double cutoff_norm, int frac_bits) {
  put_i64(out, static_cast<std::int64_t>(path::BlockKind::kFir));
  put_u64(out, taps);
  put_double(out, cutoff_norm);
  put_i64(out, frac_bits);
}

void put_graph(std::string& out, const path::PathGraphConfig& g) {
  put_double(out, g.analog_fs);
  put_uncertain(out, g.analog_flatness_db);
  put_u64(out, g.blocks.size());
  for (const path::BlockConfig& b : g.blocks) {
    switch (b.kind) {
      case path::BlockKind::kAmp: put_amp(out, b.amp); break;
      case path::BlockKind::kMixer: put_mixer(out, b.mixer, b.lo); break;
      case path::BlockKind::kLpf: put_lpf(out, b.lpf); break;
      case path::BlockKind::kAdc: put_adc(out, b.adc, b.adc_decimation); break;
      case path::BlockKind::kFir:
        put_fir(out, b.fir_taps, b.fir_cutoff_norm, b.fir_coeff_frac_bits);
        break;
    }
  }
}

// The bytes put_graph writes for PathGraphConfig(c), without building that
// graph: amp -> mixer -> lpf -> adc -> fir.
void put_canonical_graph(std::string& out, const path::PathConfig& c) {
  put_double(out, c.analog_fs);
  put_uncertain(out, c.analog_flatness_db);
  put_u64(out, 5);
  put_amp(out, c.amp);
  put_mixer(out, c.mixer, c.lo);
  put_lpf(out, c.lpf);
  put_adc(out, c.adc, c.adc_decimation);
  put_fir(out, c.fir_taps, c.fir_cutoff_norm, c.fir_coeff_frac_bits);
}

void put_study(std::string& out, const core::ParameterStudy& s) {
  put_string(out, s.parameter);
  put_string(out, s.unit);
  put_double(out, s.population.mean);
  put_double(out, s.population.sigma);
  put_spec(out, s.spec);
  put_double(out, s.error_wc);
  put_i64(out, static_cast<std::int64_t>(s.treatment));
  put_u64(out, s.rows.size());
  for (const core::ThresholdRow& r : s.rows) {
    put_string(out, r.label);
    put_spec(out, r.threshold);
    put_double(out, r.outcome.yield);
    put_double(out, r.outcome.defect_rate);
    put_double(out, r.outcome.accept_rate);
    put_double(out, r.outcome.yield_loss);
    put_double(out, r.outcome.fault_coverage_loss);
  }
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

MeasurementSetup setup_from(const core::Translator& translator,
                            const path::MeasureOptions& opts) {
  MSTS_REQUIRE(opts.window >= dsp::WindowType::kRectangular &&
                   opts.window <= dsp::WindowType::kFlatTop,
               "measure.window must name a known WindowType");
  const path::PathGraphConfig& graph = translator.model().graph();
  MeasurementSetup setup;
  setup.record = opts;
  setup.analog_fs_hz = graph.analog_fs;
  setup.digital_fs_hz = graph.digital_fs();
  setup.if_freq_hz = translator.test_if_freq(opts);
  const auto [f1, f2] = translator.test_two_tone(opts);
  setup.two_tone_f1_hz = f1;
  setup.two_tone_f2_hz = f2;
  setup.drive_vpeak = translator.linear_drive_vpeak();
  return setup;
}

}  // namespace

path::PathGraphConfig effective_graph(const SynthesisRequest& request) {
  return request.graph ? *request.graph : path::PathGraphConfig(request.config);
}

MeasurementSetup make_measurement_setup(const path::PathGraphConfig& graph,
                                        const path::MeasureOptions& opts) {
  return setup_from(core::Translator(graph), opts);
}

SynthesisResult synthesize_direct(const SynthesisRequest& request) {
  const core::TestSynthesizer synth(effective_graph(request), request.options.adaptive,
                                    request.options.spec_sigmas);
  SynthesisResult result;
  result.setup = setup_from(synth.translator(), request.options.measure);
  result.plan = synth.synthesize();
  return result;
}

std::string content_key(const SynthesisRequest& request) {
  std::string key;
  key.reserve(768);
  if (request.graph) {
    put_graph(key, *request.graph);
  } else {
    put_canonical_graph(key, request.config);
  }
  put_bool(key, request.options.adaptive);
  put_double(key, request.options.spec_sigmas);
  put_u64(key, request.options.measure.digital_record);
  put_i64(key, static_cast<std::int64_t>(request.options.measure.window));
  return key;
}

std::uint64_t content_hash(const SynthesisRequest& request) {
  return fnv1a(content_key(request));
}

std::string result_content(const SynthesisResult& result) {
  std::string out;
  out.reserve(4096);
  put_u64(out, result.plan.size());
  for (const core::PlannedTest& t : result.plan) {
    put_string(out, t.module);
    put_string(out, t.parameter);
    put_string(out, t.unit);
    put_i64(out, static_cast<std::int64_t>(t.method));
    put_bool(out, t.translatable);
    put_uncertain(out, t.error);
    put_string(out, t.formula);
    put_bool(out, t.has_study);
    if (t.has_study) put_study(out, t.study);
  }
  put_u64(out, result.setup.record.digital_record);
  put_i64(out, static_cast<std::int64_t>(result.setup.record.window));
  put_double(out, result.setup.analog_fs_hz);
  put_double(out, result.setup.digital_fs_hz);
  put_double(out, result.setup.if_freq_hz);
  put_double(out, result.setup.two_tone_f1_hz);
  put_double(out, result.setup.two_tone_f2_hz);
  put_double(out, result.setup.drive_vpeak);
  return out;
}

std::uint64_t result_fingerprint(const SynthesisResult& result) {
  return fnv1a(result_content(result));
}

}  // namespace msts::service
