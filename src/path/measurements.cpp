#include "path/measurements.h"

#include <algorithm>
#include <cmath>

#include "base/require.h"
#include "base/units.h"
#include "dsp/tonegen.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "path/lanes.h"

namespace msts::path {

namespace {

// Analog record length backing a digital record of opts.digital_record.
std::size_t analog_record(const PathGraphConfig& c, const MeasureOptions& opts) {
  return opts.digital_record * c.adc_decimation();
}

// Programmed (nominal) frequency of the first mixer's LO.
double lo_freq_hz(const PathGraphConfig& c) {
  return c.first(BlockKind::kMixer).lo.freq_hz;
}

// Per-thread scratch for the measurement loops below. Sweeps (P1dB, cutoff)
// and Monte-Carlo batches re-run the path with identically-sized records, so
// one workspace per thread makes those runs allocation-free at steady state.
// Every buffer is fully overwritten per run, so results are independent of
// what the previous measurement on this thread left behind.
struct MeasureScratch {
  GraphWorkspace ws;
  analog::Signal rf;
  std::vector<dsp::Tone> tones;
};

MeasureScratch& scratch() {
  thread_local MeasureScratch s;
  return s;
}

// Builds the RF stimulus into rf: one tone per IF frequency, translated up
// by the nominal LO frequency.
void make_rf(const PathGraph& path, std::span<const double> if_freqs,
             std::span<const double> amps, const MeasureOptions& opts,
             std::vector<dsp::Tone>& tones, analog::Signal& rf) {
  MSTS_REQUIRE(if_freqs.size() == amps.size(), "one amplitude per tone");
  const PathGraphConfig& c = path.config();
  const double f_lo = lo_freq_hz(c);
  tones.clear();
  tones.reserve(if_freqs.size());
  for (std::size_t i = 0; i < if_freqs.size(); ++i) {
    tones.push_back(dsp::Tone{f_lo + if_freqs[i], amps[i], 0.0});
  }
  rf.fs = c.analog_fs;
  dsp::generate_tones_into(tones, 0.0, c.analog_fs, analog_record(c, opts), rf.samples);
}

void make_rf(const PathGraph& path, std::span<const double> if_freqs,
             std::span<const double> amps, const MeasureOptions& opts,
             MeasureScratch& s) {
  make_rf(path, if_freqs, amps, opts, s.tones, s.rf);
}

// Per-thread scratch of the lane forms: one shared stimulus per call.
struct LaneScratch {
  LaneWorkspace ws;
  analog::Signal rf;
  std::vector<dsp::Tone> tones;
};

LaneScratch& lane_scratch() {
  thread_local LaneScratch s;
  return s;
}

// Runs paths kLanes at a time on one multi-tone stimulus and hands each
// device's filter-output spectrum to consume(index, spectrum).
template <class Consume>
void run_two_port_lanes(std::span<const PathGraph* const> paths,
                        std::span<const double> if_freqs, std::span<const double> amps,
                        std::span<stats::Rng* const> rngs, const MeasureOptions& opts,
                        Consume&& consume) {
  MSTS_REQUIRE(rngs.size() == paths.size(), "one noise stream per path");
  if (paths.empty()) return;
  for (const PathGraph* p : paths) {
    MSTS_REQUIRE(lo_freq_hz(p->config()) == lo_freq_hz(paths[0]->config()),
                 "lane paths must share the LO frequency of their stimulus");
  }
  obs::counter_add("path.run_two_port.calls", paths.size());
  obs::counter_add("path.run_two_port.digital_samples",
                   paths.size() * opts.digital_record);
  LaneScratch& s = lane_scratch();
  make_rf(*paths[0], if_freqs, amps, opts, s.tones, s.rf);
  for (std::size_t first = 0; first < paths.size(); first += kLanes) {
    const std::size_t k = std::min(kLanes, paths.size() - first);
    run_lanes(paths.subspan(first, k), s.rf, rngs.subspan(first, k), s.ws);
    for (std::size_t l = 0; l < k; ++l) {
      const PathGraph::Trace& trace = s.ws.traces[l];
      paths[first + l]->output_volts_into(trace, s.ws.volts);
      consume(first + l, dsp::Spectrum(s.ws.volts, trace.digital_fs, opts.window));
    }
  }
}

// The gain and two-tone readings of a filter-output spectrum, shared by the
// one-device and lane forms.
double gain_db_from(const PathGraph& path, const dsp::Spectrum& spectrum, double if_freq,
                    double amp_vpeak) {
  const auto tone = dsp::measure_tone(spectrum, if_freq, "f1");
  const double fir_mag = path.fir_magnitude_at(if_freq);
  MSTS_REQUIRE(fir_mag > 1e-9, "IF frequency is in the digital filter stop-band");
  return db_from_amplitude_ratio(tone.amplitude / fir_mag / amp_vpeak);
}

TwoToneResponse two_tone_from(const dsp::Spectrum& spectrum, double f1_if, double f2_if) {
  TwoToneResponse r;
  r.f1 = f1_if;
  r.f2 = f2_if;
  const auto t1 = dsp::measure_tone(spectrum, f1_if, "f1");
  const auto t2 = dsp::measure_tone(spectrum, f2_if, "f2");
  r.fund_power_db = db_from_power_ratio((t1.power + t2.power) / 2.0);

  const auto im_lo = dsp::measure_tone(spectrum, 2.0 * f1_if - f2_if, "2f1-f2");
  const auto im_hi = dsp::measure_tone(spectrum, 2.0 * f2_if - f1_if, "2f2-f1");
  r.im3_power_db = std::max(im_lo.power_db, im_hi.power_db);
  return r;
}

}  // namespace

double coherent_if_freq(const PathGraphConfig& config, const MeasureOptions& opts,
                        double target_if) {
  return dsp::coherent_frequency(config.digital_fs(), opts.digital_record, target_if);
}

dsp::Spectrum run_two_port(const PathGraph& path, std::span<const double> if_freqs,
                           std::span<const double> amplitudes_vpeak,
                           stats::Rng& noise_rng, const MeasureOptions& opts) {
  obs::counter_add("path.run_two_port.calls");
  obs::counter_add("path.run_two_port.digital_samples", opts.digital_record);
  MeasureScratch& s = scratch();
  make_rf(path, if_freqs, amplitudes_vpeak, opts, s);
  const auto& trace = path.run(s.rf, noise_rng, s.ws);
  path.output_volts_into(trace, s.ws.volts);
  return dsp::Spectrum(s.ws.volts, trace.digital_fs, opts.window);
}

double measure_path_gain_db(const PathGraph& path, double if_freq, double amp_vpeak,
                            stats::Rng& noise_rng, const MeasureOptions& opts) {
  MSTS_REQUIRE(amp_vpeak > 0.0, "stimulus amplitude must be positive");
  obs::Span span("path.measure_path_gain_db");
  const double freqs[] = {if_freq};
  const double amps[] = {amp_vpeak};
  const auto spectrum = run_two_port(path, freqs, amps, noise_rng, opts);
  return gain_db_from(path, spectrum, if_freq, amp_vpeak);
}

void measure_path_gain_db(std::span<const PathGraph* const> paths, double if_freq,
                          double amp_vpeak, std::span<stats::Rng* const> rngs,
                          std::span<double> out, const MeasureOptions& opts) {
  MSTS_REQUIRE(amp_vpeak > 0.0, "stimulus amplitude must be positive");
  MSTS_REQUIRE(out.size() == paths.size(), "one result per path");
  obs::Span span("path.measure_path_gain_db");
  span.note("devices", static_cast<std::int64_t>(paths.size()));
  const double freqs[] = {if_freq};
  const double amps[] = {amp_vpeak};
  run_two_port_lanes(paths, freqs, amps, rngs, opts,
                     [&](std::size_t i, const dsp::Spectrum& spectrum) {
                       out[i] = gain_db_from(*paths[i], spectrum, if_freq, amp_vpeak);
                     });
}

TwoToneResponse measure_two_tone(const PathGraph& path, double f1_if, double f2_if,
                                 double amp_vpeak, stats::Rng& noise_rng,
                                 const MeasureOptions& opts) {
  MSTS_REQUIRE(f1_if != f2_if, "two-tone test needs distinct tones");
  obs::Span span("path.measure_two_tone");
  const double freqs[] = {f1_if, f2_if};
  const double amps[] = {amp_vpeak, amp_vpeak};
  const auto spectrum = run_two_port(path, freqs, amps, noise_rng, opts);
  return two_tone_from(spectrum, f1_if, f2_if);
}

void measure_two_tone(std::span<const PathGraph* const> paths, double f1_if,
                      double f2_if, double amp_vpeak, std::span<stats::Rng* const> rngs,
                      std::span<TwoToneResponse> out, const MeasureOptions& opts) {
  MSTS_REQUIRE(f1_if != f2_if, "two-tone test needs distinct tones");
  MSTS_REQUIRE(out.size() == paths.size(), "one result per path");
  obs::Span span("path.measure_two_tone");
  span.note("devices", static_cast<std::int64_t>(paths.size()));
  const double freqs[] = {f1_if, f2_if};
  const double amps[] = {amp_vpeak, amp_vpeak};
  run_two_port_lanes(paths, freqs, amps, rngs, opts,
                     [&](std::size_t i, const dsp::Spectrum& spectrum) {
                       out[i] = two_tone_from(spectrum, f1_if, f2_if);
                     });
}

double measure_path_p1db_dbm(const PathGraph& path, double if_freq,
                             stats::Rng& noise_rng, const MeasureOptions& opts) {
  obs::Span span("path.measure_path_p1db_dbm");
  // Establish the small-signal gain, then raise the drive until it has
  // dropped by 1 dB; log-domain bisection between the last two points.
  const double small_dbm = -45.0;
  const double g0 = measure_path_gain_db(path, if_freq, vpeak_from_dbm(small_dbm),
                                         noise_rng, opts);
  double lo_dbm = small_dbm;
  double hi_dbm = small_dbm;
  double g_hi = g0;
  for (double p = -30.0; p <= 10.0; p += 2.0) {
    const double g = measure_path_gain_db(path, if_freq, vpeak_from_dbm(p),
                                          noise_rng, opts);
    hi_dbm = p;
    g_hi = g;
    if (g0 - g >= 1.0) break;
    lo_dbm = p;
  }
  MSTS_REQUIRE(g0 - g_hi >= 1.0, "path never compressed by 1 dB within sweep");
  for (int iter = 0; iter < 8; ++iter) {
    const double mid = 0.5 * (lo_dbm + hi_dbm);
    const double g = measure_path_gain_db(path, if_freq, vpeak_from_dbm(mid),
                                          noise_rng, opts);
    if (g0 - g >= 1.0) {
      hi_dbm = mid;
    } else {
      lo_dbm = mid;
    }
  }
  return 0.5 * (lo_dbm + hi_dbm);
}

double measure_path_cutoff_hz(const PathGraph& path, double amp_vpeak,
                              stats::Rng& noise_rng, const MeasureOptions& opts) {
  obs::Span span("path.measure_path_cutoff_hz");
  const PathGraphConfig& c = path.config();
  // Reference gain deep in the pass-band.
  const double f_ref = coherent_if_freq(c, opts, 100e3);
  const double g_ref = measure_path_gain_db(path, f_ref, amp_vpeak, noise_rng, opts);

  // Bisect the -3 dB frequency between the reference and 1.5x nominal fc.
  double lo = f_ref;
  double hi = 1.5 * c.first(BlockKind::kLpf).lpf.cutoff_hz.nominal;
  for (int iter = 0; iter < 10; ++iter) {
    const double mid = coherent_if_freq(c, opts, 0.5 * (lo + hi));
    const double g = measure_path_gain_db(path, mid, amp_vpeak, noise_rng, opts);
    if (g_ref - g >= 3.0) {
      hi = mid;
    } else {
      lo = mid;
    }
    if (hi - lo <= c.digital_fs() / static_cast<double>(opts.digital_record)) break;
  }
  return 0.5 * (lo + hi);
}

double measure_output_dc_v(const PathGraph& path, stats::Rng& noise_rng,
                           const MeasureOptions& opts) {
  obs::Span span("path.measure_output_dc_v");
  MeasureScratch& s = scratch();
  s.rf.fs = path.config().analog_fs;
  s.rf.samples.assign(analog_record(path.config(), opts), 0.0);
  const auto& trace = path.run(s.rf, noise_rng, s.ws);
  path.output_volts_into(trace, s.ws.volts);
  const std::vector<double>& volts = s.ws.volts;
  // Skip the FIR warm-up, then average.
  const std::size_t skip = path.fir().coeffs.size();
  MSTS_REQUIRE(volts.size() > 2 * skip, "record too short for DC measurement");
  double acc = 0.0;
  for (std::size_t i = skip; i < volts.size(); ++i) acc += volts[i];
  return acc / static_cast<double>(volts.size() - skip);
}

dsp::SpectralReport measure_spectrum_report(const PathGraph& path, double if_freq,
                                            double amp_vpeak, stats::Rng& noise_rng,
                                            const MeasureOptions& opts) {
  obs::Span span("path.measure_spectrum_report");
  const double freqs[] = {if_freq};
  const double amps[] = {amp_vpeak};
  const auto spectrum = run_two_port(path, freqs, amps, noise_rng, opts);
  dsp::AnalysisOptions ao;
  ao.fundamentals = {if_freq};
  return dsp::analyze_spectrum(spectrum, ao);
}

double measure_group_delay_s(const PathGraph& path, double if_freq,
                             double amp_vpeak, stats::Rng& noise_rng,
                             const MeasureOptions& opts) {
  obs::Span span("path.measure_group_delay_s");
  const PathGraphConfig& c = path.config();
  const double bin_w = c.digital_fs() / static_cast<double>(opts.digital_record);
  // The phase difference between the two tones is only known mod 2 pi, so the
  // phase-slope delay is unambiguous only inside +/- 1/(2 df). Estimate the
  // nominal path delay (linear-phase FIR plus the analytic group delay of
  // every LPF stage — all known to the tester) and narrow the tone spacing
  // until that estimate fits with margin; spacings stay even-bin so odd-bin
  // snapping keeps both tones coherent and distinct.
  double nominal_delay_s = (static_cast<double>(path.fir().coeffs.size()) - 1.0) /
                           (2.0 * c.digital_fs());
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (path.kind_at(i) == BlockKind::kLpf) {
      nominal_delay_s += path.lpf_at(i).group_delay_at(if_freq, c.analog_fs);
    }
  }
  double half_bins = 4.0;  // tones at if_freq -/+ half_bins * bin_w
  while (half_bins > 2.0 &&
         nominal_delay_s > 0.8 / (2.0 * 2.0 * half_bins * bin_w)) {
    half_bins /= 2.0;
  }
  obs::counter_add("path.measure_group_delay.half_bins",
                   static_cast<std::uint64_t>(half_bins));
  MSTS_REQUIRE(nominal_delay_s <= 0.8 / (2.0 * 2.0 * half_bins * bin_w),
               "nominal path delay exceeds the unambiguous phase-slope range "
               "even at the narrowest tone spacing; the measured phase "
               "difference would alias — use a longer record");
  const double f1 = coherent_if_freq(c, opts, if_freq - half_bins * bin_w);
  const double f2 = coherent_if_freq(c, opts, if_freq + half_bins * bin_w);
  MSTS_REQUIRE(f2 > f1, "group-delay tones collapsed; widen the record");
  // Narrowed tones sit too close for wide-lobe windows (Blackman-Harris
  // spans +/-5 bins — measure_tone's peak refinement would land both tones
  // on the same bin). Hann's +/-3-bin lobe resolves the 4-bin spacing, and
  // for the bin-centred tones used here its leakage onto the partner tone's
  // bin is exactly zero, so the phases stay exact.
  MeasureOptions gd_opts = opts;
  if (half_bins < 4.0) gd_opts.window = dsp::WindowType::kHann;
  const double freqs[] = {f1, f2};
  const double amps[] = {amp_vpeak, amp_vpeak};
  const auto spectrum = run_two_port(path, freqs, amps, noise_rng, gd_opts);
  const auto t1 = dsp::measure_tone(spectrum, f1);
  const auto t2 = dsp::measure_tone(spectrum, f2);
  // Both RF tones start at phase 0, so the output phase difference is the
  // path's phase slope; the LO phase offset is common and cancels.
  double dphi = t2.phase - t1.phase;
  while (dphi > kPi) dphi -= kTwoPi;
  while (dphi < -kPi) dphi += kTwoPi;
  return -dphi / (kTwoPi * (f2 - f1));
}

double measure_lo_freq_error_ppm(const PathGraph& path, double if_freq,
                                 double amp_vpeak, stats::Rng& noise_rng,
                                 const MeasureOptions& opts) {
  obs::Span span("path.measure_lo_freq_error_ppm");
  const double freqs[] = {if_freq};
  const double amps[] = {amp_vpeak};
  MeasureScratch& s = scratch();
  make_rf(path, freqs, amps, opts, s);
  const auto& trace = path.run(s.rf, noise_rng, s.ws);
  path.output_volts_into(trace, s.ws.volts);
  // The tone comes out at f_rf - f_lo_actual = if_freq - lo_error.
  const double measured =
      dsp::estimate_tone_frequency(s.ws.volts, trace.digital_fs, if_freq);
  const double lo_error_hz = if_freq - measured;
  return lo_error_hz / lo_freq_hz(path.config()) * 1e6;
}

}  // namespace msts::path
