// System-level measurement procedures.
//
// Every routine here touches only the path's primary RF input and the
// digital filter output — the access discipline of translated tests. The
// known digital-filter response is divided out where needed (the paper's
// observation that the filter is a noiseless, distortion-free known "analog"
// filter from the tester's point of view).
//
// Any PathGraph topology runs: the stimulus sits at the first mixer's LO
// frequency, and the blocks a procedure reasons about (LO, LPF, FIR) are the
// first of their kind. A procedure that needs a kind the graph lacks throws
// naming it.
#pragma once

#include <cstddef>
#include <vector>

#include "dsp/metrics.h"
#include "dsp/spectrum.h"
#include "path/path_graph.h"
#include "stats/rng.h"

namespace msts::path {

/// Shared record settings for all measurements.
struct MeasureOptions {
  std::size_t digital_record = 4096;  ///< Digital samples per record.
  dsp::WindowType window = dsp::WindowType::kBlackmanHarris4;
};

/// Places IF tone frequencies onto coherent (bin-centred) digital bins.
double coherent_if_freq(const PathGraphConfig& config, const MeasureOptions& opts,
                        double target_if);

/// Runs the path with a multi-tone RF stimulus at lo_nominal + if_freqs and
/// returns the filter-output spectrum (in volts).
dsp::Spectrum run_two_port(const PathGraph& path, std::span<const double> if_freqs,
                           std::span<const double> amplitudes_vpeak,
                           stats::Rng& noise_rng, const MeasureOptions& opts = {});

/// Path voltage gain (dB): output tone amplitude at the IF over the input
/// amplitude, corrected for the known digital-filter response.
double measure_path_gain_db(const PathGraph& path, double if_freq,
                            double amp_vpeak, stats::Rng& noise_rng,
                            const MeasureOptions& opts = {});

/// Two-tone response at the output: fundamental and IM3 levels, the raw
/// material of the translated IIP3 computation (Fig. 4).
struct TwoToneResponse {
  double fund_power_db = 0.0;  ///< Mean of the two fundamental tone powers.
  double im3_power_db = 0.0;   ///< Strongest third-order product.
  double f1 = 0.0, f2 = 0.0;   ///< IF frequencies used.
};
TwoToneResponse measure_two_tone(const PathGraph& path, double f1_if, double f2_if,
                                 double amp_vpeak, stats::Rng& noise_rng,
                                 const MeasureOptions& opts = {});

/// Lane forms of the two measurements above: out[l] is the one-device
/// result for paths[l] with noise from *rngs[l], bit for bit, but the
/// transients run kLanes devices at a time (path/lanes.h) on one stimulus.
/// The paths must share one graph structure and LO frequency.
void measure_path_gain_db(std::span<const PathGraph* const> paths, double if_freq,
                          double amp_vpeak, std::span<stats::Rng* const> rngs,
                          std::span<double> out, const MeasureOptions& opts = {});
void measure_two_tone(std::span<const PathGraph* const> paths, double f1_if,
                      double f2_if, double amp_vpeak, std::span<stats::Rng* const> rngs,
                      std::span<TwoToneResponse> out, const MeasureOptions& opts = {});

/// Input-referred 1 dB compression point of the whole path (dBm at the RF
/// input): sweeps the input amplitude and interpolates the -1 dB gain point.
double measure_path_p1db_dbm(const PathGraph& path, double if_freq,
                             stats::Rng& noise_rng, const MeasureOptions& opts = {});

/// -3 dB cutoff of the analog chain (Hz at IF): sweeps IF frequencies,
/// divides out the known digital-filter response, bisects the -3 dB point
/// relative to the low-frequency gain.
double measure_path_cutoff_hz(const PathGraph& path, double amp_vpeak,
                              stats::Rng& noise_rng, const MeasureOptions& opts = {});

/// DC level at the filter output (volts), with no RF drive: the composed
/// offset of the whole path.
double measure_output_dc_v(const PathGraph& path, stats::Rng& noise_rng,
                           const MeasureOptions& opts = {});

/// Full spectral report of a single-tone record: SNR / SFDR / noise floor /
/// harmonics at the output (the paper's dynamic-range style tests).
dsp::SpectralReport measure_spectrum_report(const PathGraph& path, double if_freq,
                                            double amp_vpeak, stats::Rng& noise_rng,
                                            const MeasureOptions& opts = {});

/// LO frequency error (ppm): applies a known RF tone and measures the exact
/// output frequency; the deviation from the expected IF is the LO error.
double measure_lo_freq_error_ppm(const PathGraph& path, double if_freq,
                                 double amp_vpeak, stats::Rng& noise_rng,
                                 const MeasureOptions& opts = {});

/// Group delay (seconds) of the whole path around `if_freq`: two tones a few
/// bins apart, output phase slope across them (the LO phase is common to
/// both tones and cancels). One of Table 1's phase-requiring tests.
double measure_group_delay_s(const PathGraph& path, double if_freq,
                             double amp_vpeak, stats::Rng& noise_rng,
                             const MeasureOptions& opts = {});

}  // namespace msts::path
