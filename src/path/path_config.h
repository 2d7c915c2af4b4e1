// Flat configuration of the canonical receiver path (the paper's Fig. 6
// chain). This is the original, ergonomic description clients hand to
// PathGraph / TestSynthesizer; the composable-graph layer
// (path/path_graph.h) derives its canonical PathGraphConfig from it via
// graph_from_config(), and both describe the exact same path.
#pragma once

#include <cstddef>

#include "analog/adc.h"
#include "analog/amp.h"
#include "analog/lo.h"
#include "analog/lpf.h"
#include "analog/mixer.h"
#include "stats/uncertain.h"

namespace msts::path {

/// Full configuration of the reference path (nominals + tolerances).
struct PathConfig {
  double analog_fs = 32.0e6;        ///< Analog simulation rate.
  std::size_t adc_decimation = 8;   ///< Digital rate = analog_fs / this.

  analog::AmpParams amp;
  analog::MixerParams mixer;
  analog::LoParams lo;
  analog::LpfParams lpf;
  analog::AdcParams adc;

  std::size_t fir_taps = 13;
  double fir_cutoff_norm = 0.3;     ///< Digital cutoff as fraction of digital fs.
  int fir_coeff_frac_bits = 10;

  /// Pass-band gain flatness allowance of the analog chain (dB): how much
  /// the amp+mixer gain may tilt between two in-band frequencies. The
  /// behavioral blocks are frequency-flat, but the attribute model budgets
  /// this when a translated test compares gains at two frequencies (e.g.
  /// the cutoff measurement referencing a low-frequency gain).
  stats::Uncertain analog_flatness_db = stats::Uncertain::from_tolerance(0.0, 0.3);

  double digital_fs() const { return analog_fs / static_cast<double>(adc_decimation); }
};

/// The communication-path configuration used throughout the experiments
/// (values recorded in DESIGN.md section 5).
PathConfig reference_path_config();

/// Construction-time validation shared by every PathConfig consumer
/// (PathGraph, PathAttrModel, graph_from_config). Throws via MSTS_REQUIRE
/// on the first violated rule:
///   * analog_fs must be a positive, finite rate;
///   * every Uncertain (block tolerances, analog_flatness_db) finite, with
///     wc >= 0 and sigma >= 0;
///   * lo freq_hz in (0, analog_fs/2), lo amplitude finite and > 0;
///   * adc_decimation >= 1;
///   * adc bits inside the digital filter's input-width budget [2, 24];
///   * adc vref finite and > 0;
///   * lpf order a positive even biquad-cascade order;
///   * lpf cutoff_hz +/- wc in (0, analog_fs/2), lpf clock_hz finite and > 0;
///   * fir_taps odd and >= 3 (type-I linear-phase design);
///   * fir_cutoff_norm in (0, 0.5);
///   * fir_coeff_frac_bits in [1, 30] (the int32 coefficient budget).
void validate(const PathConfig& config);

}  // namespace msts::path
