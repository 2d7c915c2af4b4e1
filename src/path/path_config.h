// Flat parameter set of the canonical receiver path (the paper's Fig. 6
// chain): every block's nominals and tolerances in one struct. It is not a
// second path description: PathGraphConfig (path/path_graph.h) converts from
// it implicitly, arranging amp -> mixer -> lpf -> adc -> fir, and every API
// takes the graph, so a flat config can be handed to any of them.
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

}  // namespace msts::path
