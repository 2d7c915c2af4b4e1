// Test translation: converting module-level parameter tests into system-
// level tests through the functional path (the paper's sec. 4.2).
//
// Two mechanisms:
//  * Translation by composition — parameters that partition a system-level
//    parameter (gain, NF, dynamic range, offsets) are tested as one composed
//    path parameter.
//  * Translation by propagation — block-local parameters (mixer IIP3/P1dB,
//    filter cutoff) are computed from primary-output measurements corrected
//    by the gains of the surrounding blocks; gain tolerances become the
//    computation error.
// The adaptive strategy (Fig. 4b) first measures high-accuracy composites
// (path gain, LO frequency) and substitutes them into later computations,
// shrinking the error from "tolerances of the blocks after the DUT" to
// "tolerance of the blocks before it".
//
// Each analyze_* routine returns the static error budget derived from the
// attribute model; each measure_* routine executes the translated test on a
// concrete (simulated) path through its primary ports only.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "core/attr_models.h"
#include "path/measurements.h"
#include "path/path_graph.h"
#include "stats/rng.h"
#include "stats/uncertain.h"

namespace msts::core {

/// How a module-level test reaches the system level.
enum class TranslationMethod {
  kComposition,  ///< Measured as one composed path parameter.
  kPropagation,  ///< Stimulus/response propagated through other blocks.
  kDirectDft,    ///< Not translatable: needs test-point insertion / DFT.
};

std::string to_string(TranslationMethod m);

/// Static analysis of one translated parameter test.
struct TranslationAnalysis {
  TranslationMethod method = TranslationMethod::kPropagation;
  /// Worst-case / statistical computation error, in the parameter's unit.
  stats::Uncertain error;
  /// False when the required response falls below the minimum detectable
  /// level at the primary output (then method is kDirectDft).
  bool translatable = true;
  /// Human-readable computation formula / reasoning.
  std::string formula;
};

/// Translation engine over a path graph (canonically, the reference
/// receiver topology; any validated PathGraphConfig works — block-specific
/// analyses key off the first block of the matching kind).
class Translator {
 public:
  explicit Translator(const path::PathGraphConfig& graph);

  const PathAttrModel& model() const { return model_; }

  // ---- static error budgets -------------------------------------------

  /// Path gain by composition (the most accurate measurement; its residual
  /// error is the repeatability floor used by the adaptive strategy).
  TranslationAnalysis analyze_path_gain() const;

  /// Mixer IIP3 by propagation; `adaptive` selects the Fig. 4b computation
  /// (path gain + amp gain) over the nominal-gain computation (Fig. 4a
  /// without access: mixer + post-mixer gains at nominal).
  TranslationAnalysis analyze_mixer_iip3(bool adaptive) const;

  /// Mixer input 1 dB compression by propagation (path P1dB + amp gain).
  TranslationAnalysis analyze_mixer_p1db() const;

  /// LPF cutoff by propagation; error comes from the analog flatness budget
  /// through the response slope at the cutoff.
  TranslationAnalysis analyze_lpf_cutoff() const;

  /// LO frequency error measured directly from the output tone frequency.
  TranslationAnalysis analyze_lo_freq_error() const;

  /// Mixer LO isolation: the feedthrough must survive the LPF and ADC to be
  /// observable — on this path it does not, so the analysis reports
  /// kDirectDft (the paper's "tests ... may become untranslatable").
  TranslationAnalysis analyze_mixer_lo_isolation() const;
  /// Same, over an already propagated linear_probe_response().
  TranslationAnalysis analyze_mixer_lo_isolation(const SignalAttributes& probe_out) const;

  /// Amplifier DC offset: blocked by the mixer (no DC through a multiplying
  /// mixer), hence kDirectDft on a heterodyne path.
  TranslationAnalysis analyze_amp_offset() const;

  /// Amplifier HD3: the harmonics of an RF tone fall outside the LPF after
  /// down-conversion; reports kDirectDft with the attribute-domain evidence.
  TranslationAnalysis analyze_amp_hd3() const;
  /// Same, over an already propagated linear_probe_response().
  TranslationAnalysis analyze_amp_hd3(const SignalAttributes& probe_out) const;

  /// The primary output's attributes for the linear-drive RF probe
  /// (linear_drive_vpeak() at the first LO frequency + test_if_freq()): the
  /// evidence the LO-isolation and amp-HD3 analyses both read.
  SignalAttributes linear_probe_response() const;

  /// ADC offset by composition (it is the only DC source reaching the PO).
  TranslationAnalysis analyze_adc_offset() const;

  /// Composed noise figure / dynamic range of the path.
  TranslationAnalysis analyze_path_nf() const;

  // ---- executed measurements -------------------------------------------

  /// Measures the composed path gain (dB) at an in-band IF frequency.
  double measure_path_gain_db(const path::PathGraph& p, stats::Rng& rng,
                              const path::MeasureOptions& opts = {}) const;

  /// Executes the translated mixer-IIP3 test (dBm at the mixer input).
  /// With `adaptive`, the path gain is measured first and substituted.
  double measure_mixer_iip3_dbm(const path::PathGraph& p, stats::Rng& rng,
                                bool adaptive,
                                const path::MeasureOptions& opts = {}) const;

  /// Lane form: out[l] = measure_mixer_iip3_dbm(*paths[l], *rngs[l],
  /// adaptive, opts) bit for bit, with the transients run kLanes devices at
  /// a time on one stimulus (path/lanes.h). The paths must share one graph
  /// structure.
  void measure_mixer_iip3_dbm(std::span<const path::PathGraph* const> paths,
                              std::span<stats::Rng* const> rngs, bool adaptive,
                              std::span<double> out,
                              const path::MeasureOptions& opts = {}) const;

  /// Adaptive IIP3 computation reusing an already-measured path gain (the
  /// test-program flow: composites are measured once and shared).
  double measure_mixer_iip3_dbm_with_gain(const path::PathGraph& p,
                                          stats::Rng& rng, double path_gain_db,
                                          const path::MeasureOptions& opts = {}) const;

  /// Executes the translated mixer-P1dB test (dBm at the mixer input).
  double measure_mixer_p1db_dbm(const path::PathGraph& p, stats::Rng& rng,
                                const path::MeasureOptions& opts = {}) const;

  /// Executes the translated LPF-cutoff test (Hz).
  double measure_lpf_cutoff_hz(const path::PathGraph& p, stats::Rng& rng,
                               const path::MeasureOptions& opts = {}) const;

  /// Executes the LO frequency-error test (ppm).
  double measure_lo_freq_error_ppm(const path::PathGraph& p, stats::Rng& rng,
                                   const path::MeasureOptions& opts = {}) const;

  // ---- stimulus choices (shared by analyses and measurements) ----------

  /// In-band IF frequency used for single-tone tests.
  double test_if_freq(const path::MeasureOptions& opts = {}) const;
  /// Two-tone IF pair for intermodulation tests.
  std::pair<double, double> test_two_tone(const path::MeasureOptions& opts = {}) const;
  /// Stimulus level for linear-region tests (volts peak at the RF input).
  double linear_drive_vpeak() const;

 private:
  /// Cumulative nominal gain (dB) of the blocks in front of the mixer.
  double pre_mixer_gain_db() const;
  /// The mixer's IIP3 (dBm) from a two-tone response: the adaptive form
  /// when the measured path gain is given, else the nominal-gain form.
  /// Every IIP3 measurement above ends here.
  double mixer_iip3_from(const path::TwoToneResponse& resp,
                         std::optional<double> path_gain_db) const;
  /// LO frequency of the first mixer stage (0 when the graph has none).
  double lo_freq() const;
  const path::PathGraphConfig& graph() const { return model_.graph(); }

  PathAttrModel model_;
  /// Graph index of the first block of each kind the analyses reason about
  /// (nullopt when the graph has none).
  std::optional<std::size_t> amp_idx_;
  std::optional<std::size_t> mixer_idx_;
  std::optional<std::size_t> lpf_idx_;
};

}  // namespace msts::core
