// Mixed-signal test-plan synthesis: the paper's end-to-end flow.
//
// Given a path description (block parameters + tolerances), synthesize a
// system-level test for every parameter of Table 1: choose the translation
// method, compute the stimulus, derive the computation-error budget, and
// evaluate fault-coverage / yield losses for the three canonical threshold
// placements. Parameters whose response cannot reach the primary output are
// flagged as requiring DFT — the testability-analysis output that lets the
// designer "reduce DFT requirements" (abstract).
#pragma once

#include <string>
#include <vector>

#include "core/coverage.h"
#include "core/translation.h"
#include "path/path_graph.h"

namespace msts::core {

/// One synthesised parameter test (a row of the extended Table 1).
struct PlannedTest {
  std::string module;      ///< "amp", "mixer", "lo", "lpf", "adc", "path".
  std::string parameter;   ///< "IIP3", "P1dB", "f_c", ...
  std::string unit;        ///< "dB", "dBm", "Hz", "ppm", "V".
  TranslationMethod method = TranslationMethod::kPropagation;
  bool translatable = true;
  stats::Uncertain error;  ///< Computation error in `unit`.
  std::string formula;     ///< How the parameter is computed.
  bool has_study = false;  ///< Thresholded FCL/YL analysis available.
  ParameterStudy study;
};

/// Synthesises the full analog/mixed-signal test plan for a path.
class TestSynthesizer {
 public:
  /// `adaptive` selects the paper's adaptive strategy (measure path gain and
  /// LO frequency first, substitute into later computations).
  /// `spec_sigmas` places the acceptance limits at nominal +/- spec_sigmas
  /// standard deviations of the manufacturing distribution: the paper's
  /// Fig. 2 draws min/max inside the distribution's visible support, so the
  /// default (2 sigma) keeps noticeable probability mass at the limits —
  /// the regime in which FCL/YL trades matter at all.
  ///
  /// The plan walks the graph's block list in order, emitting each block's
  /// Table 1 rows; repeated kinds get "#2", "#3"... module suffixes.
  explicit TestSynthesizer(const path::PathGraphConfig& graph, bool adaptive = true,
                           double spec_sigmas = 2.0);

  /// The full plan (Table 1 parameter set). Each translator analysis (and
  /// the one linear-drive probe propagation two of them share) is computed
  /// at most once per call and handed to every row and study that needs it.
  std::vector<PlannedTest> synthesize() const;

  /// The three Table 2 parameters with their threshold studies.
  ParameterStudy study_mixer_p1db() const;
  ParameterStudy study_mixer_iip3() const;
  ParameterStudy study_lpf_cutoff() const;

  const Translator& translator() const { return translator_; }
  bool adaptive() const { return adaptive_; }

 private:
  // The studies over an analysis the caller already holds.
  ParameterStudy study_mixer_p1db(const TranslationAnalysis& analysis) const;
  ParameterStudy study_mixer_iip3(const TranslationAnalysis& analysis) const;
  ParameterStudy study_lpf_cutoff(const TranslationAnalysis& analysis) const;
  const path::PathGraphConfig& graph() const { return translator_.model().graph(); }

  Translator translator_;
  bool adaptive_;
  double spec_sigmas_;
};

/// Renders a plan as an aligned text table (used by benches and examples).
std::string format_plan(const std::vector<PlannedTest>& plan);

/// Renders a threshold study as Table 2-style rows.
std::string format_study(const ParameterStudy& study);

}  // namespace msts::core
