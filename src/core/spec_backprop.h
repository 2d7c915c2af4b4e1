// Specification back-propagation: system-level requirements to block-level
// budgets.
//
// The forward direction of test translation measures composed parameters;
// this is the inverse problem the paper's related work ([2] Huang/Pan/Cheng)
// addresses and which a test synthesizer needs to *derive the spec limits*
// it tests against: given what the system must achieve at its output, how
// much gain error and how much noise may each block contribute?
//
//  * Gain: the path-gain window is distributed across the gain-bearing
//    blocks proportionally to their tolerance shares (equal-risk
//    allocation), so the worst-case stack of all block windows exactly
//    fills the system window.
//  * Noise: the output-SNR requirement bounds the total path noise figure;
//    the inverse Friis formula converts the path budget into a per-block
//    NF ceiling given every other block at nominal.
#pragma once

#include <string>
#include <vector>

#include "path/path_graph.h"
#include "stats/yield.h"

namespace msts::core {

/// System-level requirements at the primary ports.
struct SystemRequirements {
  double min_path_gain_db = 23.0;
  double max_path_gain_db = 27.0;
  double min_output_snr_db = 50.0;  ///< At the reference input level.
  double input_level_dbm = -40.0;   ///< Reference stimulus level.
};

/// Derived budget for one block.
struct BlockBudget {
  std::string block;
  double nominal_gain_db = 0.0;
  stats::SpecLimits gain_window_db;  ///< Allowed actual gain.
  double nf_max_db = 0.0;            ///< Allowed noise figure.
};

/// Result of back-propagating the system requirements.
struct SpecBackpropResult {
  std::vector<BlockBudget> blocks;
  double path_nf_max_db = 0.0;  ///< Total noise-figure budget.
  bool feasible = true;         ///< False if nominals already violate specs.
  std::string note;
};

/// Derives per-block budgets for a path whose analog front end is exactly
/// one amp -> mixer -> lpf chain in front of the ADC (the reference receiver):
/// the Friis terms are written for that chain. Throws naming the chain on any
/// other arrangement.
SpecBackpropResult backpropagate_spec(const path::PathGraphConfig& graph,
                                      const SystemRequirements& req);

/// Renders the result as text.
std::string format_backprop(const SpecBackpropResult& result);

}  // namespace msts::core
