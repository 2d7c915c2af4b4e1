// Topology/scenario sweep engine (ROADMAP item 2).
//
// Treats the path structure itself as a swept variable: a ScenarioMatrix
// expands into a grid of candidate topologies (block arrangements over a
// base PathConfig) crossed with per-axis parameter choices — filter orders,
// IF plans (LO frequencies), FIR tap counts and tone/record budgets — and
// run_sweep() synthesizes the test plan for every scenario, scores its
// testability (how much of the plan translates to the primary ports) and
// its threshold losses (analytic Tol-row yield loss / fault-coverage loss,
// cross-checked by the deterministic Monte-Carlo evaluator), then ranks the
// scenarios.
//
// Determinism contract: scenarios are scored in parallel on the shared
// work-stealing scheduler, one long_jump-derived RNG stream per scenario
// (block boundaries depend only on the scenario list, never on the thread
// count), and the ranking is produced by a serial sort with a total ordering — so
// the ranking, every score, and the result fingerprint are bit-identical
// at 1, 2 or 8 threads. The fingerprint digests the ranked names and the
// bit patterns of every score, which is what the tests and bench verify.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "path/path_config.h"
#include "path/path_graph.h"
#include "service/request.h"

namespace msts::sweep {

/// One candidate design point: a named topology plus synthesis options.
struct Scenario {
  std::string name;
  path::PathGraphConfig graph;
  service::RequestOptions options;
};

/// Builds a named block arrangement over `base`:
///   "canonical" — amp, mixer, lpf, adc, fir  (the Fig. 6 receiver)
///   "if-amp"    — mixer, amp, lpf, adc, fir  (gain at IF instead of RF)
///   "dual-lpf"  — amp, mixer, lpf, lpf, adc, fir (cascaded channel filter)
///   "no-amp"    — mixer, lpf, adc, fir       (passive front end)
/// Throws on an unknown name.
path::PathGraphConfig make_topology(const std::string& name,
                                    const path::PathConfig& base);

/// Declarative scenario grid. expand() crosses every axis; an empty
/// optional axis keeps the base value (so the default matrix is
/// 4 topologies x 3 filter orders = 12 scenarios).
struct ScenarioMatrix {
  path::PathConfig base;
  std::vector<std::string> topologies = {"canonical", "if-amp", "dual-lpf",
                                         "no-amp"};
  std::vector<int> lpf_orders = {2, 4, 6};
  /// IF-plan axis: LO frequency applied to every mixer block.
  std::vector<double> lo_freqs_hz;
  /// FIR tap-count axis (odd, >= 3), applied to every FIR block.
  std::vector<std::size_t> fir_taps;
  /// Tone/record budget axis: digital record length of the measurement setup.
  std::vector<std::size_t> records;

  /// The full cross product, each scenario validated and uniquely named
  /// ("canonical/ord4", "if-amp/ord2/lo9.0e6", ...).
  std::vector<Scenario> expand() const;
};

/// One scenario's figures of merit, in ranking order of importance.
struct ScenarioScore {
  std::string name;
  std::uint64_t content_hash = 0;  ///< Service content key of the request.
  std::size_t plan_tests = 0;      ///< Rows in the synthesized plan.
  std::size_t translatable = 0;    ///< Rows testable through the primary ports.
  std::size_t dft_required = 0;    ///< Rows needing test-point insertion.
  double testability = 0.0;        ///< translatable / plan_tests.
  double total_yield_loss = 0.0;   ///< Sum of Tol-row YL over the studies.
  double worst_fcl = 0.0;          ///< Max Tol-row FCL over the studies.
  double mc_yield_loss = 0.0;      ///< MC cross-check of total_yield_loss.
  double mc_fcl = 0.0;             ///< MC cross-check of worst_fcl.
};

struct SweepOptions {
  /// Monte-Carlo trials per threshold study (the MC cross-check columns).
  int mc_trials = 20000;
  /// Thread budget for the scenario fan-out; 0 defers to MSTS_THREADS.
  int threads = 0;
  /// Thread budget for the *inner* MC cross-check of each scenario. 1 keeps
  /// the evaluation serial inside its scenario task (the historical
  /// behavior); 0 defers to MSTS_THREADS, which — running inside a scheduler
  /// task — submits the MC blocks as a nested task-set on the same workers,
  /// so an imbalanced scenario matrix backfills idle workers instead of
  /// leaving them parked behind the one expensive scenario. Either setting
  /// produces bit-identical scores: the MC block partition and streams
  /// depend only on the trial count.
  int mc_threads = 1;
  /// Base seed of the per-scenario RNG streams.
  std::uint64_t seed = 0x5EEDC0DE00000001ull;
};

struct SweepResult {
  /// Best scenario first: testability desc, then total yield loss asc,
  /// then worst FCL asc, then name (total ordering -> deterministic).
  std::vector<ScenarioScore> ranking;
  /// FNV-1a digest of the ranked names and every score's bit pattern.
  std::uint64_t fingerprint = 0;
};

/// Scores every scenario (parallel, deterministic) and ranks them.
/// A scenario whose synthesis or evaluation throws fails the whole sweep:
/// run_sweep rethrows as std::runtime_error with the scenario *name* (and
/// the original message) attached, choosing the lowest-indexed failing
/// scenario when several fail — deterministic at any thread count.
SweepResult run_sweep(const std::vector<Scenario>& scenarios,
                      const SweepOptions& opts = {});

/// Renders the ranking as an aligned text table.
std::string format_ranking(const SweepResult& result);

}  // namespace msts::sweep
