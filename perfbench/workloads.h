// The four workloads of the end-to-end benchmark and the seeded inputs
// they share with the traced run's layer probe. README.md in this
// directory says why each workload exists and which layer it stresses.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/coverage.h"
#include "core/digital_test.h"
#include "harness.h"
#include "path/path_config.h"
#include "path/receiver_path.h"
#include "service/request.h"
#include "sweep/sweep.h"

namespace perfbench {

/// Outcome of the in-run correctness checks of one run.
struct CheckResult {
  std::size_t compared = 0;    ///< Op outputs re-derived another way.
  std::size_t mismatched = 0;  ///< Of those, the ones that differed.
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// What items_per_s counts.
  virtual const char* item() const = 0;
  /// Ops per block of the run statistics (see Ops): about a second or more
  /// of ops, so a short host stall stays inside a minority of the blocks.
  virtual std::size_t block_ops() const = 0;

  /// Builds the state from the seed and runs a fixed count of warm-up ops,
  /// so the caches and per-thread work buffers are filled. Each call builds
  /// everything anew; a run sets up several times.
  virtual void setup() = 0;
  /// Runs ops until `deadline` and returns once every op it started has
  /// completed. Op numbering continues across calls.
  virtual void run(Clock::time_point deadline, Ops& ops) = 0;
  /// Re-derives a sample of the timed ops' outputs through another path of
  /// the program (one thread, or the direct call) and compares them bit for
  /// bit. Never compares against pinned values.
  virtual CheckResult check() = 0;
  /// Per-layer metrics measured on this workload's own traced ops.
  virtual void traced_metrics(std::vector<Metric>& out) const { (void)out; }
  /// One line describing the run's outputs.
  virtual std::string summary() const = 0;
};

std::unique_ptr<Workload> make_fault_campaign(std::uint64_t seed);
std::unique_ptr<Workload> make_scenario_sweep(std::uint64_t seed);
std::unique_ptr<Workload> make_translated_mc(std::uint64_t seed);

// ---- synth_serve ---------------------------------------------------------

/// The synth_serve closed loop over a hot set of `hot_set` cached configs,
/// warmed up with `warmup_requests` requests. The workload uses 2048 and
/// 4000; the traced runs of the other workloads use a small one.
std::unique_ptr<Workload> make_synth_serve(std::uint64_t seed, std::size_t hot_set = 2048,
                                           std::size_t warmup_requests = 4000);

/// Request for a path config drawn from `key`: the reference path with its
/// gain, linearity and cutoff nominals moved by a few tenths of their
/// tolerances, so every key yields a distinct, valid content key.
msts::service::SynthesisRequest serve_request(std::uint64_t key);

// ---- fault_campaign ------------------------------------------------------

/// Everything the sec. 5 flow needs before its first graded fault: the DUT,
/// the 512- and 8192-pattern plans, ideal and path-driven stimuli, and the
/// seeded partition of the collapsed fault universe into kFaultSlices.
struct FaultState {
  static constexpr std::size_t kFaultSlices = 8;
  std::unique_ptr<msts::core::DigitalTester> tester;
  msts::core::DigitalTestPlan plan_short, plan_long;
  std::vector<std::int64_t> ideal_short, ideal_long;
  std::vector<std::int64_t> path_short, path_long;
  std::vector<std::vector<msts::digital::Fault>> slices;
};
FaultState make_fault_state(std::uint64_t seed);

// ---- scenario_sweep ------------------------------------------------------

/// bench_sweep's matrix: 4 topologies x LPF orders {2, 4, 6} x LO
/// {9.5, 10} MHz = 24 scenarios.
std::vector<msts::sweep::Scenario> sweep_scenarios();
/// 20 000 MC trials per study, nested inner MC, op-seeded streams.
msts::sweep::SweepOptions sweep_options(std::uint64_t op_seed);

// ---- translated_mc -------------------------------------------------------

/// The reference path's mixer-IIP3 study (adaptive strategy).
msts::core::ParameterStudy iip3_study(const msts::path::PathConfig& config);

}  // namespace perfbench
