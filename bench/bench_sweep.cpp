// Scenario sweep throughput: the topology/parameter sweep engine (src/sweep)
// ranking a scenario matrix over the parallel MC machinery.
//
// Four phases:
//   * expand — the scenario matrix (4 topologies x 3 LPF orders x 2 IF
//     plans = 24 scenarios) crossed and validated, 1000 times over so the
//     phase lasts tens of milliseconds (one expansion takes tens of
//     microseconds, too short to time against host noise);
//     expand_s_per_iter is one expansion;
//   * sweep — run_sweep iterated; every iteration synthesizes, scores and
//     ranks all scenarios (headline: scenarios_per_sec);
//   * verify — the sweep repeated at 1 thread and at the full pool; the
//     ranking fingerprint must be bit-identical (fingerprint_mismatches
//     must be 0), which is the determinism contract of sweep.h;
//   * imbalanced — a skewed matrix (16x MC budget) scored with nested inner
//     MC (mc_threads = 0): the work-stealing scheduler backfills idle
//     workers with stolen MC blocks, and the fingerprint is re-verified
//     against the fully serial evaluation.
//
// bench_compare gates scenarios_per_sec on decrease and expand_s_per_iter and
// sweep_s_per_iter on increase (see its direction rules).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_report.h"
#include "path/receiver_path.h"
#include "stats/parallel.h"
#include "sweep/sweep.h"

using namespace msts;

int main() {
  std::printf("== Sweep: topology/scenario ranking over the parallel MC engine ==\n\n");
  benchtool::BenchReport report("sweep");

  sweep::SweepOptions opts;
  opts.mc_trials = static_cast<int>(benchtool::scaled_trials(20000, 1000));
  const std::size_t iters = benchtool::scaled_trials(20, 2);
  const std::size_t expand_iters = benchtool::scaled_trials(1000, 10);

  // Phase 1: cross the matrix. Two IF plans on top of the default grid.
  sweep::ScenarioMatrix matrix;
  matrix.base = path::reference_path_config();
  matrix.lo_freqs_hz = {9.5e6, 10.0e6};
  report.phase_start("expand");
  std::vector<sweep::Scenario> scenarios;
  for (std::size_t i = 0; i < expand_iters; ++i) scenarios = matrix.expand();
  report.phase_end();
  const double expand_per_iter =
      report.last_phase_wall_s() / static_cast<double>(expand_iters);
  std::printf("expand: %zu scenarios, %zu expansions in %.3fs (%.1f us each)\n",
              scenarios.size(), expand_iters, report.last_phase_wall_s(),
              1e6 * expand_per_iter);

  // Phase 2: the headline sweep loop on the full thread pool.
  report.phase_start("sweep");
  sweep::SweepResult result;
  for (std::size_t i = 0; i < iters; ++i) {
    result = sweep::run_sweep(scenarios, opts);
  }
  report.phase_end();
  const double sweep_wall = report.last_phase_wall_s();
  const double per_iter = sweep_wall / static_cast<double>(iters);
  const double scenarios_per_sec =
      static_cast<double>(scenarios.size() * iters) / std::max(sweep_wall, 1e-9);
  std::printf("sweep: %zu iterations x %zu scenarios in %.3fs (%.1f scenarios/s)\n",
              iters, scenarios.size(), sweep_wall, scenarios_per_sec);
  std::printf("\n%s\n", sweep::format_ranking(result).c_str());

  // Phase 3: thread-count determinism — serial vs full pool, bit-identical.
  report.phase_start("verify");
  sweep::SweepOptions serial = opts;
  serial.threads = 1;
  const sweep::SweepResult ref = sweep::run_sweep(scenarios, serial);
  std::size_t mismatches = (ref.fingerprint == result.fingerprint) ? 0u : 1u;
  report.phase_end();
  std::printf("verify: fingerprint %016llx at 1 thread vs %016llx at %d, "
              "%zu mismatch(es)\n\n",
              static_cast<unsigned long long>(ref.fingerprint),
              static_cast<unsigned long long>(result.fingerprint),
              stats::max_threads(), mismatches);

  // Phase 4: imbalanced matrix — one scenario carries a 16x MC budget, the
  // work-stealing scheduler backfills the idle workers with nested MC
  // blocks (mc_threads = 0). Its fingerprint is verified against the same
  // matrix scored serially with serial inner evaluation: nested stealing
  // must not move a bit.
  report.phase_start("imbalanced");
  std::vector<sweep::Scenario> skewed(scenarios.begin(),
                                      scenarios.begin() +
                                          std::min<std::size_t>(8, scenarios.size()));
  sweep::SweepOptions heavy = opts;
  heavy.mc_trials = opts.mc_trials * 16;
  heavy.mc_threads = 0;
  const sweep::SweepResult heavy_nested = sweep::run_sweep(skewed, heavy);
  report.phase_end();
  const double imbalanced_s = report.last_phase_wall_s();
  std::printf("imbalanced: %zu scenarios at 16x MC budget, nested inner MC "
              "(%.3fs)\n",
              skewed.size(), imbalanced_s);

  sweep::SweepOptions heavy_serial = heavy;
  heavy_serial.threads = 1;
  heavy_serial.mc_threads = 1;
  const sweep::SweepResult heavy_ref = sweep::run_sweep(skewed, heavy_serial);
  if (heavy_ref.fingerprint != heavy_nested.fingerprint) ++mismatches;
  std::printf("imbalanced verify: fingerprint %016llx nested vs %016llx "
              "serial, %zu total mismatch(es)\n\n",
              static_cast<unsigned long long>(heavy_nested.fingerprint),
              static_cast<unsigned long long>(heavy_ref.fingerprint),
              mismatches);

  report.add_scalar("scenarios", static_cast<std::int64_t>(scenarios.size()));
  report.add_scalar("sweep_iters", static_cast<std::int64_t>(iters));
  report.add_scalar("mc_trials", static_cast<std::int64_t>(opts.mc_trials));
  report.add_scalar("scenarios_per_sec", scenarios_per_sec);
  report.add_scalar("expand_s_per_iter", expand_per_iter);
  report.add_scalar("sweep_s_per_iter", per_iter);
  report.add_scalar("best_testability", result.ranking.front().testability);
  report.add_scalar("best_yield_loss", result.ranking.front().total_yield_loss);
  report.add_scalar("imbalanced_s", imbalanced_s);
  report.add_scalar("fingerprint_mismatches", static_cast<std::int64_t>(mismatches));
  return mismatches == 0 ? 0 : 1;
}
