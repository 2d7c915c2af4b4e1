// Escape analysis backed by ATPG: the faults the functional multi-tone test
// leaves undetected are classified by PODEM into (a) testable-but-missed,
// (b) provably redundant — no stimulus of any kind can ever expose them —
// and (c) undecided (backtrack limit). The redundant fraction is the real
// ceiling of any functional test, which reframes sec. 5's coverage numbers.
#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <vector>

#include "bench_report.h"
#include "core/digital_test.h"
#include "digital/atpg.h"
#include "path/receiver_path.h"
#include "stats/parallel.h"

using namespace msts;

int main() {
  std::printf("== ATPG classification of functional-test escapes ==\n\n");
  benchtool::BenchReport report("atpg_redundancy");
  const auto config = path::reference_path_config();
  const core::DigitalTester tester(config);

  // Every collapsed fault at full scale; MSTS_BENCH_SCALE thins by a stride.
  const std::size_t stride = benchtool::scaled_stride(1);
  std::vector<digital::Fault> faults;
  for (std::size_t i = 0; i < tester.faults().size(); i += stride) {
    faults.push_back(tester.faults()[i]);
  }
  report.add_scalar("faults_simulated", static_cast<std::int64_t>(faults.size()));

  report.phase_start("exact_campaign");
  core::DigitalTestOptions opt;
  const auto plan = tester.plan(opt);
  const auto codes = tester.ideal_codes(plan);
  const auto exact =
      tester.exact_campaign(codes, std::span(faults.data(), faults.size()));
  report.phase_end();

  std::vector<digital::Fault> escapes;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (!exact.detected_flags[i]) escapes.push_back(faults[i]);
  }
  std::printf("exact-inputs campaign: %.2f %% coverage, %zu escapes of %zu faults\n",
              100.0 * exact.coverage(), escapes.size(), faults.size());
  report.add_scalar("escapes", static_cast<std::int64_t>(escapes.size()));

  // PODEM is deterministic per fault, so the escapes can be classified in
  // parallel chunks (one engine per chunk) without changing any verdict.
  const int threads = stats::resolve_threads(0);
  const std::size_t chunk = 16;
  const std::size_t nchunks = (escapes.size() + chunk - 1) / chunk;
  std::vector<std::uint8_t> verdicts(escapes.size(), 0);
  report.phase_start("podem");
  stats::parallel_for_index(nchunks, threads, [&](std::size_t c) {
    digital::Atpg atpg(tester.netlist(), /*backtrack_limit=*/200);
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(escapes.size(), begin + chunk);
    for (std::size_t i = begin; i < end; ++i) {
      verdicts[i] = static_cast<std::uint8_t>(atpg.generate(escapes[i]).status);
    }
  });
  report.phase_end();

  std::size_t testable = 0, redundant = 0, aborted = 0;
  for (const std::uint8_t v : verdicts) {
    switch (static_cast<digital::AtpgStatus>(v)) {
      case digital::AtpgStatus::kTestable: ++testable; break;
      case digital::AtpgStatus::kUntestable: ++redundant; break;
      case digital::AtpgStatus::kAborted: ++aborted; break;
    }
  }

  std::printf("\nPODEM verdicts on the escapes (%.1f s, %d thread%s):\n",
              report.last_phase_wall_s(), threads, threads == 1 ? "" : "s");
  std::printf("  testable but missed by the stimulus: %6zu (%.1f %%)\n", testable,
              100.0 * testable / escapes.size());
  std::printf("  provably redundant:                  %6zu (%.1f %%)\n", redundant,
              100.0 * redundant / escapes.size());
  std::printf("  undecided (backtrack limit):         %6zu (%.1f %%)\n", aborted,
              100.0 * aborted / escapes.size());
  report.add_scalar("testable", static_cast<std::int64_t>(testable));
  report.add_scalar("redundant", static_cast<std::int64_t>(redundant));
  report.add_scalar("aborted", static_cast<std::int64_t>(aborted));

  const double testable_universe = static_cast<double>(faults.size() - redundant);
  std::printf("\ncoverage over the *testable* universe: %.2f %% "
              "(raw %.2f %% over all collapsed faults)\n",
              100.0 * exact.detected / testable_universe, 100.0 * exact.coverage());
  report.add_scalar("coverage_testable_pct",
                    100.0 * exact.detected / testable_universe);
  std::printf("\nReading: a large share of the functional escapes cannot be tested\n"
              "by any stimulus at all (sign-extension replicas, unreachable\n"
              "carries); counting them against the multi-tone test understates it.\n");
  return 0;
}
