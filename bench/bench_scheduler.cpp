// Work-stealing scheduler makespan: scheduling quality on deliberately
// imbalanced workloads, modeled after the tester-time occupancy problem in
// SOC test scheduling — each task holds a (simulated) tester resource for a
// fixed duration, so the makespan depends purely on how well the schedule
// packs heterogeneous task durations, not on raw CPU throughput.
//
// Two workloads, each measured under two schedules:
//   * skew   — 32 tasks, 4 heavy and 28 light, with all heavy tasks in one
//     contiguous block. A static uniform partition over 8 runners puts the
//     whole heavy block on one runner (makespan = the heavy block); the
//     work-stealing Scheduler oversplits and lets idle workers steal the
//     heavy tasks apart (headline: skew_speedup, gated >= 1.5x at full
//     scale).
//   * nested — 8 outer tasks, one of which fans out a 16-block inner
//     task-set. Outer-only parallelism serializes the inner blocks behind
//     their one outer task; nested submission spreads them over the same
//     workers (nested_speedup).
//
// Every task also computes a per-index value into a per-index slot, and both
// schedules' results are compared bit-for-bit (result_mismatches must be 0:
// the scheduler randomizes execution order, never results).
//
// bench_compare gates the *_s_per_iter scalars on increase; the speedups
// are informational (the hard >= 1.5x exit check applies at full scale
// only — smoke runs at tiny scale are all sleep-granularity noise).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "stats/parallel.h"
#include "stats/scheduler.h"

using namespace msts;

namespace {

// Simulated tester occupancy: hold the "resource" for `us` microseconds.
// Sleeps overlap across workers even on a single hardware core, so the
// measured makespan reflects the schedule, not the core count.
void occupy_us(std::size_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

double wall_s(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  std::printf("== Scheduler: work-stealing makespan on imbalanced workloads ==\n\n");
  benchtool::BenchReport report("scheduler");

  const double scale = benchtool::bench_scale();
  const std::size_t iters = benchtool::scaled_trials(5, 2);
  constexpr int kRunners = 8;

  // --- Workload A: skewed flat fan-out -----------------------------------
  constexpr std::size_t kTasks = 32;
  constexpr std::size_t kHeavy = 4;  // tasks [0, 4) are the heavy block
  const std::size_t heavy_us = benchtool::scaled_trials(40000, 400);
  const std::size_t light_us = benchtool::scaled_trials(5000, 50);

  std::vector<std::uint64_t> static_out(kTasks), sched_out(kTasks);
  const auto skew_task = [&](std::vector<std::uint64_t>& out, std::size_t i) {
    occupy_us(i < kHeavy ? heavy_us : light_us);
    out[i] = i * i + 1;  // per-index slot: schedule-independent result
  };

  // Static uniform baseline: 8 contiguous blocks of 4 on 8 plain threads —
  // the fixed partition a non-stealing fork-join would use.
  report.phase_start("skew_static");
  double static_s = 0.0;
  for (std::size_t it = 0; it < iters; ++it) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> runners;
    for (int r = 0; r < kRunners; ++r) {
      runners.emplace_back([&, r] {
        const std::size_t begin = kTasks * static_cast<std::size_t>(r) / kRunners;
        const std::size_t end =
            kTasks * (static_cast<std::size_t>(r) + 1) / kRunners;
        for (std::size_t i = begin; i < end; ++i) skew_task(static_out, i);
      });
    }
    for (auto& t : runners) t.join();
    static_s += wall_s(t0);
  }
  report.phase_end();
  static_s /= static_cast<double>(iters);
  std::printf("skew: static uniform partition     %.4fs/iter\n", static_s);

  report.phase_start("skew_sched");
  double sched_s = 0.0;
  {
    stats::Scheduler sched(kRunners);
    for (std::size_t it = 0; it < iters; ++it) {
      const auto t0 = std::chrono::steady_clock::now();
      sched.run(kTasks, [&](std::size_t i) { skew_task(sched_out, i); });
      sched_s += wall_s(t0);
    }
  }
  report.phase_end();
  sched_s /= static_cast<double>(iters);
  const double skew_speedup = static_s / std::max(sched_s, 1e-9);
  std::printf("skew: work-stealing scheduler      %.4fs/iter  (%.2fx)\n",
              sched_s, skew_speedup);

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < kTasks; ++i) {
    if (static_out[i] != sched_out[i]) ++mismatches;
  }

  // --- Workload B: nested fan-out behind one heavy outer task -------------
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  const std::size_t inner_us = benchtool::scaled_trials(10000, 100);

  std::vector<std::uint64_t> outer_only_out(kOuter + kInner),
      nested_out(kOuter + kInner);
  const auto nested_workload = [&](std::vector<std::uint64_t>& out,
                                   int inner_threads) {
    stats::parallel_for_index(kOuter, kRunners, [&](std::size_t o) {
      if (o == 0) {
        // The heavy outer task: a 16-block inner set. inner_threads == 1
        // keeps it serial inside this task; > 1 submits it as a nested
        // task-set on the same workers (the scheduler's width governs).
        stats::parallel_for_index(kInner, inner_threads, [&](std::size_t i) {
          occupy_us(inner_us);
          out[kOuter + i] = 1000 + i;
        });
      } else {
        occupy_us(inner_us);
      }
      out[o] = 100 + o;
    });
  };

  report.phase_start("nested_outer_only");
  double outer_only_s = 0.0;
  for (std::size_t it = 0; it < iters; ++it) {
    const auto t0 = std::chrono::steady_clock::now();
    nested_workload(outer_only_out, /*inner_threads=*/1);
    outer_only_s += wall_s(t0);
  }
  report.phase_end();
  outer_only_s /= static_cast<double>(iters);
  std::printf("nested: outer-only parallelism     %.4fs/iter\n", outer_only_s);

  report.phase_start("nested_sched");
  double nested_s = 0.0;
  for (std::size_t it = 0; it < iters; ++it) {
    const auto t0 = std::chrono::steady_clock::now();
    nested_workload(nested_out, /*inner_threads=*/kRunners);
    nested_s += wall_s(t0);
  }
  report.phase_end();
  nested_s /= static_cast<double>(iters);
  const double nested_speedup = outer_only_s / std::max(nested_s, 1e-9);
  std::printf("nested: nested task-set submission %.4fs/iter  (%.2fx)\n\n",
              nested_s, nested_speedup);

  for (std::size_t i = 0; i < outer_only_out.size(); ++i) {
    if (outer_only_out[i] != nested_out[i]) ++mismatches;
  }

  report.add_scalar("skew_tasks", static_cast<std::int64_t>(kTasks));
  report.add_scalar("bench_iters", static_cast<std::int64_t>(iters));
  report.add_scalar("skew_static_s_per_iter", static_s);
  report.add_scalar("skew_sched_s_per_iter", sched_s);
  report.add_scalar("skew_speedup", skew_speedup);
  report.add_scalar("nested_outer_only_s_per_iter", outer_only_s);
  report.add_scalar("nested_sched_s_per_iter", nested_s);
  report.add_scalar("nested_speedup", nested_speedup);
  report.add_scalar("result_mismatches", static_cast<std::int64_t>(mismatches));

  std::printf("results: %zu mismatch(es) between schedules\n", mismatches);
  if (mismatches != 0) return 1;
  // The acceptance gate: at full scale the stealing schedule must beat the
  // static partition by >= 1.5x on the skewed workload.
  if (scale >= 1.0 && skew_speedup < 1.5) {
    std::printf("FAIL: skew_speedup %.2f < 1.5 at full scale\n", skew_speedup);
    return 1;
  }
  return 0;
}
