// End-to-end benchmark of the msts toolkit (see README.md here).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run warms the host, sets the workload up several times (setup_s is the
// median), runs ops in a closed loop for --seconds, re-derives a sample of
// the outputs through another path of the program, and prints the
// end-to-end metrics. With --trace 1 the same workload alternates untraced
// and traced blocks for --seconds, then runs the layer probe, and prints the
// per-layer metrics instead. The last stdout line is the JSON result; the
// exit code is 0 only when every check passed and no op failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>

#include "base/simd.h"
#include "harness.h"
#include "layer_probe.h"
#include "stats/parallel.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Host warm-up: at least 1.5 s, longer (up to 6 s) while the hypervisor
// steals more than 3 % of the vCPU time, so a run starts on a quiet host.
constexpr double kHostWarmupS = 1.5;
constexpr double kHostWarmupMaxS = 6.0;
constexpr double kQuietSteal = 0.03;
constexpr int kSetups = 5;
// Untraced and traced blocks of a traced run alternate at this length; short
// enough that a block's spans never fill the per-thread span rings.
constexpr double kTracedBlockS = 0.1;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "synth_serve|fault_campaign|scenario_sweep|translated_mc --seed N "
               "--seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (!(a.seconds > 0.0 && a.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      a.trace = value == "1";
    } else {
      usage(("unknown option " + key).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("malformed value for " + key).c_str());
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");
  return a;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "synth_serve") return make_synth_serve(seed);
  if (name == "fault_campaign") return make_fault_campaign(seed);
  if (name == "scenario_sweep") return make_scenario_sweep(seed);
  if (name == "translated_mc") return make_translated_mc(seed);
  usage(("unknown workload " + name).c_str());
}

// The end-to-end metric (and workload) each per-layer metric should move.
const std::map<std::string, const char*> kMoves = {
    {"service.queue_wait_p50_ms", "synth_serve op_p50_ms"},
    {"service.exec_hit_p50_us", "synth_serve op_p50_ms"},
    {"service.exec_cold_p50_ms", "synth_serve op_tail_ms, items_per_s"},
    {"service.content_key_us", "synth_serve op_p50_ms"},
    {"service.hit_ratio", "synth_serve items_per_s"},
    {"service.failed", "synth_serve items_per_s"},
    {"core.synthesize_ms", "synth_serve op_tail_ms, items_per_s, setup_s; scenario_sweep op_p50_ms"},
    {"core.threshold_study_ms", "as core.synthesize_ms"},
    {"core.digital_plan_ms", "fault_campaign setup_s"},
    {"stats.evaluate_test_us", "core.threshold_study_ms"},
    {"stats.evaluate_test_mc_ms", "scenario_sweep op_p50_ms"},
    {"stats.parallel_utilization", "items_per_s of every workload"},
    {"stats.sched_steals_per_op", "scenario_sweep op_tail_ms"},
    {"sweep.scenario_max_ms", "scenario_sweep op_tail_ms"},
    {"digital.exact_sim_ms", "fault_campaign op_p50_ms"},
    {"digital.capture_sim_ms", "fault_campaign op_p50_ms, items_per_s"},
    {"digital.fault_patterns_per_s", "fault_campaign items_per_s"},
    {"digital.waveform_mb", "fault_campaign peak_rss_mb"},
    {"dsp.verdict_ms", "fault_campaign op_p50_ms"},
    {"dsp.spectrum_8192_us", "fault_campaign op_p50_ms"},
    {"dsp.plan_cache_hit_ratio", "fault_campaign setup_s; translated_mc op_p50_ms"},
    {"path.device_sample_us", "translated_mc items_per_s"},
    {"path.run_samples_per_s", "translated_mc items_per_s; fault_campaign setup_s"},
    {"path.measure_iip3_ms", "translated_mc op_p50_ms"},
    {"analog.amp_us", "path.run_samples_per_s"},
    {"analog.lo_us", "path.run_samples_per_s"},
    {"analog.mixer_us", "path.run_samples_per_s"},
    {"analog.lpf_us", "path.run_samples_per_s"},
    {"analog.adc_us", "path.run_samples_per_s"},
    {"obs.trace_overhead_ratio", "every op_p50_ms if tracing stays on"},
    {"obs.spans_per_op", "obs.trace_overhead_ratio"},
};

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    const auto moves = kMoves.find(m.name);
    std::printf("  %-30s %20s %-6s%s%s\n", m.name.c_str(), format_number(m.value).c_str(),
                m.unit.c_str(), moves == kMoves.end() ? "" : "  -> ",
                moves == kMoves.end() ? "" : moves->second);
  }
}

int finish(const Args& a, std::size_t attempted, std::size_t failed_ops,
           const CheckResult& check, const Workload& w, const std::vector<Metric>& metrics) {
  const std::size_t failed = failed_ops + check.mismatched;
  const bool correct = failed == 0 && attempted > 0;
  std::printf("%s (seed %llu, %s): %s\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.trace ? "traced" : "untraced",
              w.summary().c_str());
  std::printf("ops attempted %zu, failed %zu (thrown or refused %zu, mismatched %zu of %zu "
              "checked)\n",
              attempted, failed, failed_ops, check.mismatched, check.compared);
  print_metrics(metrics);
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

int timed_run(const Args& a, Workload& w) {
  set_collection(false);
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    w.setup();
    setups.push_back(seconds_since(t0));
  }
  Ops ops(w.block_ops());
  const CpuTicks ticks0 = cpu_ticks();
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  ops.begin();
  w.run(t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(a.seconds)),
        ops);
  const double wall = seconds_since(t0);
  const double cpu = process_cpu_s() - cpu0;
  const double steal = steal_share(ticks0, cpu_ticks());
  const CheckResult check = w.check();

  const Ops::Stats st = ops.stats();
  std::string each;
  for (double s : setups) each += (each.empty() ? "" : ", ") + format_number(s);
  std::printf("setup %s s (median of %d: %s); timed %.3f s, %s %ss; "
              "utilization %.3f of %d threads; host steal %.1f %% of vCPU time\n",
              format_number(median(setups)).c_str(), kSetups, each.c_str(), wall,
              format_number(ops.items()).c_str(), w.item(), cpu / (wall * kBusyThreads),
              kBusyThreads, 100.0 * steal);
  std::printf("%zu ops in %zu block(s) of %zu; medians over blocks; op_tail_ms is p%.2f per "
              "block\n",
              ops.attempted(), st.blocks, w.block_ops(), st.tail_pct);
  if (ops.attempted() <= Ops::kFirstKept) {
    std::printf("op latencies (ms):");
    for (double l : ops.first_latencies()) std::printf(" %.1f", 1e3 * l);
    std::printf("\n");
  }
  const std::vector<Metric> metrics = {
      {"setup_s", median(setups), "s"},
      {"items_per_s", st.rate, "1/s"},
      {"op_p50_ms", 1e3 * st.p50_s, "ms"},
      {"op_tail_ms", 1e3 * st.tail_s, "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  return finish(a, ops.attempted(), ops.failed(), check, w, metrics);
}

void print_self_times(const char* title, const SpanLog& log) {
  double total = 0.0;
  for (const auto& [layer, self] : log.layers()) total += self.self_s;
  std::printf("%s: self time by layer (span duration minus child spans)\n", title);
  for (const auto& [layer, self] : log.layers()) {
    std::printf("  %-12s %9llu spans %12.3f ms %6.1f %%\n", layer.c_str(),
                static_cast<unsigned long long>(self.spans), 1e3 * self.self_s,
                total > 0.0 ? 100.0 * self.self_s / total : 0.0);
  }
}

int traced_run(const Args& a, Workload& w) {
  set_collection(false);
  w.setup();
  SpanLog ops_log, probe_log;
  CounterLog counters;
  set_collection(true);
  ops_log.drain();  // nothing from the untraced set-up may leak in
  counters.drain();
  set_collection(false);

  // Untraced and traced blocks alternate, so both see the same host.
  Ops untraced(w.block_ops()), traced(w.block_ops());
  double untraced_wall = 0.0, untraced_cpu = 0.0;
  const CpuTicks ticks0 = cpu_ticks();
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(a.seconds));
  const auto block = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kTracedBlockS));
  for (bool trace_block = false; Clock::now() < end || traced.attempted() == 0;
       trace_block = !trace_block) {
    Ops& ops = trace_block ? traced : untraced;
    set_collection(trace_block);
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    ops.begin();
    w.run(std::max(std::min(t0 + block, end), t0 + std::chrono::milliseconds(1)), ops);
    if (trace_block) {
      set_collection(false);
      ops_log.drain();
      counters.drain();
    } else {
      untraced_wall += seconds_since(t0);
      untraced_cpu += process_cpu_s() - cpu0;
    }
  }
  const double steals = counters.get("sched.steal");
  const double steal = steal_share(ticks0, cpu_ticks());

  set_collection(true);
  const ProbeFacts facts = run_layer_probe(a.seed);
  std::vector<Metric> service;
  if (a.workload != "synth_serve") {
    // Service metrics of the other workloads: a small synth_serve run.
    std::unique_ptr<Workload> mini = make_synth_serve(a.seed, 64, 200);
    set_collection(false);
    mini->setup();
    set_collection(true);
    Ops mini_ops(1000);
    mini->run(Clock::now() + std::chrono::milliseconds(300), mini_ops);
    mini->traced_metrics(service);
  } else {
    w.traced_metrics(service);
  }
  set_collection(false);
  probe_log.drain();
  counters.drain();

  const CheckResult check = w.check();

  const double plan_hits = counters.sum("dsp.plan_cache.", ".hit");
  const double plan_misses = counters.sum("dsp.plan_cache.", ".miss");
  std::vector<Metric> metrics = service;
  probe_metrics(probe_log, facts, metrics);
  metrics.push_back({"stats.parallel_utilization",
                     untraced_cpu / (untraced_wall * kBusyThreads), "ratio"});
  metrics.push_back({"stats.sched_steals_per_op",
                     steals / static_cast<double>(traced.attempted()), "1/op"});
  metrics.push_back({"dsp.plan_cache_hit_ratio", plan_hits / (plan_hits + plan_misses), "ratio"});
  metrics.push_back({"obs.trace_overhead_ratio",
                     traced.stats().p50_s / untraced.stats().p50_s, "ratio"});
  metrics.push_back({"obs.spans_per_op",
                     static_cast<double>(ops_log.spans()) / static_cast<double>(traced.attempted()),
                     "1/op"});
  metrics.push_back({"obs.spans_dropped",
                     static_cast<double>(ops_log.dropped() + probe_log.dropped()), "count"});
  const auto& kernels = msts::simd::kernels();
  metrics.push_back({"base.simd_isa", static_cast<double>(kernels.isa), "id"});
  metrics.push_back({"base.fault_words", static_cast<double>(kernels.fault_words), "count"});
  metrics.push_back({"base.threads", static_cast<double>(msts::stats::max_threads()), "count"});
  metrics.push_back(
      {"base.nproc", static_cast<double>(std::thread::hardware_concurrency()), "count"});
  metrics.push_back({"base.steal_pct", 100.0 * steal, "%"});

  std::printf("traced run: %zu untraced and %zu traced ops in alternating %.2f s blocks; "
              "base.simd_isa %d = %s\n",
              untraced.attempted(), traced.attempted(), kTracedBlockS,
              static_cast<int>(kernels.isa), msts::simd::isa_name(kernels.isa));
  print_self_times("workload ops (program spans)", ops_log);
  print_self_times("layer probe (benchmark and program spans)", probe_log);
  return finish(a, untraced.attempted() + traced.attempted(),
                untraced.failed() + traced.failed(), check, w, metrics);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  try {
    std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
    if (msts::stats::max_threads() != kThreads) {
      std::fprintf(stderr, "perfbench: run with MSTS_THREADS=%d\n", kThreads);
      return 2;
    }
    const HostWarmup warm = warm_host(kBusyThreads, kHostWarmupS, kHostWarmupMaxS, kQuietSteal);
    std::printf("host warm-up %.2f s, steal over its last %.1f s %.1f %% of vCPU time\n",
                warm.seconds, kHostWarmupS, 100.0 * warm.steal);
    return args.trace ? traced_run(args, *w) : timed_run(args, *w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
