// Shared plumbing of the end-to-end benchmark: clocks, seeding, host
// warm-up, process resource readings, latency statistics, the span
// collection of traced runs and the result printer.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/span.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Compute threads the toolkit is given (MSTS_THREADS) and the generator
/// thread that drives it; a parallel region also runs on its caller, so at
/// most kThreads + 1 threads are busy.
inline constexpr int kThreads = 2;
inline constexpr int kBusyThreads = kThreads + 1;

double seconds_since(Clock::time_point t);

/// Independent 64-bit key for stream `stream` of the run seed (SplitMix64
/// finalizer over both), so every generated input depends only on the seed
/// and its own index.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Spins `threads` threads on private arithmetic, touching no toolkit
/// state, so the host has every vCPU of the run awake before the first
/// timed call: at least `min_s` seconds, and on past that, in steps, while
/// the host stole more than `max_steal` of the vCPU time over the last
/// `min_s` seconds, up to `max_s` seconds in all.
struct HostWarmup {
  double seconds = 0.0;  ///< Time spent warming.
  double steal = 0.0;    ///< Steal share over the final window.
};
HostWarmup warm_host(int threads, double min_s, double max_s, double max_steal);

/// Process CPU time (user + system, all threads), seconds.
double process_cpu_s();

/// Peak resident set size of the process, MB (10^6 bytes).
double peak_rss_mb();

/// Host-wide CPU time counters of /proc/stat (clock ticks, all vCPUs).
struct CpuTicks {
  double busy = 0.0;   ///< user + nice + system + irq + softirq
  double steal = 0.0;  ///< time the hypervisor ran something else
  double total = 0.0;  ///< every column above plus idle and iowait
};
CpuTicks cpu_ticks();
/// Share of the vCPUs' time stolen by the host between two readings, or
/// NaN where /proc/stat is unavailable.
double steal_share(const CpuTicks& from, const CpuTicks& to);

double median(std::vector<double> v);

/// What the timed phase of a run produced, over one or more run() calls.
///
/// Ops are cut into blocks of `block_ops` consecutive ops, in completion
/// order (the last partial block joins the one before it). Each block is
/// reduced to its median latency, its tail — the op with exactly 10 slower
/// ops after it, i.e. the highest percentile with at least 10 ops beyond it,
/// or the block median when the block has fewer than 21 ops — and its rate,
/// items completed over the wall time the block spans. The run reports the
/// median of each over its blocks, so a host stall or a burst of stolen
/// vCPU time that covers a minority of the blocks cannot set them, and
/// memory stays flat however many ops a run completes. A failed op
/// (refused, thrown) enters with an infinite latency, so it counts as
/// missing any latency limit.
class Ops {
 public:
  explicit Ops(std::size_t block_ops);

  /// Marks the start of a stretch of timed ops; the time since the previous
  /// op of this object (another stretch of the run) does not count.
  void begin();
  /// Records one op that completed now.
  void add(double latency_s, double op_items);
  void add_failed();

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  double items() const { return items_; }

  struct Stats {
    double p50_s = 0.0;     ///< Median over blocks of the block median.
    double tail_s = 0.0;    ///< Median over blocks of the block tail.
    double tail_pct = 0.0;  ///< Percentile of the block tails, averaged.
    double rate = 0.0;      ///< Median over blocks of items per second.
    std::size_t blocks = 0;
  };
  Stats stats() const;
  /// The latencies of the first kFirstKept ops, in completion order.
  static constexpr std::size_t kFirstKept = 64;
  std::vector<double> first_latencies() const;

 private:
  struct Block {
    std::vector<double> latency;
    double items = 0.0;
    double span_s = 0.0;
  };
  struct Summary {
    double p50 = 0.0, tail = 0.0, pct = 50.0, rate = 0.0;
  };
  static Summary summarize(Block block);

  std::size_t block_ops_;
  Block prev_, cur_;            // the last two blocks, raw
  std::vector<Summary> done_;   // every block before them
  std::vector<double> first_;
  Clock::time_point last_{};
  std::size_t attempted_ = 0, failed_ = 0;
  double items_ = 0.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Shortest round-trip decimal form of `v` (every digit that was measured).
std::string format_number(double v);

/// The last stdout line of a run: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}.
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics);

/// Everything a traced run keeps from the span stream: the durations of
/// the benchmark's own layer spans (by name) and the self time of every
/// span, program spans included, summed per layer (the name up to its
/// first '.'). Records are folded in batch by batch, so memory stays flat
/// however long the run is.
class SpanLog {
 public:
  /// Drains every buffered span (and the trace-event buffer, which is not
  /// used) into the log. Returns the number of spans drained.
  std::size_t drain();

  /// Durations in seconds of every span named `name`, in start order.
  const std::vector<double>& durations(const std::string& name) const;

  struct LayerSelf {
    std::uint64_t spans = 0;
    double self_s = 0.0;
  };
  const std::map<std::string, LayerSelf>& layers() const { return layers_; }

  std::uint64_t spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::map<std::string, std::vector<double>> durations_;
  std::map<std::string, LayerSelf> layers_;
  std::uint64_t spans_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Counter totals summed over successive registry drains.
class CounterLog {
 public:
  void drain();
  double get(const std::string& name) const;
  /// Sum over every counter whose name starts with `prefix` and ends with
  /// `suffix`.
  double sum(const std::string& prefix, const std::string& suffix) const;

 private:
  std::map<std::string, double> totals_;
};

/// Switches metric and span collection on or off for the whole process.
void set_collection(bool on);

}  // namespace perfbench
