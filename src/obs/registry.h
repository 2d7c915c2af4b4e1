// Process-wide metric registry: counters, timers and histograms.
//
// Collection model: every thread writes into its own thread-local sink (one
// short uncontended lock per update, taken only so snapshots can read live
// sinks safely); sinks merge into the registry when their thread exits, and
// snapshot() folds the retired totals together with every live sink on
// demand. All stored quantities are integers combined with commutative,
// associative operations (sums, min, max, bin counts), so the merged totals
// are independent of thread scheduling and merge order — the "deterministic
// merge" half of the obs contract. (Wall-clock *durations* are inherently
// non-deterministic; the determinism guarantee is that, for deterministic
// inputs, counter totals, sample counts and histogram bins are bit-identical
// at any thread count.) The exception is the metrics that describe the
// schedule itself: the sched.* and stats.parallel_for.* counters (chunks,
// steals, serial vs parallel runs), the sched.queue_depth histogram, and
// the span timers of the scheduler regions — sched.task (one sample per
// chunk), sched.run and stats.parallel_for (none on the serial path). Their
// sample counts follow the thread count and the schedule by design.
//
// Thread lifetime contract: a sink merges eagerly into the registry's
// retired totals when its thread exits (the thread_local destructor), and
// that merge serializes with snapshot(), drain() and reset() on the registry
// mutex. Threads may therefore be spawned and joined freely around drains —
// a worker that exits between requests never drops its counts. Every update
// lands in exactly one of: the sink a snapshot reads, or the retired totals.
// The only forbidden pattern is recording metrics from *another*
// thread_local object's destructor that runs after this thread's sink was
// destroyed (standard thread_local teardown order): that would touch a dead
// sink. Record metrics from ordinary code, never from thread_local
// destructors.
//
// Collect-and-clear: drain() atomically snapshots and zeroes everything
// under one registry lock, so periodic collectors (the service layer's
// stats publisher, benches sampling between phases) never lose updates that
// land between a snapshot() and a reset().
//
// When metrics are disabled (obs::metrics_enabled() == false) the free
// functions below return after a single relaxed atomic load: no clock read,
// no allocation, no lock. Hot loops may be instrumented unconditionally.
// Timers are recorded by spans (obs/span.h), which time a scope under the
// span's own name.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/config.h"

namespace msts::obs {

/// One merged metric as returned by Registry::snapshot().
struct Metric {
  enum class Kind : std::uint8_t { kCounter, kTimer, kHistogram };

  /// Histogram bins: bin 0 collects non-positive and non-finite samples;
  /// bin k >= 1 collects samples with floor(log2(v)) == k - 33, i.e. powers
  /// of two from 2^-32 up to 2^30, clamping at both ends.
  static constexpr std::size_t kHistBins = 64;

  std::string name;
  Kind kind = Kind::kCounter;
  std::uint64_t count = 0;     ///< Increments (counter) or samples (timer/histogram).
  std::uint64_t total_ns = 0;  ///< Timers: accumulated nanoseconds.
  std::uint64_t min_ns = 0;    ///< Timers: shortest sample.
  std::uint64_t max_ns = 0;    ///< Timers: longest sample.
  std::array<std::uint64_t, kHistBins> bins{};  ///< Histograms only.
};

const char* to_string(Metric::Kind kind);

/// Log2 bin index a histogram sample lands in (see Metric::kHistBins).
std::size_t histogram_bin_of(double value);

/// The process-wide registry. Never destroyed (threads may outlive static
/// destruction order), so taking instance() is always safe.
class Registry {
 public:
  static Registry& instance();

  /// Direct recording entry points. These collect unconditionally — use the
  /// free functions below at instrumentation sites so disabled mode stays
  /// a no-op.
  void counter_add(std::string_view name, std::uint64_t delta);
  void timer_record_ns(std::string_view name, std::uint64_t ns);
  void histogram_record(std::string_view name, double value);

  /// Merged view of every metric, sorted by name. Deterministic in the
  /// sense documented at the top of this header.
  std::vector<Metric> snapshot() const;

  /// Atomic collect-and-clear: returns the merged view (as snapshot would)
  /// and zeroes the retired totals and every live sink under a single
  /// registry lock. Updates racing a drain land either in the returned view
  /// or in the registry afterwards — never both, never neither — so summing
  /// successive drains conserves every recorded count.
  std::vector<Metric> drain();

  /// Drops every recorded value (live sinks and retired totals).
  void reset();

 private:
  Registry() = default;
  struct Impl;
  Impl* impl();
  const Impl* impl() const;
};

/// Adds `delta` to counter `name`. No-op unless metrics are enabled.
inline void counter_add(std::string_view name, std::uint64_t delta = 1) {
  if (metrics_enabled()) Registry::instance().counter_add(name, delta);
}

/// Records one duration sample on timer `name`. No-op unless enabled.
inline void timer_record_ns(std::string_view name, std::uint64_t ns) {
  if (metrics_enabled()) Registry::instance().timer_record_ns(name, ns);
}

/// Records one histogram sample. No-op unless enabled.
inline void histogram_record(std::string_view name, double value) {
  if (metrics_enabled()) Registry::instance().histogram_record(name, value);
}

}  // namespace msts::obs
