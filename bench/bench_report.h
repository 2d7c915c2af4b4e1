// Machine-readable bench telemetry: one BENCH_<name>.json per bench run.
//
// Every bench constructs a BenchReport, brackets its work in named phases,
// records its headline scalars, and lets the destructor (or an explicit
// write()) emit
//   * BENCH_<name>.json — phases with wall times, thread count, scale,
//     scalars, plus the metric snapshot when MSTS_METRICS is on — the file
//     the perf-trajectory tooling tracks; and
//   * a short human summary on stdout.
//
// JSON schema (schema_version 1, kSchemaVersion in report_io.h, which reads
// it back):
// {
//   "bench": "<name>", "schema_version": 1,
//   "threads": <int>, "scale": <double>,
//   "phases": [ {"name": "<phase>", "wall_s": <double>}, ... ],
//   "total_wall_s": <double>,
//   "scalars": { "<key>": <double>, ... },
//   "labels":  { "<key>": "<string>", ... },          // optional
//   "metrics": [ {"name": ..., "kind": ..., "count": ...,
//                 "total_ns": ..., "min_ns": ..., "max_ns": ...,
//                 "p50_ns": ..., "p99_ns": ...}, ... ],  // MSTS_METRICS only;
//                                                        // *_ns on timers only
//   "spans": <int>, "spans_dropped": <int>            // MSTS_TRACE only
// }
//
// With metrics on, the timers are the per-stage latency aggregate: every
// span records one under its own name, and write() prints them as a stdout
// table (count, total, p50 / p99 from the timer's log2 bins, max), most
// total time first. With tracing on, write() drains the span buffers
// (obs/span.h) and, when MSTS_TRACE_PATH is set, exports the batch as a
// Chrome/Perfetto trace-event file. The "simd."-prefixed scalars and label
// record the active SIMD backend (report_io.h, is_informational).
//
// The output directory defaults to the build tree the benches were configured
// in (MSTS_BENCH_JSON_DEFAULT_DIR, injected by CMake; the working directory
// otherwise); MSTS_BENCH_JSON_DIR overrides it. MSTS_BENCH_SCALE in (0, 1]
// shrinks trial counts through the scaled_* helpers below — the bench_smoke
// CTest label runs every bench that way.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace msts::benchtool {

/// MSTS_BENCH_SCALE in (0, 1]; 1.0 when unset. Malformed values throw.
double bench_scale();

/// `full` trials scaled by bench_scale(), floored at `min_trials`.
std::size_t scaled_trials(std::size_t full, std::size_t min_trials);

/// Power-of-two record length scaled by bench_scale(), rounded down to a
/// power of two and floored at `min_record` (itself a power of two).
std::size_t scaled_record(std::size_t full, std::size_t min_record);

/// Subsampling stride: `base_stride` at full scale, multiplied by
/// ceil(1 / scale) under bench_scale() < 1. Use to thin fault universes.
std::size_t scaled_stride(std::size_t base_stride);

class BenchReport {
 public:
  /// `name` without the BENCH_ prefix or .json suffix (e.g. "table2_fcl_yl").
  explicit BenchReport(std::string name);

  /// Writes the report if it has not been written yet.
  ~BenchReport();

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  /// RAII phase handle; closes the phase when it leaves scope.
  class Phase {
   public:
    explicit Phase(BenchReport* report) : report_(report) {}
    Phase(Phase&& o) noexcept : report_(std::exchange(o.report_, nullptr)) {}
    Phase& operator=(Phase&&) = delete;
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;
    ~Phase() {
      if (report_ != nullptr) report_->phase_end();
    }

   private:
    BenchReport* report_;
  };

  /// Opens a phase; phases are sequential (no nesting).
  [[nodiscard]] Phase phase(std::string label);
  void phase_start(std::string label);
  void phase_end();

  /// Wall time of the most recently closed phase (0.0 before the first one).
  /// Lets a bench print per-stage timings without keeping its own clock.
  double last_phase_wall_s() const {
    return phases_.empty() ? 0.0 : phases_.back().wall_s;
  }

  /// Headline results. Scalars land under "scalars", strings under "labels".
  void add_scalar(std::string key, double value);
  void add_scalar(std::string key, std::int64_t value) {
    add_scalar(std::move(key), static_cast<double>(value));
  }
  void add_label(std::string key, std::string value);

  /// Worker count recorded in the report: stats::max_threads().
  int threads() const { return threads_; }

  /// Emits BENCH_<name>.json and the human summary. Idempotent; called by
  /// the destructor when not invoked explicitly. Returns false (and prints
  /// to stderr) when the file cannot be written.
  bool write();

  /// The full path the JSON lands at.
  std::string json_path() const;

 private:
  struct PhaseRecord {
    std::string label;
    double wall_s = 0.0;
  };

  std::string name_;
  int threads_ = 1;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point phase_start_;
  std::string open_phase_;
  bool phase_open_ = false;
  bool written_ = false;
  std::vector<PhaseRecord> phases_;
  std::vector<std::pair<std::string, double>> scalars_;
  std::vector<std::pair<std::string, std::string>> labels_;
};

}  // namespace msts::benchtool
