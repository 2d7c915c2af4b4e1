// Spans: the toolkit's one scoped instrument.
//
// A Span measures one stage of work — monotonic start, duration, a static
// name, the parent span, the recording thread and up to kMaxNotes small
// key/value annotations. What it records follows the two switches of
// obs/config.h, read once at construction:
//  * metrics on — one registry timer sample under the span's own name
//    (obs/registry.h), so a stage's count / total / min / max and log2
//    duration bins land in every metric snapshot;
//  * trace on — an id, the thread's parent cursor and a ring record; the
//    records from every thread assemble into a per-request span *tree*
//    (service request -> queue wait / cache probe / execute -> synthesize
//    -> threshold studies -> parallel tasks -> plan-cache builds).
// With metrics alone a span has no id and touches no cursor (id() is 0).
// With both off it costs one relaxed atomic load in the constructor and one
// branch in the destructor — no clock read, no allocation, no lock — so hot
// paths are instrumented unconditionally.
//
// Buffering: every thread writes into a fixed-capacity ring that lives in
// its registry sink, next to the thread's metric cells (obs/registry.h) —
// one registration, one retire at thread exit, and one uncontended lock per
// recorded span, even when the span records both its timer and its ring
// record. spans_drain() atomically collects-and-clears retired records plus
// every live ring. A full ring overwrites its oldest record and counts it in
// spans_dropped(), so `drained + dropped` always conserves the number of
// spans emitted — the same conservation contract Registry::drain() gives
// counters.
//
// Parenting: each thread keeps a current-span cursor; a Span constructed
// without an explicit parent nests under the thread's innermost open span.
// Work handed to another thread (service requests, parallel_for_index
// blocks) captures Span::current() *before* dispatch and passes it as the
// explicit parent, which stitches the tree across threads. Manual emission
// (span_record_between + span_emit) covers stages whose endpoints are
// existing time_points, e.g. a request's queue wait — the span's duration
// then reconciles exactly with the durations computed from the same time
// points.
//
// Exporter: spans_to_chrome_json writes Chrome/Perfetto trace-event JSON
// ("X" complete slices per thread; records marked `async` become "b"/"e"
// nestable async events so overlapping per-request spans get their own
// tracks). Load the file in ui.perfetto.dev or chrome://tracing.
// MSTS_TRACE_PATH (see obs/config.h) names the export file: the benches'
// report writer (bench/bench_report.h) flushes the drained batch there, and
// spans_flush_to_trace_path() does the same for programs without a bench
// report.
//
// Stage latency is not aggregated here: each span's timer already carries
// its stage's count / total / min / max and log2 bins (obs::quantile_ns),
// and the benches' report writer prints the per-stage table from them.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/config.h"
#include "obs/registry.h"

namespace msts::obs {

/// Process-unique span identity. 0 means "no span" (root parent).
using SpanId = std::uint64_t;

/// One annotation. Keys are static strings; values are numeric so a note
/// never allocates (string-ish payloads belong in logs).
struct SpanNote {
  const char* key = nullptr;
  enum class Type : std::uint8_t { kInt, kDouble } type = Type::kInt;
  union {
    std::int64_t i;
    double d;
  };
};

/// A finished span as stored in the ring buffers and returned by
/// spans_drain(). Plain value type, no heap members.
struct SpanRecord {
  static constexpr std::size_t kMaxNotes = 4;

  const char* name = "";     ///< Static string (stage name).
  SpanId id = 0;
  SpanId parent = 0;         ///< 0 = root.
  std::uint32_t tid = 0;     ///< Small stable per-thread id (see span_thread_id).
  bool async = false;        ///< Export as an async track (overlapping spans).
  std::uint8_t note_count = 0;
  std::uint64_t start_ns = 0;  ///< Monotonic, relative to the process epoch.
  std::uint64_t dur_ns = 0;
  std::array<SpanNote, kMaxNotes> notes{};
};

/// RAII span. `name` must be a string literal (it is stored by pointer).
class Span {
 public:
  /// Nests under the calling thread's innermost open span.
  explicit Span(const char* name) : switches_(switches()) {
    if (switches_ != 0) open(name, 0, /*inherit=*/true);
  }
  /// Explicit parent: use for work dispatched across threads (capture
  /// Span::current() on the submitting thread). parent == 0 makes a root.
  Span(const char* name, SpanId parent) : switches_(switches()) {
    if (switches_ != 0) open(name, parent, /*inherit=*/false);
  }
  ~Span() {
    if (switches_ != 0) close();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach a small annotation; silently dropped unless tracing was on at
  /// construction, or when kMaxNotes are already attached.
  void note(const char* key, std::int64_t v);
  void note(const char* key, double v);

  /// This span's id (0 unless tracing was on at construction).
  SpanId id() const { return rec_.id; }
  /// True when either switch was on at construction.
  bool armed() const { return switches_ != 0; }

  /// The calling thread's innermost open span id, 0 when none / tracing off.
  static SpanId current();

 private:
  void open(const char* name, SpanId parent, bool inherit);
  void close();

  std::uint8_t switches_;  ///< obs::switches() at construction.
  SpanId saved_current_ = 0;
  SpanRecord rec_;
};

/// Sets the calling thread's current-span cursor for a scope without opening
/// a span — used when a stage's record is emitted manually but nested work
/// (e.g. core.synthesize under the service execute stage) should still
/// parent under it. id == 0 is a no-op.
class SpanParentScope {
 public:
  explicit SpanParentScope(SpanId id);
  ~SpanParentScope();
  SpanParentScope(const SpanParentScope&) = delete;
  SpanParentScope& operator=(const SpanParentScope&) = delete;

 private:
  bool armed_;
  SpanId saved_ = 0;
};

/// Allocates a fresh span id (for manual emission). Never returns 0.
SpanId span_allocate_id();

/// The process epoch all span timestamps are relative to.
std::chrono::steady_clock::time_point span_epoch();

/// Nanoseconds since span_epoch() for an arbitrary steady_clock time point
/// (clamped at 0 for points before the epoch).
std::uint64_t span_ns_since_epoch(std::chrono::steady_clock::time_point tp);

/// This thread's small stable id as recorded in SpanRecord::tid.
std::uint32_t span_thread_id();

/// Builds a record for a stage bounded by two existing time points, id'd
/// with `id` (pass span_allocate_id()) under `parent`. Duration clamps at 0
/// exactly like the service timers, so span durations reconcile with them.
SpanRecord span_record_between(const char* name, SpanId id, SpanId parent,
                               bool async,
                               std::chrono::steady_clock::time_point start,
                               std::chrono::steady_clock::time_point end);

/// Records a finished record by the Span rule: a timer sample under
/// rec.name when metrics are on, and a ring record in the calling thread's
/// buffer when tracing is on and the record has an id (a Span built with
/// tracing off has none either). Costs one load while both are off.
void span_emit(const SpanRecord& rec);

/// Atomic collect-and-clear over every live ring plus the retired records
/// of exited threads, sorted by (start_ns, id). Resets spans_dropped().
std::vector<SpanRecord> spans_drain();

/// Records overwritten by full rings (or lost retiring past the retired-
/// buffer cap) since the last drain. drained + dropped conserves emissions.
std::uint64_t spans_dropped();

/// Per-thread ring capacity (exposed for the overflow tests).
std::size_t span_ring_capacity();

/// Chrome/Perfetto trace-event JSON for a drained batch (see file comment).
std::string spans_to_chrome_json(const std::vector<SpanRecord>& spans);

/// Writes spans_to_chrome_json to `path` (truncating). False + stderr note
/// on IO failure.
bool spans_write_chrome(const std::string& path,
                        const std::vector<SpanRecord>& spans);

/// Drains every buffered span and exports to the configured MSTS_TRACE_PATH.
/// Returns the number of records written; 0 (and drains nothing) when no
/// trace path is configured.
std::size_t spans_flush_to_trace_path();

}  // namespace msts::obs
