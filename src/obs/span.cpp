#include "obs/span.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string_view>

#include "obs/json.h"

namespace msts::obs {

namespace {

// Per-thread ring capacity. A SpanRecord is ~120 bytes, so a full ring is
// ~4 MiB per tracing thread — big enough that a scaled bench run fits, small
// enough that a forgotten MSTS_TRACE=1 cannot exhaust memory. A full ring
// overwrites its oldest record (keeping the most recent spans, which are the
// ones a slow-request investigation needs) and counts the loss.
constexpr std::size_t kRingCapacity = std::size_t{1} << 15;

// Retired records (from exited threads) kept until the next drain.
constexpr std::size_t kRetiredCapacity = std::size_t{1} << 20;

std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_tid{1};

thread_local SpanId t_current_span = 0;
thread_local std::uint32_t t_tid = 0;

struct Collector;

struct Sink {
  mutable std::mutex mu;  // taken per-emit (uncontended) and by drains
  std::vector<SpanRecord> ring;
  std::size_t head = 0;   // index of the oldest record
  std::size_t count = 0;
  std::uint64_t dropped = 0;
  Collector* owner = nullptr;

  ~Sink();

  // Callers hold mu.
  void push(const SpanRecord& rec) {
    if (ring.empty()) ring.resize(kRingCapacity);
    if (count == kRingCapacity) {
      ring[head] = rec;
      head = (head + 1) % kRingCapacity;
      ++dropped;
    } else {
      ring[(head + count) % kRingCapacity] = rec;
      ++count;
    }
  }

  // Callers hold mu. Appends records oldest-first and empties the ring.
  void take_into(std::vector<SpanRecord>& out) {
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(ring[(head + i) % kRingCapacity]);
    }
    head = 0;
    count = 0;
  }
};

// Owns the live sinks and the retired records. Leaked (never destroyed) so
// sinks of late-exiting threads always find it; mirrors Registry::Impl.
struct Collector {
  std::mutex mu;  // guards sinks/retired/retired_dropped; ordered before Sink::mu
  std::vector<Sink*> sinks;
  std::vector<SpanRecord> retired;
  std::uint64_t retired_dropped = 0;

  static Collector& instance() {
    static Collector* the = new Collector;
    return *the;
  }

  Sink& local_sink() {
    thread_local Sink sink;
    if (sink.owner == nullptr) {
      std::lock_guard<std::mutex> lock(mu);
      sink.owner = this;
      sinks.push_back(&sink);
    }
    return sink;
  }

  void retire(Sink& sink) {
    std::lock_guard<std::mutex> lock(mu);
    sinks.erase(std::remove(sinks.begin(), sinks.end(), &sink), sinks.end());
    std::lock_guard<std::mutex> sink_lock(sink.mu);
    retired_dropped += sink.dropped;
    sink.dropped = 0;
    for (std::size_t i = 0; i < sink.count; ++i) {
      if (retired.size() >= kRetiredCapacity) {
        ++retired_dropped;
        continue;
      }
      retired.push_back(sink.ring[(sink.head + i) % kRingCapacity]);
    }
    sink.head = 0;
    sink.count = 0;
  }
};

Sink::~Sink() {
  if (owner != nullptr) owner->retire(*this);
}

// The Span rule, shared by Span::close() and span_emit(): a timer sample
// under the span's own name with metrics on, a ring record with tracing on.
// Records without an id were built with tracing off and stay out of the
// ring, exactly like a Span constructed then.
void record(const SpanRecord& rec, std::uint8_t on) {
  if ((on & kMetricsOn) != 0) Registry::instance().timer_record_ns(rec.name, rec.dur_ns);
  if ((on & kTraceOn) != 0 && rec.id != 0) {
    Sink& s = Collector::instance().local_sink();
    std::lock_guard<std::mutex> lock(s.mu);
    s.push(rec);
  }
}

}  // namespace

SpanId span_allocate_id() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

std::chrono::steady_clock::time_point span_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

std::uint64_t span_ns_since_epoch(std::chrono::steady_clock::time_point tp) {
  const auto d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(tp - span_epoch())
          .count();
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

std::uint32_t span_thread_id() {
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return t_tid;
}

void Span::open(const char* name, SpanId parent, bool inherit) {
  rec_.name = name;
  if ((switches_ & kTraceOn) != 0) {
    rec_.id = span_allocate_id();
    rec_.parent = inherit ? t_current_span : parent;
    rec_.tid = span_thread_id();
    saved_current_ = t_current_span;
    t_current_span = rec_.id;
  }
  rec_.start_ns = span_ns_since_epoch(std::chrono::steady_clock::now());
}

void Span::close() {
  const std::uint64_t end_ns =
      span_ns_since_epoch(std::chrono::steady_clock::now());
  rec_.dur_ns = end_ns > rec_.start_ns ? end_ns - rec_.start_ns : 0;
  if ((switches_ & kTraceOn) != 0) t_current_span = saved_current_;
  record(rec_, switches_);
}

void Span::note(const char* key, std::int64_t v) {
  if ((switches_ & kTraceOn) == 0 || rec_.note_count >= SpanRecord::kMaxNotes) return;
  SpanNote& n = rec_.notes[rec_.note_count++];
  n.key = key;
  n.type = SpanNote::Type::kInt;
  n.i = v;
}

void Span::note(const char* key, double v) {
  if ((switches_ & kTraceOn) == 0 || rec_.note_count >= SpanRecord::kMaxNotes) return;
  SpanNote& n = rec_.notes[rec_.note_count++];
  n.key = key;
  n.type = SpanNote::Type::kDouble;
  n.d = v;
}

SpanId Span::current() { return t_current_span; }

SpanParentScope::SpanParentScope(SpanId id) : armed_(id != 0) {
  if (!armed_) return;
  saved_ = t_current_span;
  t_current_span = id;
}

SpanParentScope::~SpanParentScope() {
  if (armed_) t_current_span = saved_;
}

SpanRecord span_record_between(const char* name, SpanId id, SpanId parent,
                               bool async,
                               std::chrono::steady_clock::time_point start,
                               std::chrono::steady_clock::time_point end) {
  SpanRecord rec;
  rec.name = name;
  rec.id = id;
  rec.parent = parent;
  rec.tid = span_thread_id();
  rec.async = async;
  rec.start_ns = span_ns_since_epoch(start);
  // Clamp exactly like the service timers (ns_between): a stage is never
  // negative, so span sums reconcile with queue-wait/exec totals.
  const auto d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
  rec.dur_ns = d > 0 ? static_cast<std::uint64_t>(d) : 0;
  return rec;
}

void span_emit(const SpanRecord& rec) { record(rec, switches()); }

std::vector<SpanRecord> spans_drain() {
  Collector& c = Collector::instance();
  std::vector<SpanRecord> out;
  {
    // One collector lock covers the whole collect-and-clear; sink retirement
    // (thread exit) takes the same lock, so an exiting thread's spans land
    // either in this drain or in `retired` for the next one — never nowhere.
    std::lock_guard<std::mutex> lock(c.mu);
    out.swap(c.retired);
    c.retired_dropped = 0;
    for (Sink* sink : c.sinks) {
      std::lock_guard<std::mutex> sink_lock(sink->mu);
      sink->dropped = 0;
      sink->take_into(out);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                     return a.id < b.id;
                   });
  return out;
}

std::uint64_t spans_dropped() {
  Collector& c = Collector::instance();
  std::lock_guard<std::mutex> lock(c.mu);
  std::uint64_t total = c.retired_dropped;
  for (const Sink* sink : c.sinks) {
    std::lock_guard<std::mutex> sink_lock(sink->mu);
    total += sink->dropped;
  }
  return total;
}

std::size_t span_ring_capacity() { return kRingCapacity; }

namespace {

void write_note_fields(json::Writer& w, const SpanRecord& rec) {
  for (std::uint8_t i = 0; i < rec.note_count; ++i) {
    const SpanNote& n = rec.notes[i];
    w.key(n.key);
    if (n.type == SpanNote::Type::kInt) {
      w.value(n.i);
    } else {
      w.value(n.d);
    }
  }
}

std::string hex_id(SpanId id) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%" PRIx64, id);
  return buf;
}

void write_common(json::Writer& w, const SpanRecord& rec) {
  w.kv("name", rec.name);
  w.kv("pid", std::int64_t{1});
  w.kv("tid", static_cast<std::int64_t>(rec.tid));
}

}  // namespace

std::string spans_to_chrome_json(const std::vector<SpanRecord>& spans) {
  json::Writer w;
  w.begin_object();
  w.key("traceEvents").begin_array();

  // Process-name metadata so Perfetto labels the single-process track group.
  w.begin_object();
  w.kv("name", "process_name");
  w.kv("ph", "M");
  w.kv("pid", std::int64_t{1});
  w.key("args").begin_object();
  w.kv("name", "msts");
  w.end_object();
  w.end_object();

  for (const SpanRecord& rec : spans) {
    const double ts_us = static_cast<double>(rec.start_ns) / 1e3;
    const double dur_us = static_cast<double>(rec.dur_ns) / 1e3;
    if (rec.async) {
      // Nestable async pair: overlapping per-request spans each get their
      // own track. Children (one level, e.g. queue_wait under the request
      // root) share the parent's id so they stack on the same track.
      const std::string id = hex_id(rec.parent != 0 ? rec.parent : rec.id);
      w.begin_object();
      write_common(w, rec);
      w.kv("cat", "msts.request");
      w.kv("ph", "b");
      w.kv("id", std::string_view(id));
      w.kv("ts", ts_us);
      w.key("args").begin_object();
      w.kv("span_id", rec.id);
      w.kv("parent", rec.parent);
      write_note_fields(w, rec);
      w.end_object();
      w.end_object();

      w.begin_object();
      write_common(w, rec);
      w.kv("cat", "msts.request");
      w.kv("ph", "e");
      w.kv("id", std::string_view(id));
      w.kv("ts", ts_us + dur_us);
      w.end_object();
    } else {
      w.begin_object();
      write_common(w, rec);
      w.kv("cat", "msts");
      w.kv("ph", "X");
      w.kv("ts", ts_us);
      w.kv("dur", dur_us);
      w.key("args").begin_object();
      w.kv("span_id", rec.id);
      w.kv("parent", rec.parent);
      write_note_fields(w, rec);
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  return w.str();
}

bool spans_write_chrome(const std::string& path,
                        const std::vector<SpanRecord>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (out) out << spans_to_chrome_json(spans) << '\n';
  const bool ok = static_cast<bool>(out);
  if (!ok) {
    std::fprintf(stderr, "[obs] could not write trace %s\n", path.c_str());
  }
  return ok;
}

std::size_t spans_flush_to_trace_path() {
  const std::string path = trace_path();
  if (path.empty()) return 0;
  const std::vector<SpanRecord> spans = spans_drain();
  if (!spans_write_chrome(path, spans)) return 0;
  return spans.size();
}

std::vector<StageAttribution> latency_attribution(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string_view, StageAttribution> by_name;
  for (const SpanRecord& rec : spans) {
    StageAttribution& s = by_name[rec.name];
    if (s.count == 0) {
      s.name = rec.name;
      s.min_ns = rec.dur_ns;
    }
    ++s.count;
    s.total_ns += rec.dur_ns;
    s.min_ns = std::min(s.min_ns, rec.dur_ns);
    s.max_ns = std::max(s.max_ns, rec.dur_ns);
    ++s.bins[histogram_bin_of(1e-9 * static_cast<double>(rec.dur_ns))];
  }
  std::vector<StageAttribution> out;
  out.reserve(by_name.size());
  for (auto& [name, stage] : by_name) out.push_back(std::move(stage));
  std::sort(out.begin(), out.end(),
            [](const StageAttribution& a, const StageAttribution& b) {
              if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
              return a.name < b.name;
            });
  return out;
}

double attribution_quantile_ns(const StageAttribution& stage, double q) {
  if (stage.count == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  const double target = q * static_cast<double>(stage.count);
  std::uint64_t seen = 0;
  for (std::size_t k = 0; k < stage.bins.size(); ++k) {
    seen += stage.bins[k];
    if (static_cast<double>(seen) >= target && stage.bins[k] > 0) {
      // Geometric midpoint of the log2 bin, in seconds (bin k covers
      // [2^(k-33), 2^(k-32)); bin 0 holds non-positive samples).
      const double mid_s =
          k == 0 ? 0.0 : std::exp2(static_cast<double>(k) - 33.0 + 0.5);
      const double ns = mid_s * 1e9;
      return std::min(std::max(ns, static_cast<double>(stage.min_ns)),
                      static_cast<double>(stage.max_ns));
    }
  }
  return static_cast<double>(stage.max_ns);
}

std::string attribution_to_text(const std::vector<StageAttribution>& stages) {
  std::ostringstream os;
  char line[192];
  std::snprintf(line, sizeof line, "%-32s %10s %12s %10s %10s %10s\n", "stage",
                "count", "total_ms", "p50_us", "p99_us", "max_us");
  os << line;
  for (const StageAttribution& s : stages) {
    std::snprintf(line, sizeof line,
                  "%-32s %10" PRIu64 " %12.3f %10.1f %10.1f %10.1f\n",
                  s.name.c_str(), s.count,
                  static_cast<double>(s.total_ns) / 1e6,
                  attribution_quantile_ns(s, 0.50) / 1e3,
                  attribution_quantile_ns(s, 0.99) / 1e3,
                  static_cast<double>(s.max_ns) / 1e3);
    os << line;
  }
  return os.str();
}

}  // namespace msts::obs
