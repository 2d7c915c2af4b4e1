#include "obs/span.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string_view>

#include "obs/json.h"

namespace msts::obs {

namespace {

std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_tid{1};

thread_local SpanId t_current_span = 0;
thread_local std::uint32_t t_tid = 0;

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
  Registry::instance().span_record(rec_, switches_);
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

void span_emit(const SpanRecord& rec) {
  if (const std::uint8_t on = switches(); on != 0) {
    Registry::instance().span_record(rec, on);
  }
}

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

}  // namespace msts::obs
