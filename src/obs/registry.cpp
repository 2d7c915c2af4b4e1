#include "obs/registry.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/span.h"

namespace msts::obs {

const char* to_string(Metric::Kind kind) {
  switch (kind) {
    case Metric::Kind::kCounter: return "counter";
    case Metric::Kind::kTimer: return "timer";
    case Metric::Kind::kHistogram: return "histogram";
  }
  return "?";
}

std::size_t histogram_bin_of(double value) {
  if (!(value > 0.0) || !std::isfinite(value)) return 0;
  // ilogb is exact on the exponent, so binning never depends on rounding.
  const int e = std::ilogb(value);
  const long idx = static_cast<long>(e) + 33;
  if (idx < 1) return 1;
  if (idx >= static_cast<long>(Metric::kHistBins)) return Metric::kHistBins - 1;
  return static_cast<std::size_t>(idx);
}

double quantile_ns(const Metric& timer, double q) {
  if (timer.count == 0) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(timer.count);
  std::uint64_t seen = 0;
  for (std::size_t k = 0; k < timer.bins.size(); ++k) {
    seen += timer.bins[k];
    if (static_cast<double>(seen) >= target && timer.bins[k] > 0) {
      // Geometric midpoint of the log2 bin, in seconds (bin k covers
      // [2^(k-33), 2^(k-32)); bin 0 holds zero durations).
      const double mid_s =
          k == 0 ? 0.0 : std::exp2(static_cast<double>(k) - 33.0 + 0.5);
      return std::min(std::max(mid_s * 1e9, static_cast<double>(timer.min_ns)),
                      static_cast<double>(timer.max_ns));
    }
  }
  return static_cast<double>(timer.max_ns);
}

namespace {

// Per-thread ring capacity. A SpanRecord is ~120 bytes, so a full ring is
// ~4 MiB per tracing thread — big enough that a scaled bench run fits, small
// enough that a forgotten MSTS_TRACE=1 cannot exhaust memory. A full ring
// overwrites its oldest record (keeping the most recent spans, which are the
// ones a slow-request investigation needs) and counts the loss.
constexpr std::size_t kRingCapacity = std::size_t{1} << 15;

// Retired records (from exited threads) kept until the next drain.
constexpr std::size_t kRetiredCapacity = std::size_t{1} << 20;

// Per-metric accumulator. All fields merge with commutative integer
// operations, so totals are independent of merge order.
struct Cell {
  Metric::Kind kind = Metric::Kind::kCounter;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ns = 0;
  std::array<std::uint64_t, Metric::kHistBins> bins{};

  void merge_from(const Cell& o) {
    kind = o.kind;
    count += o.count;
    total_ns += o.total_ns;
    min_ns = std::min(min_ns, o.min_ns);
    max_ns = std::max(max_ns, o.max_ns);
    for (std::size_t i = 0; i < bins.size(); ++i) bins[i] += o.bins[i];
  }
};

using CellMap = std::map<std::string, Cell, std::less<>>;

Cell& cell_of(CellMap& map, std::string_view name, Metric::Kind kind) {
  auto it = map.find(name);
  if (it == map.end()) it = map.emplace(std::string(name), Cell{}).first;
  it->second.kind = kind;
  return it->second;
}

void merge_into(CellMap& into, const CellMap& from) {
  for (const auto& [name, cell] : from) cell_of(into, name, cell.kind).merge_from(cell);
}

struct Collector;

// One thread's metric cells and span ring. The mutex is taken per record
// (uncontended) and by collections reading a live sink.
struct Sink {
  mutable std::mutex mu;
  CellMap cells;
  std::vector<SpanRecord> ring;  // sized on the first traced record
  std::size_t head = 0;          // index of the oldest record
  std::size_t count = 0;
  std::uint64_t dropped = 0;
  Collector* owner = nullptr;

  ~Sink();

  // Callers hold mu.
  void time(std::string_view name, std::uint64_t ns) {
    Cell& c = cell_of(cells, name, Metric::Kind::kTimer);
    ++c.count;
    c.total_ns += ns;
    c.min_ns = std::min(c.min_ns, ns);
    c.max_ns = std::max(c.max_ns, ns);
    ++c.bins[histogram_bin_of(1e-9 * static_cast<double>(ns))];
  }

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

  // Callers hold mu. Appends the ring to `out` oldest-first, stopping at
  // `cap` records, empties it, and returns the records lost: the ones the
  // ring overwrote plus the ones past the cap.
  std::uint64_t take_spans(std::vector<SpanRecord>& out, std::size_t cap) {
    std::uint64_t lost = std::exchange(dropped, 0);
    for (std::size_t i = 0; i < count; ++i) {
      if (out.size() < cap) {
        out.push_back(ring[(head + i) % kRingCapacity]);
      } else {
        ++lost;
      }
    }
    head = 0;
    count = 0;
    return lost;
  }
};

// The live sinks plus what exited threads left behind. Leaked (never
// destroyed) so sinks of late-exiting threads always find it.
struct Collector {
  std::mutex mu;  // guards every member below; ordered before Sink::mu
  std::vector<Sink*> sinks;
  CellMap retired;
  std::vector<SpanRecord> retired_spans;
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
    merge_into(retired, sink.cells);
    sink.cells.clear();
    retired_dropped += sink.take_spans(retired_spans, kRetiredCapacity);
  }
};

Sink::~Sink() {
  if (owner != nullptr) owner->retire(*this);
}

std::vector<Metric> to_metrics(const CellMap& merged) {
  std::vector<Metric> out;
  out.reserve(merged.size());
  for (const auto& [name, cell] : merged) {
    Metric m;
    m.name = name;
    m.kind = cell.kind;
    m.count = cell.count;
    m.total_ns = cell.total_ns;
    m.min_ns = (cell.count == 0 || cell.kind != Metric::Kind::kTimer) ? 0 : cell.min_ns;
    m.max_ns = cell.max_ns;
    m.bins = cell.bins;
    out.push_back(std::move(m));
  }
  return out;  // std::map iteration is already name-sorted
}

}  // namespace

Registry& Registry::instance() {
  static Registry* the = new Registry;
  return *the;
}

void Registry::counter_add(std::string_view name, std::uint64_t delta) {
  Sink& s = Collector::instance().local_sink();
  std::lock_guard<std::mutex> lock(s.mu);
  cell_of(s.cells, name, Metric::Kind::kCounter).count += delta;
}

void Registry::timer_record_ns(std::string_view name, std::uint64_t ns) {
  Sink& s = Collector::instance().local_sink();
  std::lock_guard<std::mutex> lock(s.mu);
  s.time(name, ns);
}

void Registry::histogram_record(std::string_view name, double value) {
  Sink& s = Collector::instance().local_sink();
  std::lock_guard<std::mutex> lock(s.mu);
  Cell& c = cell_of(s.cells, name, Metric::Kind::kHistogram);
  ++c.count;
  ++c.bins[histogram_bin_of(value)];
}

void Registry::span_record(const SpanRecord& rec, std::uint8_t on) {
  const bool timed = (on & kMetricsOn) != 0;
  // Records without an id were built with tracing off and stay out of the
  // ring, exactly like a Span constructed then.
  const bool traced = (on & kTraceOn) != 0 && rec.id != 0;
  if (!timed && !traced) return;
  Sink& s = Collector::instance().local_sink();
  std::lock_guard<std::mutex> lock(s.mu);
  if (timed) s.time(rec.name, rec.dur_ns);
  if (traced) s.push(rec);
}

std::vector<Metric> Registry::snapshot() const {
  Collector& c = Collector::instance();
  CellMap merged;
  {
    std::lock_guard<std::mutex> lock(c.mu);
    merge_into(merged, c.retired);
    for (const Sink* sink : c.sinks) {
      std::lock_guard<std::mutex> sink_lock(sink->mu);
      merge_into(merged, sink->cells);
    }
  }
  return to_metrics(merged);
}

std::vector<Metric> Registry::drain() {
  Collector& c = Collector::instance();
  CellMap merged;
  {
    // One registry lock covers the whole collect-and-clear; sink retirement
    // (thread exit) takes the same lock, so an exiting worker's cells end up
    // either in this drain or intact in `retired` for the next one.
    std::lock_guard<std::mutex> lock(c.mu);
    merged.swap(c.retired);
    for (Sink* sink : c.sinks) {
      std::lock_guard<std::mutex> sink_lock(sink->mu);
      merge_into(merged, sink->cells);
      sink->cells.clear();
    }
  }
  return to_metrics(merged);
}

void Registry::reset() {
  Collector& c = Collector::instance();
  std::lock_guard<std::mutex> lock(c.mu);
  c.retired.clear();
  for (Sink* sink : c.sinks) {
    std::lock_guard<std::mutex> sink_lock(sink->mu);
    sink->cells.clear();
  }
}

// The span-ring half of the collector (declared in obs/span.h).

std::vector<SpanRecord> spans_drain() {
  Collector& c = Collector::instance();
  std::vector<SpanRecord> out;
  {
    // Same lock discipline as Registry::drain(): an exiting thread's spans
    // land either in this drain or in `retired_spans` for the next one.
    std::lock_guard<std::mutex> lock(c.mu);
    out.swap(c.retired_spans);
    c.retired_dropped = 0;
    for (Sink* sink : c.sinks) {
      std::lock_guard<std::mutex> sink_lock(sink->mu);
      (void)sink->take_spans(out, std::numeric_limits<std::size_t>::max());
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

}  // namespace msts::obs
