#include "bench_report.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>

#include "base/require.h"
#include "base/simd.h"
#include "obs/config.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "report_io.h"
#include "stats/parallel.h"

namespace msts::benchtool {

using obs::Metric;

double bench_scale() {
  const auto v = obs::env_double("MSTS_BENCH_SCALE", 1e-6, 1.0);
  return v.value_or(1.0);
}

std::size_t scaled_trials(std::size_t full, std::size_t min_trials) {
  const auto scaled =
      static_cast<std::size_t>(std::llround(static_cast<double>(full) * bench_scale()));
  return std::max(min_trials, scaled);
}

std::size_t scaled_record(std::size_t full, std::size_t min_record) {
  const auto target = scaled_trials(full, min_record);
  std::size_t pow2 = min_record;
  while (pow2 * 2 <= target) pow2 *= 2;
  return pow2;
}

std::size_t scaled_stride(std::size_t base_stride) {
  const double s = bench_scale();
  if (s >= 1.0) return base_stride;
  return base_stride * static_cast<std::size_t>(std::ceil(1.0 / s));
}

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Where the time went: one row per timer (a span's stage), most total time
// first, with quantiles from the timer's log2 bins.
void print_stage_table(std::vector<Metric>& timers) {
  std::sort(timers.begin(), timers.end(), [](const Metric& a, const Metric& b) {
    if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
    return a.name < b.name;
  });
  std::printf("%-32s %10s %12s %10s %10s %10s\n", "stage", "count", "total_ms",
              "p50_us", "p99_us", "max_us");
  for (const Metric& m : timers) {
    std::printf("%-32s %10" PRIu64 " %12.3f %10.1f %10.1f %10.1f\n", m.name.c_str(),
                m.count, static_cast<double>(m.total_ns) / 1e6,
                obs::quantile_ns(m, 0.50) / 1e3, obs::quantile_ns(m, 0.99) / 1e3,
                static_cast<double>(m.max_ns) / 1e3);
  }
}

}  // namespace

BenchReport::BenchReport(std::string name)
    : name_(std::move(name)),
      threads_(stats::max_threads()),
      start_(std::chrono::steady_clock::now()) {
  MSTS_REQUIRE(!name_.empty(), "bench report needs a name");
  // Every report carries the active SIMD backend so per-ISA baselines can be
  // matched (bench_compare) and cross-host bench_trend series segmented.
  // These keys are informational: the compare/trend tools skip them when
  // hunting regressions.
  const simd::Kernels& k = simd::kernels();
  add_label(informational_key("isa"), simd::isa_name(k.isa));
  add_scalar(informational_key("f64_width"), static_cast<std::int64_t>(k.f64_width));
  add_scalar(informational_key("fault_words"), static_cast<std::int64_t>(k.fault_words));
}

BenchReport::~BenchReport() {
  if (written_) return;
  try {
    write();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[obs] bench report '%s' failed: %s\n", name_.c_str(),
                 e.what());
  }
}

BenchReport::Phase BenchReport::phase(std::string label) {
  phase_start(std::move(label));
  return Phase(this);
}

void BenchReport::phase_start(std::string label) {
  MSTS_REQUIRE(!phase_open_, "bench phases are sequential; close '" + open_phase_ +
                                 "' before starting '" + label + "'");
  phase_open_ = true;
  open_phase_ = std::move(label);
  phase_start_ = std::chrono::steady_clock::now();
}

void BenchReport::phase_end() {
  MSTS_REQUIRE(phase_open_, "no bench phase is open");
  phase_open_ = false;
  phases_.push_back({std::move(open_phase_), seconds_since(phase_start_)});
}

void BenchReport::add_scalar(std::string key, double value) {
  scalars_.emplace_back(std::move(key), value);
}

void BenchReport::add_label(std::string key, std::string value) {
  labels_.emplace_back(std::move(key), std::move(value));
}

std::string BenchReport::json_path() const {
  const char* dir = std::getenv("MSTS_BENCH_JSON_DIR");
#ifdef MSTS_BENCH_JSON_DEFAULT_DIR
  const char* fallback = MSTS_BENCH_JSON_DEFAULT_DIR;
#else
  const char* fallback = ".";
#endif
  std::string path = (dir != nullptr && dir[0] != '\0') ? dir : fallback;
  if (path.back() != '/') path += '/';
  path += "BENCH_" + name_ + ".json";
  return path;
}

bool BenchReport::write() {
  if (written_) return true;
  written_ = true;
  if (phase_open_) phase_end();
  const double total_s = seconds_since(start_);

  obs::json::Writer w;
  w.begin_object();
  w.kv("bench", std::string_view(name_));
  w.kv("schema_version", std::int64_t{kSchemaVersion});
  w.kv("threads", threads_);
  w.kv("scale", bench_scale());
  w.key("phases").begin_array();
  for (const PhaseRecord& p : phases_) {
    w.begin_object();
    w.kv("name", std::string_view(p.label));
    w.kv("wall_s", p.wall_s);
    w.end_object();
  }
  w.end_array();
  w.kv("total_wall_s", total_s);
  w.key("scalars").begin_object();
  for (const auto& [key, v] : scalars_) w.kv(std::string_view(key), v);
  w.end_object();
  if (!labels_.empty()) {
    w.key("labels").begin_object();
    for (const auto& [key, v] : labels_) w.kv(std::string_view(key), std::string_view(v));
    w.end_object();
  }
  // Timers are the stage aggregate: each carries its p50 / p99 here and
  // a row in the stdout stage table.
  std::vector<Metric> timers;
  if (obs::metrics_enabled()) {
    w.key("metrics").begin_array();
    for (Metric& m : obs::Registry::instance().snapshot()) {
      w.begin_object();
      w.kv("name", std::string_view(m.name));
      w.kv("kind", obs::to_string(m.kind));
      w.kv("count", m.count);
      if (m.kind == Metric::Kind::kTimer) {
        w.kv("total_ns", m.total_ns);
        w.kv("min_ns", m.min_ns);
        w.kv("max_ns", m.max_ns);
        w.kv("p50_ns", obs::quantile_ns(m, 0.5));
        w.kv("p99_ns", obs::quantile_ns(m, 0.99));
        timers.push_back(std::move(m));
      }
      w.end_object();
    }
    w.end_array();
  }
  // Spans drain once per report, into the Chrome/Perfetto export when
  // MSTS_TRACE_PATH is set.
  std::vector<obs::SpanRecord> spans;
  std::uint64_t spans_lost = 0;
  if (obs::trace_enabled()) {
    spans_lost = obs::spans_dropped();  // read before the drain resets it
    spans = obs::spans_drain();
    w.kv("spans", static_cast<std::uint64_t>(spans.size()));
    w.kv("spans_dropped", spans_lost);
  }
  w.end_object();

  const std::string path = json_path();
  std::ofstream out(path, std::ios::trunc);
  if (out) {
    out << w.str() << '\n';
  }
  bool ok = static_cast<bool>(out);
  if (!ok) {
    std::fprintf(stderr, "[obs] could not write %s\n", path.c_str());
  }

  std::printf("\n[obs] %s: %zu phase%s, total %.3f s, %d thread%s", path.c_str(),
              phases_.size(), phases_.size() == 1 ? "" : "s", total_s, threads_,
              threads_ == 1 ? "" : "s");
  if (bench_scale() < 1.0) std::printf(" (scale %.3g)", bench_scale());
  std::printf("\n");
  for (const PhaseRecord& p : phases_) {
    std::printf("[obs]   phase %-24s %8.3f s\n", p.label.c_str(), p.wall_s);
  }
  if (!timers.empty()) print_stage_table(timers);
  if (!spans.empty()) {
    if (spans_lost > 0) {
      std::printf("[obs]   (%llu span%s dropped by full ring buffers)\n",
                  static_cast<unsigned long long>(spans_lost),
                  spans_lost == 1 ? "" : "s");
    }
    const std::string trace_file = obs::trace_path();
    if (!trace_file.empty()) {
      if (obs::spans_write_chrome(trace_file, spans)) {
        std::printf("[obs]   trace: %s (%zu spans; load in ui.perfetto.dev)\n",
                    trace_file.c_str(), spans.size());
      } else {
        ok = false;
      }
    }
  }
  return ok;
}

}  // namespace msts::benchtool
