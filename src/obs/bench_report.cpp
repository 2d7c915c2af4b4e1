#include "obs/bench_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <thread>

#include "base/require.h"
#include "base/simd.h"
#include "obs/config.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/span.h"

namespace msts::obs {

double bench_scale() {
  const auto v = env_double("MSTS_BENCH_SCALE", 1e-6, 1.0);
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

int resolved_thread_count() {
  // Mirrors stats::max_threads() without depending on msts_stats (the
  // dependency runs the other way: stats uses obs for env parsing).
  if (const auto v = env_int("MSTS_THREADS", 1, 4096)) return static_cast<int>(*v);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

BenchReport::BenchReport(std::string name)
    : name_(std::move(name)),
      threads_(resolved_thread_count()),
      start_(std::chrono::steady_clock::now()) {
  MSTS_REQUIRE(!name_.empty(), "bench report needs a name");
  // Every report carries the active SIMD backend so per-ISA baselines can be
  // matched (bench_compare) and cross-host bench_trend series segmented.
  // "simd."-prefixed scalars are informational: the compare/trend tools skip
  // them when hunting regressions.
  const simd::Kernels& k = simd::kernels();
  add_label("simd.isa", simd::isa_name(k.isa));
  add_scalar("simd.f64_width", static_cast<std::int64_t>(k.f64_width));
  add_scalar("simd.fault_words", static_cast<std::int64_t>(k.fault_words));
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

  json::Writer w;
  w.begin_object();
  w.kv("bench", std::string_view(name_));
  w.kv("schema_version", std::int64_t{1});
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
  if (metrics_enabled()) {
    w.key("metrics").begin_array();
    for (const Metric& m : Registry::instance().snapshot()) {
      w.begin_object();
      w.kv("name", std::string_view(m.name));
      w.kv("kind", to_string(m.kind));
      w.kv("count", m.count);
      if (m.kind == Metric::Kind::kTimer) {
        w.kv("total_ns", m.total_ns);
        w.kv("min_ns", m.min_ns);
        w.kv("max_ns", m.max_ns);
      }
      w.end_object();
    }
    w.end_array();
  }
  // Spans drain once per report: the drained batch feeds the per-stage
  // attribution (JSON + stdout) and, when MSTS_TRACE_PATH is set, the
  // Chrome/Perfetto export.
  std::vector<SpanRecord> spans;
  std::uint64_t spans_lost = 0;
  std::vector<StageAttribution> stages;
  if (trace_enabled()) {
    spans_lost = spans_dropped();  // read before the drain resets it
    spans = spans_drain();
    stages = latency_attribution(spans);
    w.kv("spans", static_cast<std::uint64_t>(spans.size()));
    w.kv("spans_dropped", spans_lost);
    w.key("span_stages").begin_array();
    for (const StageAttribution& s : stages) {
      w.begin_object();
      w.kv("name", std::string_view(s.name));
      w.kv("count", s.count);
      w.kv("total_ns", s.total_ns);
      w.kv("min_ns", s.min_ns);
      w.kv("max_ns", s.max_ns);
      w.kv("p50_ns", attribution_quantile_ns(s, 0.5));
      w.kv("p99_ns", attribution_quantile_ns(s, 0.99));
      w.end_object();
    }
    w.end_array();
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
  if (!stages.empty()) {
    std::printf("%s", attribution_to_text(stages).c_str());
    if (spans_lost > 0) {
      std::printf("[obs]   (%llu span%s dropped by full ring buffers)\n",
                  static_cast<unsigned long long>(spans_lost),
                  spans_lost == 1 ? "" : "s");
    }
    const std::string trace_file = trace_path();
    if (!trace_file.empty()) {
      if (spans_write_chrome(trace_file, spans)) {
        std::printf("[obs]   trace: %s (%zu spans; load in ui.perfetto.dev)\n",
                    trace_file.c_str(), spans.size());
      } else {
        ok = false;
      }
    }
  }
  return ok;
}

}  // namespace msts::obs
