// Tests for the observability layer (src/obs): config / strict env parsing,
// the metric registry's deterministic merge, spans (timers, records, trees,
// exporters), JSON write + parse round-trips, bench report emission, and the
// disabled-mode contract (true no-op: no allocations on the hot path).
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

// Counts allocations for the no-allocation tests. Counting is process-wide,
// so those tests single-thread themselves and tolerate nothing: any
// allocation between the markers fails them.
#include "counting_new.h"

#include "bench_report.h"
#include "obs/config.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "report_io.h"
#include "stats/parallel.h"
#include "stats/yield.h"

namespace msts::obs {
namespace {

using benchtool::bench_scale;
using benchtool::BenchReport;
using benchtool::scaled_record;
using benchtool::scaled_stride;
using benchtool::scaled_trials;

// Saves and restores the active obs configuration around a test.
class ConfigGuard {
 public:
  ConfigGuard() : saved_(current_config()) {}
  ~ConfigGuard() {
    configure(saved_);
    (void)spans_drain();
  }

 private:
  Config saved_;
};

class EnvVarGuard {
 public:
  explicit EnvVarGuard(const char* name) : name_(name) {
    const char* v = std::getenv(name_);
    had_ = (v != nullptr);
    if (had_) saved_ = v;
  }
  ~EnvVarGuard() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string saved_;
};

Config make_config(bool metrics, bool trace) {
  Config c;
  c.metrics = metrics;
  c.trace = trace;
  return c;
}

// ---------------------------------------------------------------------------
// Config and strict env parsing
// ---------------------------------------------------------------------------

TEST(ObsConfig, ConfigureRoundTrip) {
  ConfigGuard guard;
  configure(make_config(true, false));
  EXPECT_TRUE(metrics_enabled());
  EXPECT_FALSE(trace_enabled());
  configure(make_config(false, true));
  EXPECT_FALSE(metrics_enabled());
  EXPECT_TRUE(trace_enabled());
  configure(make_config(false, false));
  EXPECT_FALSE(metrics_enabled());
  EXPECT_FALSE(trace_enabled());
}

TEST(ObsConfig, EnvFlagAcceptsBooleanSpellingsOnly) {
  EnvVarGuard guard("MSTS_TEST_FLAG");
  ::unsetenv("MSTS_TEST_FLAG");
  EXPECT_FALSE(env_flag("MSTS_TEST_FLAG"));
  for (const char* t : {"1", "true", "TRUE", "on", "Yes"}) {
    ::setenv("MSTS_TEST_FLAG", t, 1);
    EXPECT_TRUE(env_flag("MSTS_TEST_FLAG")) << t;
  }
  for (const char* f : {"0", "false", "off", "NO", ""}) {
    ::setenv("MSTS_TEST_FLAG", f, 1);
    EXPECT_FALSE(env_flag("MSTS_TEST_FLAG")) << "'" << f << "'";
  }
  for (const char* bad : {"2", "maybe", "tru", "yes!"}) {
    ::setenv("MSTS_TEST_FLAG", bad, 1);
    EXPECT_THROW(env_flag("MSTS_TEST_FLAG"), std::invalid_argument) << bad;
  }
}

TEST(ObsConfig, EnvIntStrictness) {
  EnvVarGuard guard("MSTS_TEST_INT");
  ::unsetenv("MSTS_TEST_INT");
  EXPECT_FALSE(env_int("MSTS_TEST_INT", 1, 100).has_value());
  ::setenv("MSTS_TEST_INT", "42", 1);
  EXPECT_EQ(env_int("MSTS_TEST_INT", 1, 100).value(), 42);
  for (const char* bad :
       {"0", "101", "-5", "4.2", "42x", "x", " ", "99999999999999999999"}) {
    ::setenv("MSTS_TEST_INT", bad, 1);
    EXPECT_THROW(env_int("MSTS_TEST_INT", 1, 100), std::invalid_argument)
        << "'" << bad << "'";
  }
  // The message names the variable, the value and the range.
  ::setenv("MSTS_TEST_INT", "banana", 1);
  try {
    (void)env_int("MSTS_TEST_INT", 1, 100);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("MSTS_TEST_INT"), std::string::npos) << msg;
    EXPECT_NE(msg.find("banana"), std::string::npos) << msg;
    EXPECT_NE(msg.find("100"), std::string::npos) << msg;
  }
}

TEST(ObsConfig, EnvDoubleStrictness) {
  EnvVarGuard guard("MSTS_TEST_DBL");
  ::unsetenv("MSTS_TEST_DBL");
  EXPECT_FALSE(env_double("MSTS_TEST_DBL", 0.0, 1.0).has_value());
  ::setenv("MSTS_TEST_DBL", "0.25", 1);
  EXPECT_DOUBLE_EQ(env_double("MSTS_TEST_DBL", 0.0, 1.0).value(), 0.25);
  for (const char* bad : {"-0.1", "1.5", "nan", "inf", "0.2x", "x"}) {
    ::setenv("MSTS_TEST_DBL", bad, 1);
    EXPECT_THROW(env_double("MSTS_TEST_DBL", 0.0, 1.0), std::invalid_argument)
        << "'" << bad << "'";
  }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(ObsRegistry, CountersTimersHistogramsCollectWhenEnabled) {
  ConfigGuard guard;
  configure(make_config(true, false));
  Registry::instance().reset();

  counter_add("t.counter", 2);
  counter_add("t.counter");
  timer_record_ns("t.timer", 100);
  timer_record_ns("t.timer", 300);
  histogram_record("t.hist", 0.5);
  histogram_record("t.hist", 2.0);
  histogram_record("t.hist", -1.0);

  const auto metrics = Registry::instance().snapshot();
  ASSERT_EQ(metrics.size(), 3u);  // sorted by name: counter, hist, timer
  EXPECT_EQ(metrics[0].name, "t.counter");
  EXPECT_EQ(metrics[0].kind, Metric::Kind::kCounter);
  EXPECT_EQ(metrics[0].count, 3u);

  EXPECT_EQ(metrics[1].name, "t.hist");
  EXPECT_EQ(metrics[1].kind, Metric::Kind::kHistogram);
  EXPECT_EQ(metrics[1].count, 3u);
  EXPECT_EQ(metrics[1].bins[histogram_bin_of(0.5)], 1u);
  EXPECT_EQ(metrics[1].bins[histogram_bin_of(2.0)], 1u);
  EXPECT_EQ(metrics[1].bins[0], 1u);  // non-positive sample

  EXPECT_EQ(metrics[2].name, "t.timer");
  EXPECT_EQ(metrics[2].kind, Metric::Kind::kTimer);
  EXPECT_EQ(metrics[2].count, 2u);
  EXPECT_EQ(metrics[2].total_ns, 400u);
  EXPECT_EQ(metrics[2].min_ns, 100u);
  EXPECT_EQ(metrics[2].max_ns, 300u);

  Registry::instance().reset();
  EXPECT_TRUE(Registry::instance().snapshot().empty());
}

TEST(ObsRegistry, NothingCollectsWhenDisabled) {
  ConfigGuard guard;
  configure(make_config(false, false));
  Registry::instance().reset();
  counter_add("t.off", 5);
  timer_record_ns("t.off.timer", 100);
  histogram_record("t.off.hist", 1.0);
  { Span span("t.off.span"); }
  EXPECT_TRUE(Registry::instance().snapshot().empty());
}

TEST(ObsRegistry, HistogramBinEdges) {
  // Bin 0: non-positive and non-finite.
  EXPECT_EQ(histogram_bin_of(0.0), 0u);
  EXPECT_EQ(histogram_bin_of(-3.0), 0u);
  // Powers of two land in consecutive bins; 1.0 = 2^0 -> bin 33.
  EXPECT_EQ(histogram_bin_of(1.0), 33u);
  EXPECT_EQ(histogram_bin_of(2.0), 34u);
  EXPECT_EQ(histogram_bin_of(0.5), 32u);
  EXPECT_EQ(histogram_bin_of(1.5), 33u);  // same bin as 1.0
  // Clamped at both ends.
  EXPECT_EQ(histogram_bin_of(1e-300), 1u);
  EXPECT_EQ(histogram_bin_of(1e300), 63u);
}

// The deterministic-merge half of the obs contract: identical per-index
// updates produce identical snapshots no matter how many threads made them.
TEST(ObsRegistry, MergedTotalsIndependentOfThreadCount) {
  ConfigGuard guard;
  configure(make_config(true, false));

  std::vector<Metric> snapshots[3];
  const int counts[] = {1, 2, 8};
  for (int k = 0; k < 3; ++k) {
    Registry::instance().reset();
    // Dedicated std::threads (not the shared pool): thread exit also
    // exercises the sink-retirement path.
    const int nthreads = counts[k];
    std::vector<std::thread> workers;
    for (int w = 0; w < nthreads; ++w) {
      workers.emplace_back([w, nthreads] {
        for (int i = w; i < 1024; i += nthreads) {
          counter_add("m.count", static_cast<std::uint64_t>(i));
          histogram_record("m.hist", static_cast<double>(i % 37) * 0.25);
          timer_record_ns("m.timer", static_cast<std::uint64_t>(100 + i % 7));
        }
      });
    }
    for (auto& t : workers) t.join();
    snapshots[k] = Registry::instance().snapshot();
  }

  for (int k = 1; k < 3; ++k) {
    ASSERT_EQ(snapshots[0].size(), snapshots[k].size());
    for (std::size_t i = 0; i < snapshots[0].size(); ++i) {
      const Metric& a = snapshots[0][i];
      const Metric& b = snapshots[k][i];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.count, b.count) << a.name << " at " << counts[k] << " threads";
      EXPECT_EQ(a.bins, b.bins) << a.name;
      if (a.kind == Metric::Kind::kTimer) {
        // Durations are wall clock; only the deterministic fields compare.
        EXPECT_GT(b.total_ns, 0u);
      } else {
        EXPECT_EQ(a.total_ns, b.total_ns) << a.name;
      }
    }
  }
  Registry::instance().reset();
}

// The collect-and-clear contract (Registry::drain): with recorder threads
// starting, recording, and *exiting* while a concurrent drainer is running,
// every recorded count lands in exactly one drain — the sum over drains
// conserves the total. This is the service-loop usage pattern (periodic
// metric shipping) and pins the thread-exit retirement lifetime.
TEST(ObsRegistry, DrainConservesCountsAcrossThreadExitAndConcurrentDrains) {
  ConfigGuard guard;
  configure(make_config(true, false));
  Registry::instance().reset();

  constexpr int kRounds = 4;
  constexpr int kRecorders = 4;
  constexpr int kPerRecorder = 5000;
  const auto count_of = [](const std::vector<Metric>& metrics) {
    std::uint64_t total = 0;
    for (const Metric& m : metrics) {
      if (m.name == "drain.count") total += m.count;
    }
    return total;
  };

  std::atomic<std::uint64_t> drained{0};
  std::atomic<bool> stop{false};
  std::thread drainer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      drained.fetch_add(count_of(Registry::instance().drain()),
                        std::memory_order_relaxed);
    }
  });

  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> recorders;
    for (int r = 0; r < kRecorders; ++r) {
      recorders.emplace_back([] {
        for (int i = 0; i < kPerRecorder; ++i) counter_add("drain.count");
      });
    }
    for (auto& t : recorders) t.join();
  }
  stop.store(true, std::memory_order_relaxed);
  drainer.join();
  drained.fetch_add(count_of(Registry::instance().drain()),
                    std::memory_order_relaxed);

  EXPECT_EQ(drained.load(),
            std::uint64_t{kRounds} * kRecorders * kPerRecorder);
  // Drains cleared everything: nothing left for a snapshot to see.
  EXPECT_EQ(count_of(Registry::instance().snapshot()), 0u);
  Registry::instance().reset();
}

// One sink per thread holds its metric cells and its span ring, so a thread
// that exits retires both in one step: counters, span timers and span
// records of exited threads are all conserved across one drain.
TEST(ObsRegistry, DrainConservesCountersAndSpansOfExitingThreads) {
  ConfigGuard guard;
  configure(make_config(true, true));
  Registry::instance().reset();
  (void)spans_drain();

  constexpr int kRounds = 3;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 1000;  // far below the ring capacity
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          counter_add("retire.count");
          Span s("retire.span");
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  constexpr std::uint64_t kTotal = std::uint64_t{kRounds} * kThreads * kPerThread;

  EXPECT_EQ(spans_dropped(), 0u);
  std::uint64_t counted = 0;
  std::uint64_t timed = 0;
  for (const Metric& m : Registry::instance().drain()) {
    if (m.name == "retire.count") counted += m.count;
    if (m.name == "retire.span") timed += m.count;
  }
  std::uint64_t recorded = 0;
  for (const SpanRecord& r : spans_drain()) {
    if (std::string_view(r.name) == "retire.span") ++recorded;
  }
  EXPECT_EQ(counted, kTotal);
  EXPECT_EQ(timed, kTotal);
  EXPECT_EQ(recorded, kTotal);
  // Both halves were collected and cleared.
  EXPECT_TRUE(Registry::instance().drain().empty());
  EXPECT_TRUE(spans_drain().empty());
}

// ---------------------------------------------------------------------------
// Disabled mode is a true no-op: no allocations on the instrumented path.
// ---------------------------------------------------------------------------

TEST(ObsDisabled, InstrumentationDoesNotAllocate) {
  ConfigGuard guard;
  configure(make_config(false, false));

  // Warm up: first calls may lazily initialise env parsing state.
  counter_add("warmup");
  timer_record_ns("warmup", 1);
  histogram_record("warmup", 1.0);
  { Span span("warmup"); }

  const std::uint64_t before = msts_test::g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    counter_add("hot.counter", 3);
    timer_record_ns("hot.timer", 17);
    histogram_record("hot.hist", 0.125);
    Span span("hot.span");
    if (trace_enabled()) {
      ADD_FAILURE() << "trace must be off here";
    }
  }
  const std::uint64_t after = msts_test::g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after) << "disabled-mode instrumentation allocated";
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(ObsJson, WriterParserRoundTrip) {
  json::Writer w;
  w.begin_object();
  w.kv("name", "bench \"x\"\n");
  w.kv("count", std::int64_t{-42});
  w.kv("ratio", 0.1);
  w.kv("big", 1.2345678901234567e100);
  w.kv("flag", true);
  w.key("missing").null();
  w.key("list").begin_array();
  w.value(std::int64_t{1}).value(2.5).value("three").value(false).null();
  w.end_array();
  w.key("nested").begin_object();
  w.kv("inner", std::uint64_t{18446744073709551615ull});
  w.end_object();
  w.end_object();

  std::string err;
  const auto v = json::parse(w.str(), &err);
  ASSERT_TRUE(v.has_value()) << err << "\n" << w.str();
  ASSERT_TRUE(v->is_object());
  EXPECT_EQ(v->find("name")->string, "bench \"x\"\n");
  EXPECT_EQ(v->find("count")->number, -42.0);
  EXPECT_DOUBLE_EQ(v->find("ratio")->number, 0.1);
  EXPECT_DOUBLE_EQ(v->find("big")->number, 1.2345678901234567e100);
  EXPECT_TRUE(v->find("flag")->boolean);
  EXPECT_TRUE(v->find("missing")->is_null());
  const auto* list = v->find("list");
  ASSERT_TRUE(list != nullptr && list->is_array());
  ASSERT_EQ(list->array.size(), 5u);
  EXPECT_EQ(list->array[0].number, 1.0);
  EXPECT_EQ(list->array[2].string, "three");
  EXPECT_TRUE(list->array[4].is_null());
  const auto* nested = v->find("nested");
  ASSERT_TRUE(nested != nullptr && nested->is_object());
  EXPECT_DOUBLE_EQ(nested->find("inner")->number, 18446744073709551615.0);
}

TEST(ObsJson, DoublesSurviveRoundTripExactly) {
  for (const double x : {0.1, 1.0 / 3.0, 6.02214076e23, 5e-324, -1.7976931348623157e308}) {
    json::Writer w;
    w.begin_object();
    w.kv("x", x);
    w.end_object();
    const auto v = json::parse(w.str());
    ASSERT_TRUE(v.has_value()) << w.str();
    EXPECT_EQ(v->find("x")->number, x) << w.str();
  }
}

TEST(ObsJson, NonFiniteWritesNull) {
  json::Writer w;
  w.begin_object();
  w.kv("nan", std::nan(""));
  w.kv("inf", std::numeric_limits<double>::infinity());
  w.end_object();
  const auto v = json::parse(w.str());
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->find("nan")->is_null());
  EXPECT_TRUE(v->find("inf")->is_null());
}

TEST(ObsJson, ParserRejectsMalformedDocuments) {
  for (const char* bad : {"", "{", "}", "{\"a\":}", "[1,]", "{\"a\" 1}", "01",
                          "\"unterminated", "truex", "[1] trailing", "{\"a\":1,}",
                          "\"bad \\x escape\"", "nul"}) {
    std::string err;
    EXPECT_FALSE(json::parse(bad, &err).has_value()) << "'" << bad << "'";
    EXPECT_FALSE(err.empty()) << "'" << bad << "'";
  }
}

// Regression pin for the non-finite contract: the writer must never emit the
// bare tokens some printf paths produce for NaN/Inf (they are not JSON), and
// the strict parser must refuse them if a foreign tool writes one anyway.
TEST(ObsJson, ParserRejectsBareNonFiniteTokens) {
  for (const char* bad : {"nan", "inf", "-inf", "Infinity", "-Infinity", "NaN",
                          "{\"x\": nan}", "{\"x\": inf}", "[1, -nan(ind)]"}) {
    std::string err;
    EXPECT_FALSE(json::parse(bad, &err).has_value()) << "'" << bad << "'";
    EXPECT_FALSE(err.empty()) << "'" << bad << "'";
  }
}

TEST(ObsJson, ParserHandlesUnicodeEscapes) {
  const auto v = json::parse("\"a\\u00e9\\u4e2d\\n\"");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->string, "a\xc3\xa9\xe4\xb8\xad\n");
}

TEST(ObsJson, ParserRejectsRunawayNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(json::parse(deep).has_value());
}

// ---------------------------------------------------------------------------
// BenchReport
// ---------------------------------------------------------------------------

TEST(ObsBenchReport, WritesValidatableJson) {
  ConfigGuard guard;
  configure(make_config(false, false));
  EnvVarGuard dir_guard("MSTS_BENCH_JSON_DIR");
  EnvVarGuard scale_guard("MSTS_BENCH_SCALE");
  ::setenv("MSTS_BENCH_JSON_DIR", ::testing::TempDir().c_str(), 1);
  ::unsetenv("MSTS_BENCH_SCALE");

  std::string path;
  {
    BenchReport report("obs_selftest");
    path = report.json_path();
    std::remove(path.c_str());
    {
      auto p = report.phase("setup");
      volatile int sink = 0;
      for (int i = 0; i < 1000; ++i) sink = sink + i;
    }
    {
      auto p = report.phase("run");
    }
    report.add_scalar("yield", 0.875);
    report.add_scalar("trials", std::int64_t{1000});
    report.add_label("mode", "selftest");
    EXPECT_TRUE(report.write());
    EXPECT_GE(report.threads(), 1);
  }

  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << path;
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  std::fclose(f);
  std::remove(path.c_str());

  std::string err;
  const auto v = json::parse(text, &err);
  ASSERT_TRUE(v.has_value()) << err << "\n" << text;
  EXPECT_EQ(v->find("bench")->string, "obs_selftest");
  EXPECT_EQ(v->find("schema_version")->number, 1.0);
  EXPECT_GE(v->find("threads")->number, 1.0);
  EXPECT_EQ(v->find("scale")->number, 1.0);
  const auto* phases = v->find("phases");
  ASSERT_TRUE(phases != nullptr && phases->is_array());
  ASSERT_EQ(phases->array.size(), 2u);
  EXPECT_EQ(phases->array[0].find("name")->string, "setup");
  EXPECT_GE(phases->array[0].find("wall_s")->number, 0.0);
  EXPECT_EQ(phases->array[1].find("name")->string, "run");
  EXPECT_GE(v->find("total_wall_s")->number, 0.0);
  EXPECT_EQ(v->find("scalars")->find("yield")->number, 0.875);
  EXPECT_EQ(v->find("scalars")->find("trials")->number, 1000.0);
  EXPECT_EQ(v->find("labels")->find("mode")->string, "selftest");
}

// The writer and the reader the gate tools use (benchtool::load_report) agree
// on the format: scalars, labels and phases come back in the order written,
// with the same values, the backend's informational keys included, and a
// non-finite scalar (written as null) comes back as NaN.
TEST(ObsBenchReport, LoadReportReadsBackWhatTheWriterWrote) {
  ConfigGuard guard;
  configure(make_config(false, false));
  EnvVarGuard dir_guard("MSTS_BENCH_JSON_DIR");
  EnvVarGuard scale_guard("MSTS_BENCH_SCALE");
  ::setenv("MSTS_BENCH_JSON_DIR", ::testing::TempDir().c_str(), 1);
  ::unsetenv("MSTS_BENCH_SCALE");

  std::string path;
  double run_wall_s = -1.0;
  {
    BenchReport report("obs_roundtrip_selftest");
    path = report.json_path();
    std::remove(path.c_str());
    for (const char* label : {"setup", "run"}) {
      auto p = report.phase(label);
    }
    run_wall_s = report.last_phase_wall_s();
    report.add_scalar("yield", 0.1 + 1e-17);
    report.add_scalar("trials", std::int64_t{1000});
    report.add_scalar("bad_rate", std::nan(""));
    report.add_label("mode", "selftest");
    ASSERT_TRUE(report.write());
  }

  const auto r = benchtool::load_report(path.c_str(), "test_obs");
  std::remove(path.c_str());
  ASSERT_TRUE(r.has_value()) << path;
  EXPECT_EQ(r->bench, "obs_roundtrip_selftest");

  ASSERT_EQ(r->scalars.size(), 5u);
  EXPECT_EQ(r->scalars[0].first, "simd.f64_width");
  EXPECT_EQ(r->scalars[1].first, "simd.fault_words");
  EXPECT_TRUE(benchtool::is_informational(r->scalars[0].first));
  EXPECT_TRUE(benchtool::is_informational(r->scalars[1].first));
  EXPECT_GE(r->scalars[0].second, 1.0);
  EXPECT_EQ(r->scalars[2].first, "yield");
  EXPECT_EQ(r->scalars[2].second, 0.1 + 1e-17);
  EXPECT_EQ(r->scalars[3].first, "trials");
  EXPECT_EQ(r->scalars[3].second, 1000.0);
  EXPECT_EQ(r->scalars[4].first, "bad_rate");
  EXPECT_TRUE(std::isnan(r->scalars[4].second));

  ASSERT_EQ(r->labels.size(), 2u);
  EXPECT_EQ(r->labels[0].first, "simd.isa");
  EXPECT_FALSE(r->isa().empty());
  EXPECT_EQ(r->isa(), r->labels[0].second);
  EXPECT_EQ(r->label("mode"), "selftest");

  ASSERT_EQ(r->phase_wall_s.size(), 2u);
  EXPECT_EQ(r->phase_wall_s[0].first, "setup");
  EXPECT_EQ(r->phase_wall_s[1].first, "run");
  EXPECT_EQ(r->phase_wall_s[1].second, run_wall_s);
  EXPECT_GE(r->total_wall_s, r->phase_wall_s[0].second + r->phase_wall_s[1].second);
}

// A bench that computes a non-finite scalar (e.g. 0/0 from an empty phase)
// must still emit a parseable report: the value arrives as JSON null, which
// bench_validate then flags with a targeted message instead of the file
// failing to parse at all.
TEST(ObsBenchReport, NonFiniteScalarSerializesAsNull) {
  ConfigGuard guard;
  configure(make_config(false, false));
  EnvVarGuard dir_guard("MSTS_BENCH_JSON_DIR");
  EnvVarGuard scale_guard("MSTS_BENCH_SCALE");
  ::setenv("MSTS_BENCH_JSON_DIR", ::testing::TempDir().c_str(), 1);
  ::unsetenv("MSTS_BENCH_SCALE");

  std::string path;
  {
    BenchReport report("obs_nonfinite_selftest");
    path = report.json_path();
    std::remove(path.c_str());
    report.add_scalar("bad_rate", std::nan(""));
    report.add_scalar("bad_ratio", std::numeric_limits<double>::infinity());
    report.add_scalar("good", 1.0);
    EXPECT_TRUE(report.write());
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream buf;
  buf << in.rdbuf();
  std::remove(path.c_str());

  std::string err;
  const auto v = json::parse(buf.str(), &err);
  ASSERT_TRUE(v.has_value()) << err << "\n" << buf.str();
  EXPECT_TRUE(v->find("scalars")->find("bad_rate")->is_null());
  EXPECT_TRUE(v->find("scalars")->find("bad_ratio")->is_null());
  EXPECT_EQ(v->find("scalars")->find("good")->number, 1.0);
}

// MSTS_METRICS alone says where the time went: a span's timer entry in the
// report carries p50_ns / p99_ns, and stdout gets the stage table built from
// the timers, most total time first. An untraced report has no span count.
TEST(ObsBenchReport, MetricsOnlyReportCarriesTimerQuantiles) {
  ConfigGuard guard;
  configure(make_config(true, false));
  EnvVarGuard dir_guard("MSTS_BENCH_JSON_DIR");
  EnvVarGuard scale_guard("MSTS_BENCH_SCALE");
  ::setenv("MSTS_BENCH_JSON_DIR", ::testing::TempDir().c_str(), 1);
  ::unsetenv("MSTS_BENCH_SCALE");
  Registry::instance().reset();

  std::string path;
  std::string out;
  {
    BenchReport report("obs_metrics_selftest");
    path = report.json_path();
    std::remove(path.c_str());
    { Span s("report.stage"); }
    for (int i = 0; i < 10; ++i) timer_record_ns("report.slow_stage", 1000000);
    ::testing::internal::CaptureStdout();
    const bool written = report.write();
    out = ::testing::internal::GetCapturedStdout();
    EXPECT_TRUE(written);
  }
  Registry::instance().reset();

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream buf;
  buf << in.rdbuf();
  std::remove(path.c_str());
  std::string err;
  const auto v = json::parse(buf.str(), &err);
  ASSERT_TRUE(v.has_value()) << err << "\n" << buf.str();
  EXPECT_EQ(v->find("spans"), nullptr);

  const json::Value* metrics = v->find("metrics");
  ASSERT_TRUE(metrics != nullptr && metrics->is_array());
  const json::Value* stage = nullptr;
  for (const json::Value& m : metrics->array) {
    if (m.find("name")->string == "report.stage") stage = &m;
  }
  ASSERT_NE(stage, nullptr);
  EXPECT_EQ(stage->find("kind")->string, "timer");
  EXPECT_EQ(stage->find("count")->number, 1.0);
  for (const char* key : {"p50_ns", "p99_ns"}) {
    const json::Value* q = stage->find(key);
    ASSERT_TRUE(q != nullptr && q->is_number()) << key;
    EXPECT_GE(q->number, stage->find("min_ns")->number) << key;
    EXPECT_LE(q->number, stage->find("max_ns")->number) << key;
  }

  const std::size_t header = out.find("p50_us");
  const std::size_t slow = out.find("report.slow_stage");
  const std::size_t fast = out.find("report.stage");
  ASSERT_NE(header, std::string::npos) << out;
  ASSERT_NE(slow, std::string::npos) << out;
  ASSERT_NE(fast, std::string::npos) << out;
  EXPECT_LT(header, slow);
  EXPECT_LT(slow, fast) << "stages are listed by total time";
}

TEST(ObsBenchReport, ScaledHelpers) {
  EnvVarGuard scale_guard("MSTS_BENCH_SCALE");
  ::unsetenv("MSTS_BENCH_SCALE");
  EXPECT_DOUBLE_EQ(bench_scale(), 1.0);
  EXPECT_EQ(scaled_trials(1000, 10), 1000u);
  EXPECT_EQ(scaled_record(8192, 256), 8192u);
  EXPECT_EQ(scaled_stride(3), 3u);

  ::setenv("MSTS_BENCH_SCALE", "0.1", 1);
  EXPECT_DOUBLE_EQ(bench_scale(), 0.1);
  EXPECT_EQ(scaled_trials(1000, 10), 100u);
  EXPECT_EQ(scaled_trials(50, 10), 10u);  // floored at min
  EXPECT_EQ(scaled_record(8192, 256), 512u);  // power of two preserved
  EXPECT_EQ(scaled_record(512, 256), 256u);
  EXPECT_EQ(scaled_stride(3), 30u);

  for (const char* bad : {"0", "-1", "1.5", "x"}) {
    ::setenv("MSTS_BENCH_SCALE", bad, 1);
    EXPECT_THROW(bench_scale(), std::invalid_argument) << bad;
  }
}

// ---------------------------------------------------------------------------
// Spans: gating, nesting, cross-thread conservation, exporters. The Span*
// suites also run under the TSan tier-1 leg (see ROADMAP.md).
// ---------------------------------------------------------------------------

TEST(ObsSpanConfig, TracePathRequiresTraceOn) {
  ConfigGuard guard;
  Config c;
  c.trace = false;
  c.trace_path = ::testing::TempDir() + "/span_cfg_trace.json";
  EXPECT_THROW(configure(c), std::invalid_argument);

  c.trace = true;
  configure(c);  // writable path with trace on: accepted
  EXPECT_EQ(trace_path(), c.trace_path);
  EXPECT_EQ(current_config().trace_path, c.trace_path);

  c.trace_path = "/nonexistent-msts-dir/trace.json";
  EXPECT_THROW(configure(c), std::invalid_argument);

  c.trace_path.clear();
  configure(c);  // empty path is always fine
  EXPECT_EQ(trace_path(), "");
}

TEST(ObsSpanConfig, FromEnvParsesTracePathStrictly) {
  ConfigGuard guard;
  EnvVarGuard trace_guard("MSTS_TRACE");
  EnvVarGuard path_guard("MSTS_TRACE_PATH");
  EnvVarGuard metrics_guard("MSTS_METRICS");
  ::unsetenv("MSTS_METRICS");

  const std::string good = ::testing::TempDir() + "/span_env_trace.json";

  // Path without the switch: fail fast, same contract as malformed
  // MSTS_THREADS.
  ::unsetenv("MSTS_TRACE");
  ::setenv("MSTS_TRACE_PATH", good.c_str(), 1);
  EXPECT_THROW(Config::from_env(), std::invalid_argument);

  // Unwritable path with the switch on: fail fast too.
  ::setenv("MSTS_TRACE", "1", 1);
  ::setenv("MSTS_TRACE_PATH", "/nonexistent-msts-dir/trace.json", 1);
  EXPECT_THROW(Config::from_env(), std::invalid_argument);

  // Well-formed combination round-trips.
  ::setenv("MSTS_TRACE_PATH", good.c_str(), 1);
  const Config c = Config::from_env();
  EXPECT_TRUE(c.trace);
  EXPECT_EQ(c.trace_path, good);

  // Empty value behaves like unset.
  ::setenv("MSTS_TRACE_PATH", "", 1);
  EXPECT_EQ(Config::from_env().trace_path, "");
}

TEST(ObsSpanDisabled, SpansAreFreeWhenTracingOff) {
  ConfigGuard guard;
  configure(make_config(false, false));
  (void)spans_drain();

  // Warm up thread-local state outside the measured window.
  { Span warm("warmup"); }

  const std::uint64_t before = msts_test::g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    Span s("hot.span");
    s.note("k", std::int64_t{1});
    s.note("v", 2.0);
    SpanParentScope scope(s.id());
    if (s.armed() || s.id() != 0 || Span::current() != 0) {
      ADD_FAILURE() << "span must be disarmed while tracing is off";
    }
  }
  const std::uint64_t after = msts_test::g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after) << "disabled-mode spans allocated";
  EXPECT_TRUE(spans_drain().empty());
}

TEST(ObsSpan, NestsViaThreadLocalCursorAndRestoresIt) {
  ConfigGuard guard;
  configure(make_config(false, true));
  (void)spans_drain();

  SpanId outer_id = 0;
  SpanId inner_id = 0;
  {
    Span outer("outer");
    outer_id = outer.id();
    EXPECT_NE(outer_id, 0u);
    EXPECT_EQ(Span::current(), outer_id);
    {
      Span inner("inner");
      inner_id = inner.id();
      EXPECT_EQ(Span::current(), inner_id);
      inner.note("depth", std::int64_t{2});
    }
    EXPECT_EQ(Span::current(), outer_id);
  }
  EXPECT_EQ(Span::current(), 0u);

  const auto spans = spans_drain();
  ASSERT_EQ(spans.size(), 2u);
  // Drain sorts by start time: outer opened first.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, outer_id);
  EXPECT_EQ(spans[1].id, inner_id);
  EXPECT_EQ(spans[0].tid, spans[1].tid);
  ASSERT_EQ(spans[1].note_count, 1u);
  EXPECT_STREQ(spans[1].notes[0].key, "depth");
  EXPECT_EQ(spans[1].notes[0].i, 2);
  // The inner span closed first, so it cannot outlast the outer one.
  EXPECT_LE(spans[1].start_ns + spans[1].dur_ns,
            spans[0].start_ns + spans[0].dur_ns);
}

// One model: a span records a registry timer under its own name when metrics
// are on, and a ring record when tracing is on. Metrics alone allocate no
// id, move no cursor and buffer nothing.
TEST(ObsSpan, MetricsOnlySpanRecordsTimerWithoutRecord) {
  ConfigGuard guard;
  // Every timer whose name ends in the span's name (so a "span."-prefixed
  // twin would show up here too).
  const auto span_timers = [] {
    std::vector<Metric> out;
    for (const Metric& m : Registry::instance().snapshot()) {
      if (std::string_view(m.name).ends_with("one.model.span")) out.push_back(m);
    }
    return out;
  };

  configure(make_config(true, false));
  Registry::instance().reset();
  (void)spans_drain();
  {
    Span s("one.model.span");
    EXPECT_TRUE(s.armed());
    EXPECT_EQ(s.id(), 0u);
    EXPECT_EQ(Span::current(), 0u);
    s.note("dropped", std::int64_t{1});
  }
  std::vector<Metric> timers = span_timers();
  ASSERT_EQ(timers.size(), 1u);
  EXPECT_EQ(timers[0].name, "one.model.span");
  EXPECT_EQ(timers[0].kind, Metric::Kind::kTimer);
  EXPECT_EQ(timers[0].count, 1u);
  EXPECT_TRUE(spans_drain().empty());

  configure(make_config(true, true));
  Registry::instance().reset();
  SpanId id = 0;
  {
    Span s("one.model.span");
    id = s.id();
    EXPECT_NE(id, 0u);
    EXPECT_EQ(Span::current(), id);
  }
  timers = span_timers();
  ASSERT_EQ(timers.size(), 1u);
  EXPECT_EQ(timers[0].name, "one.model.span");
  EXPECT_EQ(timers[0].count, 1u);
  const auto spans = spans_drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "one.model.span");
  EXPECT_EQ(spans[0].id, id);
  // The timer sample and the record carry the same duration.
  EXPECT_EQ(timers[0].total_ns, spans[0].dur_ns);
  Registry::instance().reset();
}

// The scheduler's span tree under an enclosing request span:
//   test.request -> sched.run -> sched.task*
// Every sched.task parents under the sched.run even when it executed on a
// stolen chunk on another thread, and the task "count" notes add up to the
// full index range. A two-index rendezvous (first and last index block
// until both have arrived) forces at least two distinct threads into the
// region, so the cross-thread parenting is actually exercised.
TEST(ObsSpan, ParallelForTasksParentUnderRegionAcrossThreads) {
  ConfigGuard guard;
  configure(make_config(false, true));
  (void)spans_drain();

  constexpr std::size_t kN = 64;
  std::atomic<std::uint64_t> touched{0};
  std::mutex mu;
  std::condition_variable cv;
  bool arrived[2] = {false, false};
  std::atomic<bool> timed_out{false};
  {
    Span request("test.request");
    stats::parallel_for_index(kN, 4, [&](std::size_t i) {
      touched.fetch_add(1, std::memory_order_relaxed);
      if (i != 0 && i != kN - 1) return;
      const int slot = i == 0 ? 0 : 1;
      std::unique_lock<std::mutex> lock(mu);
      arrived[slot] = true;
      cv.notify_all();
      if (!cv.wait_for(lock, std::chrono::seconds(20),
                       [&] { return arrived[1 - slot]; })) {
        timed_out.store(true, std::memory_order_relaxed);
      }
    });
  }
  EXPECT_EQ(touched.load(), kN);
  EXPECT_FALSE(timed_out.load()) << "rendezvous indices did not overlap";

  const auto spans = spans_drain();
  const SpanRecord* request_rec = nullptr;
  const SpanRecord* run = nullptr;
  std::size_t runs = 0;
  for (const SpanRecord& s : spans) {
    if (std::string_view(s.name) == "test.request") request_rec = &s;
    if (std::string_view(s.name) == "sched.run") {
      run = &s;
      ++runs;
    }
  }
  ASSERT_NE(request_rec, nullptr);
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(runs, 1u) << "the region is recorded once, by the scheduler";
  EXPECT_EQ(run->parent, request_rec->id);

  std::int64_t indices = 0;
  std::size_t tasks = 0;
  bool multi_thread = false;
  for (const SpanRecord& s : spans) {
    if (std::string_view(s.name) != "sched.task") continue;
    ++tasks;
    // Every task parents under the run even when it executed on a worker
    // thread that had no thread-local cursor of its own.
    EXPECT_EQ(s.parent, run->id);
    if (s.tid != run->tid) multi_thread = true;
    for (std::uint8_t i = 0; i < s.note_count; ++i) {
      if (std::string_view(s.notes[i].key) == "count") indices += s.notes[i].i;
    }
  }
  ASSERT_GE(tasks, 2u);
  EXPECT_LE(tasks, 16u);  // at most 4 chunks per worker
  EXPECT_EQ(indices, static_cast<std::int64_t>(kN));
  EXPECT_TRUE(multi_thread) << "expected at least one task on a worker thread";
}

TEST(ObsSpan, DrainConservesAcrossThreadExitAndOverflow) {
  ConfigGuard guard;
  configure(make_config(false, true));
  (void)spans_drain();

  // Over-fill one short-lived thread's ring: the overflow must be counted,
  // and retirement at thread exit must hand the survivors to the drain.
  const std::size_t cap = span_ring_capacity();
  const std::size_t extra = 100;
  constexpr int kThreads = 3;
  std::vector<std::thread> emitters;
  for (int t = 0; t < kThreads; ++t) {
    emitters.emplace_back([&] {
      for (std::size_t i = 0; i < cap + extra; ++i) {
        Span s("conserve.span");
      }
    });
  }
  for (auto& t : emitters) t.join();

  const std::uint64_t dropped = spans_dropped();
  const auto spans = spans_drain();
  std::size_t ours = 0;
  for (const SpanRecord& s : spans) {
    if (std::string_view(s.name) == "conserve.span") ++ours;
  }
  EXPECT_EQ(ours + dropped, std::uint64_t{kThreads} * (cap + extra));
  EXPECT_GE(dropped, std::uint64_t{kThreads} * extra);
  // Drained everything: a second drain sees nothing and the drop counter
  // was reset by the first drain.
  EXPECT_TRUE(spans_drain().empty());
  EXPECT_EQ(spans_dropped(), 0u);
}

TEST(ObsSpan, RecordBetweenClampsLikeServiceTimers) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto t1 = t0 + std::chrono::microseconds(250);
  SpanRecord fwd = span_record_between("stage", 7, 3, false, t0, t1);
  EXPECT_EQ(fwd.id, 7u);
  EXPECT_EQ(fwd.parent, 3u);
  EXPECT_EQ(fwd.dur_ns, 250000u);
  // Reversed endpoints clamp to zero, exactly like the engine's ns_between.
  SpanRecord rev = span_record_between("stage", 8, 3, true, t1, t0);
  EXPECT_EQ(rev.dur_ns, 0u);
  EXPECT_TRUE(rev.async);
}

TEST(ObsSpanExport, ChromeJsonParsesAndAsyncPairsBalance) {
  std::vector<SpanRecord> spans;
  const auto t0 = span_epoch() + std::chrono::milliseconds(1);
  const auto t1 = t0 + std::chrono::microseconds(500);

  SpanRecord root = span_record_between("service.request", 10, 0, true, t0, t1);
  SpanRecord wait = span_record_between("service.queue_wait", 11, 10, true, t0,
                                        t0 + std::chrono::microseconds(100));
  SpanRecord exec = span_record_between("service.execute", 12, 10, false,
                                        t0 + std::chrono::microseconds(100), t1);
  SpanNote note;
  note.key = "cache_hit";
  note.type = SpanNote::Type::kInt;
  note.i = 1;
  exec.notes[exec.note_count++] = note;
  spans = {root, wait, exec};

  const std::string json_text = spans_to_chrome_json(spans);
  std::string err;
  const auto doc = json::parse(json_text, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // 1 metadata + 2 async pairs (b+e each) + 1 complete slice.
  ASSERT_EQ(events->array.size(), 6u);
  int x_slices = 0;
  int balance = 0;
  for (const json::Value& e : events->array) {
    const std::string& ph = e.find("ph")->string;
    if (ph == "X") {
      ++x_slices;
      EXPECT_EQ(e.find("name")->string, "service.execute");
      EXPECT_DOUBLE_EQ(e.find("dur")->number, 400.0);  // microseconds
      EXPECT_EQ(e.find("args")->find("cache_hit")->number, 1.0);
      EXPECT_EQ(e.find("args")->find("parent")->number, 10.0);
    } else if (ph == "b") {
      ++balance;
      // One-level async children share the parent's id, landing on its track.
      EXPECT_EQ(e.find("id")->string, "0xa");
    } else if (ph == "e") {
      --balance;
      EXPECT_GE(balance, 0);
    }
  }
  EXPECT_EQ(x_slices, 1);
  EXPECT_EQ(balance, 0);
}

// Stage latency is attributed by the registry timers a span records: a
// timer carries count / total / min / max and log2 bins of its durations,
// from which quantile_ns estimates p50 / p99.
TEST(ObsSpanAttribution, AggregatesByStageWithQuantiles) {
  ConfigGuard guard;
  configure(make_config(true, false));
  Registry::instance().reset();
  for (int i = 0; i < 90; ++i) timer_record_ns("fast", 1000);
  for (int i = 0; i < 10; ++i) timer_record_ns("fast", 1000000);
  timer_record_ns("slow", 5000000);

  const auto stages = Registry::instance().snapshot();
  Registry::instance().reset();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0].name, "fast");
  EXPECT_EQ(stages[0].kind, Metric::Kind::kTimer);
  EXPECT_EQ(stages[0].count, 100u);
  EXPECT_EQ(stages[0].total_ns, 90u * 1000 + 10u * 1000000);
  EXPECT_EQ(stages[0].min_ns, 1000u);
  EXPECT_EQ(stages[0].max_ns, 1000000u);
  // Durations bin in seconds, like every other log2 bin of the registry.
  EXPECT_EQ(stages[0].bins[histogram_bin_of(1e-6)], 90u);
  EXPECT_EQ(stages[0].bins[histogram_bin_of(1e-3)], 10u);
  EXPECT_EQ(stages[1].name, "slow");
  EXPECT_EQ(stages[1].count, 1u);

  // p50 lands in the 1us population, p99 in the 1ms tail; both clamp inside
  // [min, max].
  const double p50 = quantile_ns(stages[0], 0.50);
  const double p99 = quantile_ns(stages[0], 0.99);
  EXPECT_GE(p50, 1000.0);
  EXPECT_LT(p50, 10000.0);
  EXPECT_GT(p99, 100000.0);
  EXPECT_LE(p99, 1000000.0);
  EXPECT_EQ(quantile_ns(stages[1], 0.50), 5000000.0);  // one sample: min == max
  EXPECT_EQ(quantile_ns(Metric{}, 0.50), 0.0);
}

TEST(ObsSpanExport, FlushToTracePathWritesValidChromeFile) {
  ConfigGuard guard;
  const std::string path = ::testing::TempDir() + "/span_flush_trace.json";
  Config c;
  c.trace = true;
  c.trace_path = path;
  configure(c);
  (void)spans_drain();

  {
    Span outer("flush.outer");
    Span inner("flush.inner");
  }
  const std::size_t written = spans_flush_to_trace_path();
  EXPECT_EQ(written, 2u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  std::string err;
  const auto doc = json::parse(buf.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_TRUE(doc->find("traceEvents")->is_array());
  // Flushing drained the buffers.
  EXPECT_TRUE(spans_drain().empty());
}

// Determinism contract: span collection must never perturb numbers. The MC
// evaluator gives bit-identical results with tracing on at any thread count.
TEST(ObsSpanMc, ResultsBitIdenticalAcrossThreadCountsWithSpans) {
  ConfigGuard guard;

  const stats::Normal param{0.0, 1.0};
  const auto spec = stats::SpecLimits::at_least(-1.0);
  const auto run = [&](int threads, bool traced) {
    configure(make_config(false, traced));
    stats::Rng rng(123);
    const auto out = stats::evaluate_test_mc(param, spec, spec,
                                             stats::ErrorModel::gaussian(0.1),
                                             rng, 30000, threads);
    (void)spans_drain();
    return out;
  };

  const auto baseline = run(1, false);
  for (const int threads : {1, 2, 8}) {
    const auto traced = run(threads, true);
    EXPECT_EQ(std::memcmp(&baseline, &traced, sizeof baseline), 0)
        << "spans perturbed MC results at " << threads << " threads";
  }
}

}  // namespace
}  // namespace msts::obs
