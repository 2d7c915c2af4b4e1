// Tests for the deterministic parallel Monte-Carlo engine (stats/parallel.h)
// and its threading contract: bit-identical results for every thread count.
#include "stats/parallel.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/coverage.h"
#include "obs/config.h"
#include "obs/span.h"
#include "stats/yield.h"

namespace msts::stats {
namespace {

// Restores an environment variable after env-override tests so the rest of
// the suite keeps the ambient configuration.
class EnvGuard {
 public:
  explicit EnvGuard(const char* name = "MSTS_THREADS") : name_(name) {
    const char* v = std::getenv(name_);
    had_ = (v != nullptr);
    if (had_) saved_ = v;
  }
  ~EnvGuard() {
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

TEST(Threads, EnvOverrideAndResolution) {
  EnvGuard guard;
  ::setenv("MSTS_THREADS", "3", 1);
  EXPECT_EQ(max_threads(), 3);
  EXPECT_EQ(resolve_threads(0), 3);
  EXPECT_EQ(resolve_threads(5), 5);  // explicit request wins
  ::unsetenv("MSTS_THREADS");
  EXPECT_GE(max_threads(), 1);
}

// A malformed MSTS_THREADS is a loud error, not a silent fallback: every
// shape of bad input (non-numeric, trailing junk, zero, negative, overflow,
// out of range, empty) throws std::invalid_argument naming the variable.
TEST(Threads, MalformedEnvOverrideThrows) {
  EnvGuard guard;
  // Note: an *empty* MSTS_THREADS counts as unset, not malformed.
  for (const char* bad : {"garbage", "3x", "0", "-2", "4097",
                          "99999999999999999999", " ", "1.5"}) {
    ::setenv("MSTS_THREADS", bad, 1);
    EXPECT_THROW(max_threads(), std::invalid_argument) << "value '" << bad << "'";
    EXPECT_THROW(resolve_threads(0), std::invalid_argument) << "value '" << bad << "'";
    // An explicit request never consults the environment.
    EXPECT_EQ(resolve_threads(2), 2) << "value '" << bad << "'";
  }
  ::setenv("MSTS_THREADS", "garbage", 1);
  try {
    (void)max_threads();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("MSTS_THREADS"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("garbage"), std::string::npos);
  }
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

// Gaps shorter than kIdleSpin reach a polling worker, longer ones a parked
// worker that has to be woken; every task runs either way.
TEST(ThreadPool, RunsTasksSubmittedToPollingAndParkedWorkers) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  const std::chrono::microseconds gaps[] = {
      std::chrono::microseconds{0}, ThreadPool::kIdleSpin / 5, ThreadPool::kIdleSpin * 20};
  int submitted = 0;
  for (int round = 0; round < 10; ++round) {
    for (const auto gap : gaps) {
      pool.submit([&count] { count.fetch_add(1); });
      ++submitted;
      std::this_thread::sleep_for(gap);
    }
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), submitted);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4, 8}) {
    const std::size_t n = 257;  // deliberately not a multiple of anything
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    parallel_for_index(n, threads, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads << " threads";
    }
  }
}

TEST(ParallelFor, PropagatesTheFirstException) {
  EXPECT_THROW(
      parallel_for_index(64, 4,
                         [](std::size_t i) {
                           if (i == 17) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
}

// Nested calls compose on the scheduler (child task-sets on the same
// workers) instead of serializing or oversubscribing; every inner index
// still runs exactly once.
TEST(ParallelFor, NestedRegionsComposeOnTheScheduler) {
  std::vector<std::atomic<int>> hits(4 * 8);
  for (auto& h : hits) h.store(0);
  parallel_for_index(4, 4, [&](std::size_t outer) {
    parallel_for_index(8, 4, [&](std::size_t inner) {
      hits[outer * 8 + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "slot " << i;
  }
}

// ---------------------------------------------------------------------------
// Degenerate partitions — the pinned behaviors from the header contract.
// ---------------------------------------------------------------------------

// n == 0: fn is never called, whatever the thread request says.
TEST(ParallelFor, ZeroIndicesNeverCallsTheBody) {
  for (const int threads : {1, 4, 0}) {
    std::atomic<int> calls{0};
    parallel_for_index(0, threads,
                       [&](std::size_t) { calls.fetch_add(1, std::memory_order_relaxed); });
    EXPECT_EQ(calls.load(), 0) << threads << " threads";
  }
}

// n == 1: fn(0) runs serially on the calling thread even when many threads
// are requested (a single chunk has nothing to distribute).
TEST(ParallelFor, SingleIndexRunsOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const int threads : {1, 8}) {
    int calls = 0;  // deliberately unsynchronized: must run on this thread
    std::thread::id ran_on;
    parallel_for_index(1, threads, [&](std::size_t i) {
      EXPECT_EQ(i, 0u);
      ran_on = std::this_thread::get_id();
      ++calls;
    });
    EXPECT_EQ(calls, 1) << threads << " threads";
    EXPECT_EQ(ran_on, caller) << threads << " threads";
  }
}

// threads > n: the worker request clamps to n — every index still runs
// exactly once, and a task-set never has more chunks than indices.
TEST(ParallelFor, MoreThreadsThanIndicesClampsToIndices) {
  const std::size_t n = 3;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  parallel_for_index(n, 64, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// An explicit threads == 1 stays serial (index order, calling thread) even
// when invoked from inside a scheduler task — the nested-MC opt-out.
TEST(ParallelFor, ExplicitSerialStaysSerialInsideWorkerTasks) {
  std::atomic<int> out_of_order{0};
  parallel_for_index(4, 4, [&](std::size_t) {
    const std::thread::id me = std::this_thread::get_id();
    std::size_t expected = 0;
    parallel_for_index(16, 1, [&](std::size_t i) {
      if (i != expected++ || std::this_thread::get_id() != me) {
        out_of_order.fetch_add(1, std::memory_order_relaxed);
      }
    });
  });
  EXPECT_EQ(out_of_order.load(), 0);
}

TEST(MakeStreams, DeterministicAndPairwiseDistinct) {
  const Rng base(1234);
  const auto a = make_streams(base, 6);
  auto b = make_streams(base, 6);
  ASSERT_EQ(a.size(), 6u);
  // Same base -> identical streams.
  for (std::size_t k = 0; k < a.size(); ++k) {
    Rng x = a[k], y = b[k];
    for (int i = 0; i < 32; ++i) ASSERT_EQ(x.next_u64(), y.next_u64());
  }
  // Distinct streams never agree on early draws.
  auto c = make_streams(base, 6);
  std::vector<std::vector<std::uint64_t>> draws;
  for (auto& s : c) {
    std::vector<std::uint64_t> seq;
    for (int i = 0; i < 32; ++i) seq.push_back(s.next_u64());
    draws.push_back(seq);
  }
  for (std::size_t i = 0; i < draws.size(); ++i) {
    for (std::size_t j = i + 1; j < draws.size(); ++j) {
      int same = 0;
      for (int k = 0; k < 32; ++k) {
        if (draws[i][k] == draws[j][k]) ++same;
      }
      EXPECT_EQ(same, 0) << "streams " << i << " and " << j;
    }
  }
}

// The headline property: the parallel MC evaluator returns bit-identical
// outcomes for 1, 2, and 8 threads.
TEST(EvaluateTestMcParallel, BitIdenticalAcrossThreadCounts) {
  const Normal param{10.0, 1.0};
  const auto spec = SpecLimits::at_least(8.5);
  const auto model = ErrorModel::uniform(0.4);

  std::vector<TestOutcome> outcomes;
  for (const int threads : {1, 2, 8}) {
    Rng rng(424242);
    outcomes.push_back(evaluate_test_mc(param, spec, spec, model, rng, 100000, threads));
  }
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[0].yield, outcomes[i].yield);
    EXPECT_EQ(outcomes[0].defect_rate, outcomes[i].defect_rate);
    EXPECT_EQ(outcomes[0].accept_rate, outcomes[i].accept_rate);
    EXPECT_EQ(outcomes[0].yield_loss, outcomes[i].yield_loss);
    EXPECT_EQ(outcomes[0].fault_coverage_loss, outcomes[i].fault_coverage_loss);
  }
}

// Determinism under instrumentation: enabling trace collection must not
// perturb a single bit of the MC results at any thread count. Tracing reads
// clocks and buffers spans but never touches RNG streams or the reduction.
TEST(EvaluateTestMcParallel, BitIdenticalWithTracingEnabled) {
  const Normal param{10.0, 1.0};
  const auto spec = SpecLimits::at_least(8.5);
  const auto model = ErrorModel::uniform(0.4);
  const int trials = 100000;

  EnvGuard trace_guard("MSTS_TRACE");
  const obs::Config saved = obs::current_config();

  // Baseline: tracing off (MSTS_TRACE unset).
  ::unsetenv("MSTS_TRACE");
  obs::configure(obs::Config::from_env());
  Rng base_rng(424242);
  const auto baseline = evaluate_test_mc(param, spec, spec, model, base_rng, trials, 1);

  // Same computation with MSTS_TRACE=1.
  ::setenv("MSTS_TRACE", "1", 1);
  obs::configure(obs::Config::from_env());
  (void)obs::spans_drain();
  const std::size_t nblocks = (trials + 8191) / 8192;
  for (const int threads : {1, 2, 8}) {
    Rng rng(424242);
    const auto traced = evaluate_test_mc(param, spec, spec, model, rng, trials, threads);
    EXPECT_EQ(baseline.yield, traced.yield) << threads << " threads";
    EXPECT_EQ(baseline.defect_rate, traced.defect_rate) << threads << " threads";
    EXPECT_EQ(baseline.accept_rate, traced.accept_rate) << threads << " threads";
    EXPECT_EQ(baseline.yield_loss, traced.yield_loss) << threads << " threads";
    EXPECT_EQ(baseline.fault_coverage_loss, traced.fault_coverage_loss)
        << threads << " threads";

    // The scheduler's per-chunk sched.task spans (notes: first, count) tile
    // the MC blocks exactly once. One thread runs serially, without them.
    const auto spans = obs::spans_drain();
    if (threads == 1) continue;
    std::vector<int> covered(nblocks, 0);
    for (const obs::SpanRecord& s : spans) {
      if (std::string_view(s.name) != "sched.task") continue;
      std::int64_t first = -1, count = 0;
      for (std::uint8_t i = 0; i < s.note_count; ++i) {
        if (std::string_view(s.notes[i].key) == "first") first = s.notes[i].i;
        if (std::string_view(s.notes[i].key) == "count") count = s.notes[i].i;
      }
      ASSERT_GE(first, 0) << threads << " threads";
      ASSERT_GE(count, 1) << threads << " threads";
      for (std::int64_t b = first; b < first + count; ++b) {
        ASSERT_LT(b, static_cast<std::int64_t>(nblocks)) << threads << " threads";
        ++covered[static_cast<std::size_t>(b)];
      }
    }
    for (std::size_t b = 0; b < nblocks; ++b) {
      EXPECT_EQ(covered[b], 1) << "block " << b << " at " << threads << " threads";
    }
  }

  ::unsetenv("MSTS_TRACE");
  obs::configure(saved);
  (void)obs::spans_drain();
}

TEST(EvaluateTestMcParallel, CallerRngAdvancesIndependentlyOfThreadCount) {
  const Normal param{10.0, 1.0};
  const auto spec = SpecLimits::at_least(8.5);
  Rng a(7), b(7);
  (void)evaluate_test_mc(param, spec, spec, ErrorModel::none(), a, 2000, 1);
  (void)evaluate_test_mc(param, spec, spec, ErrorModel::none(), b, 2000, 4);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

// ---------------------------------------------------------------------------
// Concurrent top-level callers. parallel_for_index used to hold a process-
// wide mutex for the whole call, silently serializing independent callers
// (and destroying/rebuilding the shared pool under them on growth). These
// tests pin the fixed contract; both run under TSan in the sanitizer leg.
// ---------------------------------------------------------------------------

// Two top-level parallel_for_index calls must be able to make progress at
// the same time. Each call's body announces its own arrival and then waits
// (bounded) for the other call's arrival: under the old whole-call lock the
// second call could never start, so the rendezvous times out and the test
// fails instead of hanging.
TEST(ParallelConcurrentCallers, TopLevelCallsOverlap) {
  std::mutex mu;
  std::condition_variable cv;
  bool arrived[2] = {false, false};
  std::atomic<bool> timed_out{false};

  auto run_call = [&](int call) {
    parallel_for_index(2, 2, [&, call](std::size_t) {
      std::unique_lock<std::mutex> lock(mu);
      arrived[call] = true;
      cv.notify_all();
      if (!cv.wait_for(lock, std::chrono::seconds(20),
                       [&] { return arrived[1 - call]; })) {
        timed_out.store(true, std::memory_order_relaxed);
      }
    });
  };

  std::thread other([&] { run_call(1); });
  run_call(0);
  other.join();
  EXPECT_FALSE(timed_out.load())
      << "concurrent top-level parallel_for_index calls did not overlap";
}

// The stress half: several top-level callers, each itself running a
// multi-threaded MC, racing on the shared pool (including pool growth from
// a larger thread request) — every result bit-identical to its serial run.
TEST(ParallelConcurrentCallers, ConcurrentMcCallersBitIdenticalToSerial) {
  constexpr int kCallers = 3;
  constexpr int kRepeats = 2;
  constexpr int kTrials = 60000;
  const Normal param{10.0, 1.0};
  const auto spec = SpecLimits::at_least(8.5);
  const auto model = ErrorModel::gaussian(0.3);

  TestOutcome serial[kCallers];
  for (int c = 0; c < kCallers; ++c) {
    Rng rng(1000 + c);
    serial[c] = evaluate_test_mc(param, spec, spec, model, rng, kTrials, 1);
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int r = 0; r < kRepeats; ++r) {
        Rng rng(1000 + c);
        // Different thread counts per caller: one of them grows the pool.
        const auto out =
            evaluate_test_mc(param, spec, spec, model, rng, kTrials, 2 + c);
        if (out.yield != serial[c].yield ||
            out.defect_rate != serial[c].defect_rate ||
            out.accept_rate != serial[c].accept_rate ||
            out.yield_loss != serial[c].yield_loss ||
            out.fault_coverage_loss != serial[c].fault_coverage_loss) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Cross-check: for all three threshold rows of a threshold_study, the MC
// losses agree with the analytic integrals within 3 sigma of the binomial
// counting error of the relevant subpopulation.
TEST(EvaluateTestMcParallel, MatchesAnalyticWithin3SigmaForAllThresholdRows) {
  const Normal population{10.0, 1.0};
  const auto spec = SpecLimits::at_least(8.5);
  const auto error = Uncertain::from_tolerance(0.0, 0.4);
  const auto study = core::threshold_study("mixer.IIP3", "dBm", population, spec, error);
  ASSERT_EQ(study.rows.size(), 3u);

  const auto model = ErrorModel::uniform(error.wc);
  const int trials = 200000;
  // 3-sigma binomial bound around rate p estimated from n_eff samples, with
  // a floor so zero-loss rows (p == 0) keep a meaningful tolerance.
  const auto bound3 = [](double p, double n_eff) {
    return 3.0 * std::sqrt(std::max(p * (1.0 - p), 1e-6) / n_eff) + 1e-9;
  };

  for (const auto& row : study.rows) {
    Rng rng(909090);
    const auto mc =
        evaluate_test_mc(population, spec, row.threshold, model, rng, trials);
    const auto& an = row.outcome;

    const double n_faulty = trials * an.defect_rate;
    const double n_good = trials * an.yield;
    EXPECT_NEAR(mc.accept_rate, an.accept_rate, bound3(an.accept_rate, trials))
        << row.label;
    EXPECT_NEAR(mc.yield, an.yield, bound3(an.yield, trials)) << row.label;
    EXPECT_NEAR(mc.yield_loss, an.yield_loss, bound3(an.yield_loss, n_good))
        << row.label;
    EXPECT_NEAR(mc.fault_coverage_loss, an.fault_coverage_loss,
                bound3(an.fault_coverage_loss, n_faulty))
        << row.label;
  }
}

}  // namespace
}  // namespace msts::stats
