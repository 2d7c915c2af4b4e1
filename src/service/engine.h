// The synthesis service front end: bounded admission + workers + cache.
//
// A SynthesisEngine owns a fixed set of worker threads (the existing
// stats::ThreadPool) behind a *bounded admission queue*: submit() blocks the
// producer once `queue_capacity` requests are in flight (admission-control
// backpressure — a service under overload slows its callers down instead of
// growing an unbounded queue), try_submit() refuses instead of blocking.
// Admitted requests execute concurrently on the workers; each one first
// consults the content-hash PlanCache (service/cache.h) and only
// synthesizes on a miss, outside any lock.
//
// The engine's ThreadPool handles request admission only; any parallel
// region a request opens (MC evaluation, sweep scoring) runs through
// stats::parallel_for_index on the process-wide work-stealing Scheduler
// (stats/scheduler.h), so concurrent requests *share* one set of compute
// workers — their chunks interleave on the same deques — instead of each
// forking a private partition and oversubscribing the machine.
//
// Determinism contract: synthesis consumes no RNG, so a served result is
// bit-identical to a direct synthesize_direct() call for the same request —
// whether it came from a worker, the cache, or a concurrent miss that lost
// the insertion race. result_content() equality is the test for this.
//
// Instrumentation (msts::obs): each request records its stages as spans
// (obs/span.h) — an async "service.request" root spanning admission to
// fulfillment, an async "service.queue_wait" child, and on-thread
// "service.cache_probe" / "service.execute" / "service.fulfill" stages.
// Whether a request records them is decided once, at admission: with
// MSTS_METRICS on, each stage is a registry timer under its own name; with
// MSTS_TRACE on, the records also assemble into the request's span tree.
// The stage records are built from the *same* steady_clock time points as
// Served::queue_wait_ns and exec_ns, so the queue_wait stage equals
// queue_wait_ns exactly and cache_probe + execute sum to exec_ns exactly,
// as timers and as spans. Work nested inside execution (core.synthesize,
// stats.parallel_for / sched.run / sched.task chunks, dsp plan-cache
// builds) parents under the execute span. Besides the spans: a latency
// histogram (service.request.latency_s), counters service.requests.{
// submitted,rejected,errors} and the service.cache.* counters.
// The bench_service target turns these plus its own per-request samples
// into p50/p99 latency and plans/sec in BENCH_service.json.
//
// Requests whose end-to-end latency exceeds the slow-request threshold
// (EngineOptions::slow_request_threshold_s, or MSTS_SLOW_REQUEST_S when
// that is negative; unset = disabled) bump service.slow_requests, log one
// stderr line carrying the latency split and the hex content key (enough
// to find and replay the offending request), and carry a `slow` note on
// their service.request root span.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "obs/span.h"
#include "service/cache.h"
#include "service/request.h"
#include "stats/parallel.h"

namespace msts::service {

struct EngineOptions {
  /// Worker threads; 0 resolves via stats::resolve_threads (MSTS_THREADS /
  /// hardware concurrency).
  int workers = 0;
  /// Admission bound: submit() blocks (try_submit() refuses) while this many
  /// requests are queued or executing.
  std::size_t queue_capacity = 1024;
  /// Master cache switch (per-request use_cache can only opt *out*).
  bool cache = true;
  /// End-to-end latency (queue wait + execution, seconds) above which a
  /// request is reported as slow (counter, stderr log, root span note).
  /// Negative = resolve from MSTS_SLOW_REQUEST_S; unset env = disabled.
  double slow_request_threshold_s = -1.0;
};

/// One served request: the shared immutable result plus per-request timing.
struct Served {
  std::shared_ptr<const SynthesisResult> result;
  std::uint64_t queue_wait_ns = 0;  ///< Admission to execution start.
  std::uint64_t exec_ns = 0;        ///< Execution start to completion.
  bool cache_hit = false;

  std::uint64_t latency_ns() const { return queue_wait_ns + exec_ns; }
};

class SynthesisEngine {
 public:
  explicit SynthesisEngine(EngineOptions options = {});

  /// Drains every admitted request, then joins the workers.
  ~SynthesisEngine();

  SynthesisEngine(const SynthesisEngine&) = delete;
  SynthesisEngine& operator=(const SynthesisEngine&) = delete;

  /// Admits one request, blocking while the queue is full. The future
  /// carries the served result (or the synthesis exception).
  std::future<Served> submit(SynthesisRequest request);

  /// Non-blocking admission: nullopt (and a service.requests.rejected count)
  /// when the queue is full.
  std::optional<std::future<Served>> try_submit(SynthesisRequest request);

  /// Submits every request and waits for all of them; results are returned
  /// in request order. Blocks for admission as submit() does, so batches
  /// larger than the queue capacity stream through it.
  std::vector<Served> run_batch(std::vector<SynthesisRequest> requests);

  int workers() const { return workers_; }
  std::size_t queue_capacity() const { return options_.queue_capacity; }
  std::size_t cache_size() const { return cache_.size(); }

  /// Requests currently admitted but not yet completed.
  std::size_t in_flight() const;

 private:
  std::future<Served> admit(SynthesisRequest request);
  Served execute(const SynthesisRequest& request,
                 std::chrono::steady_clock::time_point admitted_at,
                 obs::SpanId root, bool recorded);
  /// Counts and logs a request over the slow threshold; true when it was.
  bool report_if_slow(const SynthesisRequest& request, const Served& served);

  EngineOptions options_;
  int workers_ = 1;
  std::uint64_t slow_threshold_ns_ = UINT64_MAX;  ///< UINT64_MAX = disabled.
  PlanCache cache_;
  mutable std::mutex mu_;
  std::condition_variable cv_space_;
  std::size_t pending_ = 0;
  std::unique_ptr<stats::ThreadPool> pool_;  // last member: dies first
};

}  // namespace msts::service
