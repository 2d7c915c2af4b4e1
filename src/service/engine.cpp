#include "service/engine.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <utility>

#include "base/require.h"
#include "base/spin.h"
#include "obs/config.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "stats/parallel.h"

namespace msts::service {

namespace {

std::uint64_t ns_between(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) {
  const auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

void add_note(obs::SpanRecord& rec, const char* key, std::int64_t v) {
  if (rec.note_count >= obs::SpanRecord::kMaxNotes) return;
  obs::SpanNote n;
  n.key = key;
  n.type = obs::SpanNote::Type::kInt;
  n.i = v;
  rec.notes[rec.note_count++] = n;
}

std::string hex_bytes(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 0xf]);
  }
  return out;
}

// MSTS_SLOW_REQUEST_S in seconds, range-checked so the product fed to
// llround stays representable; UINT64_MAX (disabled) when unset.
std::uint64_t slow_threshold_ns_from_env() {
  const auto t = obs::env_double("MSTS_SLOW_REQUEST_S", 0.0, 1e9);
  if (!t.has_value()) return UINT64_MAX;
  return static_cast<std::uint64_t>(std::llround(*t * 1e9));
}

}  // namespace

SynthesisEngine::SynthesisEngine(EngineOptions options)
    : options_(options),
      workers_(stats::resolve_threads(options.workers)),
      slow_threshold_ns_(slow_threshold_ns_from_env()) {
  MSTS_REQUIRE(options_.queue_capacity >= 1, "admission queue needs capacity >= 1");
  threads_.reserve(static_cast<std::size_t>(workers_));
  for (int i = 0; i < workers_; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

SynthesisEngine::~SynthesisEngine() {
  // Workers leave only once the queue is empty, and finish the job they
  // hold first, so every admitted request is served before the join.
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) t.join();
}

std::size_t SynthesisEngine::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_;
}

std::unique_ptr<SynthesisEngine::Job> SynthesisEngine::make_job(SynthesisRequest request) {
  auto job = std::make_unique<Job>();
  job->request = std::move(request);
  // The request's root span id is allocated on the *submitting* thread so
  // the root can record the submitter's innermost span as its parent,
  // stitching the tree across the hand-off to a worker. One load decides,
  // at admission, whether the request records its stages at all.
  const std::uint8_t on = obs::switches();
  if ((on & obs::kTraceOn) != 0) {
    job->root = obs::span_allocate_id();
    job->submitter = obs::Span::current();
  }
  job->recorded = on != 0;
  return job;
}

void SynthesisEngine::enqueue(std::unique_ptr<Job> job, std::unique_lock<std::mutex>& lock) {
  job->admitted_at = std::chrono::steady_clock::now();
  jobs_.push_back(std::move(job));
  ++pending_;
  queued_.store(jobs_.size());
  lock.unlock();
  cv_work_.notify_one();  // a no-op unless a worker is parked
  obs::counter_add("service.requests.submitted");
}

// One critical section takes the admission slot and queues the job. The
// submitting thread and the workers all take the lock a few times per
// request, so they spin for it briefly instead of blocking (base/spin.h).
std::future<Served> SynthesisEngine::submit(SynthesisRequest request) {
  std::unique_ptr<Job> job = make_job(std::move(request));
  std::future<Served> future = job->promise.get_future();
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  lock_spinning(lock);
  cv_space_.wait(lock, [this] { return pending_ < options_.queue_capacity; });
  enqueue(std::move(job), lock);
  return future;
}

std::optional<std::future<Served>> SynthesisEngine::try_submit(
    SynthesisRequest request) {
  std::unique_ptr<Job> job = make_job(std::move(request));
  std::future<Served> future = job->promise.get_future();
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  lock_spinning(lock);
  if (pending_ >= options_.queue_capacity) {
    lock.unlock();
    obs::counter_add("service.requests.rejected");
    return std::nullopt;
  }
  enqueue(std::move(job), lock);
  return future;
}

void SynthesisEngine::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (jobs_.empty() && !stop_) {
      // Poll the unlocked size hint first; park only once kIdleSpin has
      // passed. jobs_ itself is only ever touched under the lock.
      lock.unlock();
      const auto park_at = std::chrono::steady_clock::now() + kIdleSpin;
      for (;;) {
        if (queued_.load() != 0 && lock.try_lock()) {
          if (!jobs_.empty()) break;
          lock.unlock();  // another worker took it
        }
        if (std::chrono::steady_clock::now() >= park_at) {
          lock.lock();
          break;
        }
        std::this_thread::yield();
      }
      cv_work_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
    }
    if (jobs_.empty()) return;  // stopping, and every admitted job is served
    std::unique_ptr<Job> job = std::move(jobs_.front());
    jobs_.pop_front();
    queued_.store(jobs_.size());
    lock.unlock();
    serve(*job);
    job.reset();  // the request and promise die outside the lock
    lock_spinning(lock);
  }
}

void SynthesisEngine::serve(Job& job) {
  Served served;
  std::exception_ptr error;
  try {
    served = execute(job);
  } catch (...) {
    error = std::current_exception();
  }
  // Release the admission slot *before* fulfilling the promise: a caller
  // returning from future.get() must observe this request gone from
  // in_flight().
  {
    std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
    lock_spinning(lock);
    --pending_;
  }
  cv_space_.notify_one();
  const Served served_copy = served;  // shared_ptr + PODs; for post-fulfill reporting
  bool slow = false;
  if (error != nullptr) {
    obs::counter_add("service.requests.errors");
    job.promise.set_exception(error);
  } else {
    {
      // Fulfillment cost (promise/value handoff) as its own stage.
      obs::Span fulfill("service.fulfill", job.root);
      job.promise.set_value(std::move(served));
    }
    slow = report_if_slow(job.request, served_copy);
  }
  if (job.recorded) {
    // Root closes after fulfillment so its duration covers the whole
    // admission-to-done lifetime; async because requests overlap.
    obs::SpanRecord rec = obs::span_record_between(
        "service.request", job.root, job.submitter, /*async=*/true, job.admitted_at,
        std::chrono::steady_clock::now());
    add_note(rec, "cache_hit", served_copy.cache_hit ? 1 : 0);
    add_note(rec, "error", error != nullptr ? 1 : 0);
    add_note(rec, "slow", slow ? 1 : 0);
    obs::span_emit(rec);
  }
}

Served SynthesisEngine::execute(const Job& job) {
  const SynthesisRequest& request = job.request;
  const obs::SpanId root = job.root;
  const bool recorded = job.recorded;
  const auto started_at = std::chrono::steady_clock::now();
  Served served;
  served.queue_wait_ns = ns_between(job.admitted_at, started_at);
  // The three stage records are built from the same time points (and the
  // same clamp-at-0) as queue_wait_ns and exec_ns, so their timers and
  // spans reconcile with Served exactly. They are emitted when either
  // switch was on at admission; ids, and with them ring records, exist only
  // for requests admitted with tracing on.
  const auto stage_id = [root] { return root != 0 ? obs::span_allocate_id() : 0; };
  if (recorded) {
    // Async: the wait overlaps whatever this worker thread was doing for
    // other requests.
    obs::span_emit(obs::span_record_between("service.queue_wait", stage_id(), root,
                                            /*async=*/true, job.admitted_at, started_at));
  }

  // The execute-stage span id is allocated up front and installed as the
  // thread's parent cursor so core.synthesize (and everything under it)
  // nests beneath this stage; the record itself is emitted at the end when
  // the stage's end point is known.
  const obs::SpanId exec_span = stage_id();
  auto probe_end = started_at;
  {
    obs::SpanParentScope exec_scope(exec_span);
    if (request.options.use_cache) {
      const std::string key = content_key(request);
      served.result = cache_.lookup(key);
      obs::counter_add(served.result != nullptr ? "service.cache.hit" : "service.cache.miss");
      probe_end = std::chrono::steady_clock::now();
      if (recorded) {
        obs::SpanRecord probe = obs::span_record_between(
            "service.cache_probe", stage_id(), root, /*async=*/false, started_at,
            probe_end);
        add_note(probe, "hit", served.result != nullptr ? 1 : 0);
        obs::span_emit(probe);
      }
      if (served.result != nullptr) {
        served.cache_hit = true;
      } else {
        // Build outside the memo's lock (see base/memo.h): a concurrent
        // miss on the same key costs one redundant synthesis, never a stall
        // of every other key behind this one. The loser adopts the
        // winner's (bit-identical) result.
        auto built = std::make_shared<const SynthesisResult>(synthesize_direct(request));
        served.result = cache_.insert(key, built);
        obs::counter_add(served.result == built ? "service.cache.insert"
                                                : "service.cache.race_adopted");
      }
    } else {
      served.result = std::make_shared<const SynthesisResult>(synthesize_direct(request));
    }
  }

  const auto finished_at = std::chrono::steady_clock::now();
  served.exec_ns = ns_between(started_at, finished_at);
  obs::histogram_record("service.request.latency_s",
                        1e-9 * static_cast<double>(served.latency_ns()));
  if (recorded) {
    // [probe_end, finished_at]: cache_probe + execute partition
    // [started_at, finished_at], so the two stage spans sum to exec_ns.
    obs::SpanRecord rec = obs::span_record_between("service.execute", exec_span, root,
                                                   /*async=*/false, probe_end,
                                                   finished_at);
    add_note(rec, "cache_hit", served.cache_hit ? 1 : 0);
    obs::span_emit(rec);
  }
  return served;
}

bool SynthesisEngine::report_if_slow(const SynthesisRequest& request,
                                     const Served& served) {
  if (slow_threshold_ns_ == UINT64_MAX || served.latency_ns() <= slow_threshold_ns_) {
    return false;
  }
  obs::counter_add("service.slow_requests");
  const std::string key_hex = hex_bytes(content_key(request));
  std::fprintf(stderr,
               "[service] slow request: latency %.3f ms (queue %.3f ms, exec %.3f ms, "
               "cache_hit=%d) content_key=%s\n",
               1e-6 * static_cast<double>(served.latency_ns()),
               1e-6 * static_cast<double>(served.queue_wait_ns),
               1e-6 * static_cast<double>(served.exec_ns),
               served.cache_hit ? 1 : 0, key_hex.c_str());
  return true;
}

std::vector<Served> SynthesisEngine::run_batch(std::vector<SynthesisRequest> requests) {
  std::vector<std::future<Served>> futures;
  futures.reserve(requests.size());
  for (SynthesisRequest& request : requests) {
    futures.push_back(submit(std::move(request)));
  }
  std::vector<Served> out;
  out.reserve(futures.size());
  for (std::future<Served>& f : futures) out.push_back(f.get());
  return out;
}

}  // namespace msts::service
