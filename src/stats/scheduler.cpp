#include "stats/scheduler.h"

#include <atomic>
#include <deque>
#include <exception>

#include "base/require.h"
#include "obs/registry.h"
#include "obs/span.h"

namespace msts::stats {

namespace {

// Set while a thread is one of a Scheduler's workers; used by nested run()
// calls (and parallel_for_index) to find the scheduler they are inside of.
thread_local Scheduler* t_sched = nullptr;

// Per-thread xorshift64 state for victim selection and the round-robin
// offset of external submissions. Seeded from a global Weyl sequence, never
// from the clock: steal order is load-dependent noise either way, and the
// task contract keeps results independent of it.
thread_local std::uint64_t t_steal_rng = 0;

std::uint64_t next_rng() {
  if (t_steal_rng == 0) {
    static std::atomic<std::uint64_t> seq{0x9E3779B97F4A7C15ull};
    t_steal_rng = seq.fetch_add(0x9E3779B97F4A7C15ull,
                                std::memory_order_relaxed) | 1;
  }
  t_steal_rng ^= t_steal_rng << 13;
  t_steal_rng ^= t_steal_rng >> 7;
  t_steal_rng ^= t_steal_rng << 17;
  return t_steal_rng;
}

}  // namespace

// One fan-out: n indices over one function, alive for the duration of a
// run() call (chunks can only reference it while remaining > 0, and run()
// does not return before remaining reaches 0, so stack storage is safe).
struct Scheduler::TaskSet {
  std::size_t n = 0;
  std::size_t chunks = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  obs::SpanId region = 0;            ///< Parent for the sched.task spans.
  std::atomic<std::size_t> remaining{0};  ///< Indices not yet executed.
  std::mutex mu;                     ///< Guards error fields; done_cv wait.
  std::condition_variable done_cv;
  std::exception_ptr error;          ///< Exception of the lowest failing index.
  std::size_t error_index = SIZE_MAX;
};

/// A contiguous slice of one task-set's index range.
struct Scheduler::Chunk {
  TaskSet* set = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
};

// One worker's deque. The owner pushes and pops at the back (LIFO: freshest
// work first, which for nested submission means the child set's chunks run
// before anything older); thieves take from the front (the oldest work, the
// piece the owner would reach last — classic Chase-Lev discipline, here
// behind a per-deque mutex that is uncontended except during steals).
struct Scheduler::Worker {
  std::mutex mu;
  std::deque<Chunk> dq;
};

thread_local Scheduler::Worker* Scheduler::t_self_ = nullptr;

Scheduler::Scheduler(int workers) : workers_count_(workers) {
  MSTS_REQUIRE(workers >= 1, "scheduler needs at least one worker");
  deques_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) deques_.push_back(std::make_unique<Worker>());
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

Scheduler::~Scheduler() {
  // No run() can be in flight here: callers hold a handle (or the owner's
  // reference) across run(), so destruction implies quiescence. Release the
  // workers from the idle wait and join them.
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    stop_ = true;
  }
  idle_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

Scheduler* Scheduler::current() { return t_sched; }

std::shared_ptr<Scheduler> Scheduler::shared(int min_workers) {
  static std::mutex mu;
  // Leaked holder: late top-level callers may outlive static destruction.
  static std::shared_ptr<Scheduler>* holder = new std::shared_ptr<Scheduler>();
  std::lock_guard<std::mutex> lock(mu);
  if (!*holder || (*holder)->workers() < min_workers) {
    if (*holder) obs::counter_add("sched.rebuilds");
    *holder = std::make_shared<Scheduler>(min_workers);
  }
  return *holder;
}

void Scheduler::worker_loop(int self) {
  t_sched = this;
  t_self_ = deques_[static_cast<std::size_t>(self)].get();
  for (;;) {
    if (run_one(t_self_)) continue;
    std::unique_lock<std::mutex> lock(idle_mu_);
    if (stop_) break;
    // pending_ never undercounts queued chunks (it is incremented in the
    // same idle_mu_ critical section that pushes them), so a sleeping
    // worker cannot miss queued work: the predicate is already true.
    idle_cv_.wait(lock, [this] { return stop_ || pending_ > 0; });
    if (stop_) break;
  }
  t_sched = nullptr;
  t_self_ = nullptr;
}

void Scheduler::submit_chunks(TaskSet& set, Worker* home) {
  const std::size_t w = deques_.size();
  // Oversplit four chunks per worker so a skewed chunk still leaves the
  // rest of the range stealable; never more chunks than indices. The split
  // depends only on (n, workers) — and results key on the index, so even
  // that is free to change without affecting any output.
  const std::size_t chunks = std::min(set.n, 4 * w);
  set.chunks = chunks;
  const std::size_t start = home != nullptr ? 0 : next_rng() % w;
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    for (std::size_t c = 0; c < chunks; ++c) {
      Chunk chunk;
      chunk.set = &set;
      chunk.begin = set.n * c / chunks;
      chunk.end = set.n * (c + 1) / chunks;
      // Nested sets land on the submitting worker's own deque (it pops them
      // LIFO during the help-first join; everyone else steals). External
      // callers have no deque and spread round-robin from a random offset.
      Worker& target = home != nullptr ? *home : *deques_[(start + c) % w];
      std::lock_guard<std::mutex> wlock(target.mu);
      target.dq.push_back(chunk);
    }
    pending_ += static_cast<long>(chunks);
    obs::histogram_record("sched.queue_depth", static_cast<double>(pending_));
  }
  idle_cv_.notify_all();
}

bool Scheduler::pop_bottom(Worker& w, Chunk& out) {
  std::lock_guard<std::mutex> lock(w.mu);
  if (w.dq.empty()) return false;
  out = w.dq.back();
  w.dq.pop_back();
  return true;
}

bool Scheduler::steal_any(const Worker* self, Chunk& out) {
  const std::size_t w = deques_.size();
  const std::size_t start = next_rng() % w;
  for (std::size_t k = 0; k < w; ++k) {
    Worker& victim = *deques_[(start + k) % w];
    if (&victim == self) continue;
    std::lock_guard<std::mutex> lock(victim.mu);
    if (victim.dq.empty()) continue;
    out = victim.dq.front();
    victim.dq.pop_front();
    return true;
  }
  return false;
}

void Scheduler::note_taken() {
  std::lock_guard<std::mutex> lock(idle_mu_);
  --pending_;
}

bool Scheduler::run_one(Worker* self) {
  Chunk chunk;
  if (self != nullptr && pop_bottom(*self, chunk)) {
    note_taken();
    execute(chunk);
    return true;
  }
  if (steal_any(self, chunk)) {
    note_taken();
    obs::counter_add("sched.steal");
    execute(chunk);
    return true;
  }
  return false;
}

void Scheduler::execute(const Chunk& chunk) {
  TaskSet& set = *chunk.set;
  // A chunk may execute on an *external* joining thread (a caller stealing
  // while it waits), not just on a worker. Marking the thread as "inside
  // this scheduler" for the chunk's duration makes nested submission route
  // here either way; workers already have t_sched == this, so the
  // save/restore is a no-op for them.
  Scheduler* const prev_sched = t_sched;
  t_sched = this;
  {
    // Explicit parent: chunks execute on arbitrary threads, and the span
    // constructor installs this task as the thread's cursor so everything
    // fn does (plan-cache spans, nested sched.run) nests beneath it.
    obs::Span task("sched.task", set.region);
    task.note("first", static_cast<std::int64_t>(chunk.begin));
    task.note("count", static_cast<std::int64_t>(chunk.end - chunk.begin));
    obs::counter_add("sched.tasks");
    std::size_t i = chunk.begin;
    try {
      for (; i < chunk.end; ++i) (*set.fn)(i);
    } catch (...) {
      // Deterministic choice under a racy schedule: the lowest failing
      // index wins. Later indices of this chunk are skipped; other chunks
      // still run to completion (a failed run's partial side effects are
      // unspecified — callers discard outputs on throw).
      std::lock_guard<std::mutex> lock(set.mu);
      if (i < set.error_index) {
        set.error_index = i;
        set.error = std::current_exception();
      }
    }
  }
  t_sched = prev_sched;
  const std::size_t count = chunk.end - chunk.begin;
  {
    // The decrement and the completion notify form one critical section,
    // and it is the executor's last touch of the set: once a joiner
    // observes remaining == 0 under set.mu, no executor can still be
    // inside the set, so run() may destroy it. (A lock-free decrement
    // would let the joiner see 0 and destroy the set while this thread
    // was still between the decrement and the notify.)
    std::lock_guard<std::mutex> lock(set.mu);
    if (set.remaining.fetch_sub(count, std::memory_order_acq_rel) == count) {
      set.done_cv.notify_all();
    }
  }
}

void Scheduler::join(TaskSet& set, Worker* self) {
  while (set.remaining.load(std::memory_order_acquire) != 0) {
    // Help first: drain our own deque (the child set's chunks sit on top),
    // then steal anything runnable from anyone — executing an unrelated
    // caller's chunk while we wait is what lets concurrent callers share
    // the workers.
    if (run_one(self)) continue;
    // Nothing runnable anywhere, so every remaining chunk of this set is
    // already executing on some other thread (chunks never re-enter a
    // deque, and ours were all queued before join started): sleep until
    // the last one completes. The wait-for graph only points from parent
    // sets to child sets, so this can never cycle.
    std::unique_lock<std::mutex> lock(set.mu);
    set.done_cv.wait(lock, [&set] {
      return set.remaining.load(std::memory_order_acquire) == 0;
    });
    // Predicate true while holding set.mu: the final executor's
    // decrement+notify section has exited, nothing touches the set again.
    return;
  }
  // The help loop saw remaining == 0 via the atomic alone, possibly while
  // the final executor is still inside its decrement+notify section.
  // Acquire set.mu once so that section has exited before the caller
  // destroys the set.
  std::lock_guard<std::mutex> lock(set.mu);
}

void Scheduler::run(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    // Inline serial path: index order on the calling thread, exceptions
    // propagate directly, no scheduling machinery touched.
    fn(0);
    return;
  }
  Worker* self = t_sched == this ? t_self_ : nullptr;
  obs::counter_add("sched.runs");
  if (self != nullptr) obs::counter_add("sched.nested_runs");

  obs::Span span("sched.run");
  span.note("n", static_cast<std::int64_t>(n));

  TaskSet set;
  set.n = n;
  set.fn = &fn;
  set.region = span.id();
  set.remaining.store(n, std::memory_order_relaxed);
  submit_chunks(set, self);
  span.note("chunks", static_cast<std::int64_t>(set.chunks));
  join(set, self);
  if (set.error) std::rethrow_exception(set.error);
}

}  // namespace msts::stats
