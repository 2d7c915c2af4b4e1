// Deterministic work-stealing task scheduler.
//
// The layer between the uniform fork-join loop (stats::parallel_for_index)
// and heterogeneous task graphs: a Scheduler starts and joins W worker
// threads of its own, each with its own double-ended task queue. A run()
// call splits its index range into contiguous chunks and places them on
// the deques; workers pop their own deque from the bottom
// (newest-first, Chase-Lev discipline: the owner works LIFO for locality)
// while idle workers — and the blocked caller — steal from the top of a
// randomly-ordered sequence of victim deques (oldest-first, so a steal takes
// the work the owner would reach last). Randomized stealing balances a
// skewed workload: when one chunk is much more expensive than the rest, the
// other workers drain the remaining chunks instead of idling behind a fixed
// partition.
//
// Determinism: the scheduler randomizes *execution order only*. Every
// consumer keys its outputs and its RNG streams by task index (per-index
// output slots, make_streams-derived per-block generators) and reduces
// serially in index order afterwards, so results are bit-identical to the
// serial run at any worker count and under any steal schedule — the same
// contract the parallel MC engine has always kept.
// The scheduler strengthens exception propagation to be deterministic too:
// run() rethrows the exception of the *lowest* failing index, regardless of
// which worker observed a failure first.
//
// Nested submission (help-first join): a task already running on a scheduler
// worker may call run() again. The child task-set's chunks go onto that
// worker's own deque (stealable by everyone else), and the worker joins by
// *helping*: it keeps popping and stealing tasks — its own child's chunks
// first, by LIFO order — until the child set completes. The joining thread
// never parks while runnable work exists, which makes nesting deadlock-free
// at any width including a single worker: the joiner itself drains the child
// set when nobody else can. Blocked joins sleep only when every remaining
// chunk of the joined set is already executing on some other thread, and the
// wait-for graph only ever points from parent task-sets to child task-sets,
// so it cannot cycle.
//
// External callers (threads that are not scheduler workers — the main
// thread, service workers) participate the same way: run() spreads the
// chunks round-robin over the worker deques, and the caller joins by
// stealing. Concurrent external callers therefore *share* the workers —
// their chunks interleave on the same deques — instead of racing separate
// fork-join partitions.
//
// Instrumentation (msts::obs): a "sched.run" span per run() with one
// "sched.task" child span per chunk (notes: first index, count), counters
// sched.runs / sched.tasks / sched.steal / sched.nested_runs, and a
// sched.queue_depth histogram sampled at every submission.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "stats/parallel.h"

namespace msts::stats {

class Scheduler {
 public:
  /// Spawns `workers` worker threads (>= 1).
  explicit Scheduler(int workers);
  /// Stops the workers and joins them; no run() may be in flight.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  int workers() const { return workers_count_; }

  /// Runs fn(i) for every i in [0, n), distributing contiguous index chunks
  /// over the worker deques with randomized stealing. Blocks until every
  /// index has run; the calling thread participates (pops its own deque when
  /// it is a worker, steals otherwise). n == 0 returns immediately without
  /// touching any machinery; n == 1 runs fn(0) inline on the calling thread.
  /// Safe to call from inside a task (nested submission, help-first join).
  /// Rethrows the recorded exception of the lowest failing index; indices in
  /// other chunks still run (no cancellation), and an index after a throwing
  /// one in the *same* chunk is skipped.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// The scheduler whose task the calling thread is currently executing —
  /// set for its workers and, for a chunk's duration, for external joiners
  /// that steal while waiting — or nullptr outside any task. Nested
  /// parallel_for_index calls use this to submit child task-sets instead of
  /// spawning a second scheduler.
  static Scheduler* current();

  /// Process-wide shared instance as a refcounted handle: a request for
  /// more workers swaps in a bigger scheduler (counted by sched.rebuilds)
  /// while in-flight runs keep the old one alive until their top-level
  /// callers release it.
  static std::shared_ptr<Scheduler> shared(int min_workers);

 private:
  struct TaskSet;
  struct Chunk;
  struct Worker;

  void worker_loop(int self);
  void submit_chunks(TaskSet& set, Worker* home);
  void join(TaskSet& set, Worker* self);
  /// Pops the calling worker's own deque (bottom) or steals (top) from a
  /// randomly rotated victim order; executes the chunk. False when no chunk
  /// was runnable anywhere at the time of the scan.
  bool run_one(Worker* self);
  bool pop_bottom(Worker& w, Chunk& out);
  bool steal_any(const Worker* self, Chunk& out);
  void note_taken();
  void execute(const Chunk& chunk);

  // The calling thread's own deque when it is one of this (or any)
  // scheduler's workers; nullptr on external threads.
  static thread_local Worker* t_self_;

  int workers_count_ = 0;
  std::vector<std::unique_ptr<Worker>> deques_;
  std::mutex idle_mu_;                 // guards pending_/stop_, parks idlers
  std::condition_variable idle_cv_;
  long pending_ = 0;                   // chunks currently sitting in deques
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace msts::stats
