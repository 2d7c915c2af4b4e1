#include "stats/parallel.h"

#include <algorithm>
#include <memory>
#include <thread>

#include "obs/config.h"
#include "obs/registry.h"
#include "stats/scheduler.h"

namespace msts::stats {

int max_threads() {
  // Strict parse: a set-but-malformed MSTS_THREADS (non-numeric, negative,
  // zero, overflow, trailing junk) throws std::invalid_argument instead of
  // silently falling back to hardware concurrency.
  if (const auto v = obs::env_int("MSTS_THREADS", 1, 4096)) {
    return static_cast<int>(*v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

int resolve_threads(int requested) { return requested > 0 ? requested : max_threads(); }

void parallel_for_index(std::size_t n, int threads,
                        const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;  // fn never called, no machinery touched
  const int resolved = resolve_threads(threads);
  if (resolved <= 1 || n <= 1) {
    // Serial path: index order on the calling thread, the first exception
    // propagates immediately. An explicit threads == 1 stays serial even
    // inside a scheduler worker.
    obs::counter_add("stats.parallel_for.serial_runs");
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // The region itself is recorded by the scheduler: sched.runs and
  // sched.nested_runs count it, its sched.run span times it.
  obs::counter_add("stats.parallel_for.indices", n);

  if (Scheduler* sched = Scheduler::current()) {
    // Nested call from inside a scheduler task: submit a child task-set
    // onto the scheduler we are already running on and help-first join it.
    // The requested width is ignored — nested sets share the existing
    // workers (growing the scheduler from inside one of its own tasks would
    // swap it out from under its callers), and idle workers steal the child
    // chunks, so nesting composes instead of oversubscribing.
    sched->run(n, fn);
    return;
  }

  // Top-level call: acquire the shared scheduler (growing it when this call
  // wants more workers than it has — in-flight callers keep the old one
  // alive through their refcounted handles, and release always happens on a
  // top-level caller thread after its run completed, never on one of the
  // scheduler's own workers). More threads than indices clamps to n: extra
  // workers would have no chunk to run.
  const int runners =
      static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(resolved), n));
  const std::shared_ptr<Scheduler> sched = Scheduler::shared(runners);
  sched->run(n, fn);
}

std::vector<Rng> make_streams(const Rng& base, std::size_t count) {
  std::vector<Rng> streams;
  streams.reserve(count);
  Rng cursor = base;
  for (std::size_t k = 0; k < count; ++k) {
    streams.push_back(cursor);
    if (k + 1 < count) cursor.long_jump();
  }
  return streams;
}

}  // namespace msts::stats
