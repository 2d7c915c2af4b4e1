// Deterministic parallel execution for Monte-Carlo workloads.
//
// The contract that makes the whole toolkit reproducible under threading:
// work is partitioned into blocks whose boundaries depend only on the
// problem size (never on the thread count), each block draws from its own
// xoshiro256++ stream derived from a common base via long_jump() (2^192
// steps apart, so streams can never overlap), every block writes to its own
// output slots, and any floating-point reduction happens serially in block
// order afterwards. Results are therefore bit-identical whether the blocks
// run on 1 thread, 8 threads, or anything in between.
//
// Thread count resolution: an explicit `threads` argument wins; 0 defers to
// the MSTS_THREADS environment variable; when that is unset the hardware
// concurrency is used, and when it is set but malformed (non-numeric,
// negative, zero, overflow) resolution throws std::invalid_argument rather
// than silently misparsing. A resolved count of 1 takes a serial path that
// touches no threading machinery at all (the serial fallback).
//
// Execution substrate: parallel regions run on the process-wide
// work-stealing Scheduler (stats/scheduler.h), the toolkit's one generic
// pool of compute threads — per-worker deques, randomized stealing, nested
// submission with help-first joins. Calls made from inside a scheduler task
// become child task-sets on the same workers (no oversubscription,
// deadlock-free at any width); independent top-level callers share the
// workers through the same deques.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "stats/rng.h"

namespace msts::stats {

/// Thread count from the MSTS_THREADS environment variable, falling back to
/// std::thread::hardware_concurrency() when unset. Always >= 1. Throws
/// std::invalid_argument when MSTS_THREADS is set to anything but an
/// integer in [1, 4096].
int max_threads();

/// Resolves a caller-supplied thread request: `requested` > 0 is honoured as
/// given; 0 (the library-wide default) resolves to max_threads().
int resolve_threads(int requested);

/// Runs fn(i) for every i in [0, n) using up to `threads` threads (resolved
/// via resolve_threads) on the shared work-stealing scheduler. fn must
/// confine its writes to per-index state; the function returns once every
/// index has run and rethrows the exception of the lowest failing index
/// (deterministic at any thread count; on the serial path the first throw
/// propagates immediately and stops the loop).
///
/// Degenerate partitions (pinned behavior):
///   * n == 0      — returns immediately; fn is never called, no counters
///                   move, no threading machinery is touched.
///   * n == 1      — fn(0) runs serially on the calling thread, whatever
///                   `threads` resolves to.
///   * resolved 1  — serial loop in index order on the calling thread (an
///                   explicit threads == 1 stays serial even inside a
///                   scheduler worker — nested MC opt-outs keep working).
///   * threads > n — the effective worker request clamps to n; a task-set
///                   never has more chunks than indices, so extra workers
///                   idle instead of receiving empty work.
///
/// Nesting: a call made from inside a scheduler task submits a child
/// task-set onto the same workers and help-first joins it (running queued
/// tasks while waiting) — nested regions compose instead of serializing or
/// oversubscribing, and remain deadlock-free at any width including 1. The
/// requested `threads` is ignored for nested calls (the scheduler's width
/// governs); results are unaffected because every consumer keys outputs and
/// RNG streams by index.
///
/// Independent top-level calls run concurrently: the scheduler is handed
/// out as a refcounted handle and the global lock covers only the handle
/// swap, never a whole call. Concurrent callers' chunks interleave on the
/// same worker deques without affecting each other's (per-index, hence
/// order-independent) results. When a call requests more workers than the
/// scheduler has, a larger scheduler replaces the shared handle; in-flight
/// callers keep the old one alive until their calls complete, so workers
/// are never joined out from under a concurrent user.
void parallel_for_index(std::size_t n, int threads,
                        const std::function<void(std::size_t)>& fn);

/// Derives `count` independent generators for deterministic parallel trial
/// blocks: stream k is `base` advanced by k long_jump()s, i.e. streams sit
/// 2^192 draws apart. Stream 0 is `base` itself. The result depends only on
/// `base` and `count` — never on the thread count that will consume it.
std::vector<Rng> make_streams(const Rng& base, std::size_t count);

}  // namespace msts::stats
