// Brief polling before a thread blocks.
//
// A thread that blocks in the kernel (on a contended std::mutex or an empty
// work queue) lets its CPU go idle, and on a virtual machine an idle vCPU
// halts: waking it again takes a cross-CPU interrupt whose latency is set by
// the host, not by this process. The service's critical sections are a few
// hundred nanoseconds and its hand-offs a few microseconds, so a short poll
// usually succeeds before a block would even begin, and a request's latency
// no longer depends on how quickly the host reschedules a halted vCPU.
//
// Polling yields the CPU between tries, so a thread that shares its CPU
// with the thread it waits for hands the CPU over instead of burning it.
#pragma once

#include <mutex>
#include <thread>

namespace msts {

/// Acquires the mutex of the unlocked `lock`, retrying a few times (yielding
/// the CPU in between) before it blocks.
inline void lock_spinning(std::unique_lock<std::mutex>& lock) {
  constexpr int kTries = 8;
  for (int i = 0; i < kTries; ++i) {
    if (lock.try_lock()) return;
    std::this_thread::yield();
  }
  lock.lock();
}

}  // namespace msts
