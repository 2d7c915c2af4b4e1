// Parallel stuck-at fault simulation driver.
//
// Runs the fault universe in batches of 64 * fault_words - 1 faulty machines
// (63 scalar, 127 NEON, 255 AVX2, 511 AVX-512; FaultSimOptions::machine_words)
// plus the good machine (bit 0) against a broadcast stimulus sequence. Two
// observation styles, matching the paper's two detection regimes:
//  * exact compare — a fault is detected when any output bit differs from
//    the good machine in any cycle (the "exact inputs known" regime of
//    sec. 5's 89.6 % / 95.5 % coverage figures);
//  * waveform capture — the per-fault output sample streams are returned so
//    a spectral detector (core/digital_test.h) can compare output spectra
//    within a noise-derived tolerance, the paper's translated-test regime.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "digital/faults.h"
#include "digital/netlist.h"
#include "digital/sim.h"

namespace msts::digital {

/// What simulate_faults should record.
struct FaultSimOptions {
  bool capture_waveforms = false;  ///< Keep per-fault output streams.
  /// Batches run concurrently, each on its own simulator instance; the
  /// result is identical for every thread count (the batch partition is
  /// fixed and there is no randomness). > 0 forces a count; 0 defers to
  /// MSTS_THREADS / hardware concurrency; 1 is the serial path.
  int threads = 0;
  /// 64-bit words per net: each batch simulates 64*machine_words - 1 faults
  /// beside the good machine (bit 0). 0 defers to the active SIMD backend's
  /// fault_words (1 scalar, 4 AVX2, 8 AVX-512). Detection is exact logic,
  /// so the verdicts are bit-identical at every width — only the batch
  /// partition (and the speed) changes.
  int machine_words = 0;
};

/// Result of a fault-simulation campaign.
struct FaultSimResult {
  std::vector<Fault> faults;             ///< As submitted.
  std::vector<bool> detected;            ///< Exact-compare verdict per fault.
  std::vector<std::int64_t> good_waveform;  ///< Good-machine output stream.
  /// Per-fault output streams; empty unless capture_waveforms was set.
  std::vector<std::vector<std::int64_t>> waveforms;

  /// Detected count / fault count.
  double coverage() const;
};

/// Simulates `faults` against the stimulus (one input-bus sample per cycle).
/// DFF state starts at zero for every machine.
FaultSimResult simulate_faults(const Netlist& nl, const Bus& input, const Bus& output,
                               std::span<const std::int64_t> stimulus,
                               std::span<const Fault> faults,
                               const FaultSimOptions& options = {});

/// Convenience: good-circuit output stream only.
std::vector<std::int64_t> simulate_good(const Netlist& nl, const Bus& input,
                                        const Bus& output,
                                        std::span<const std::int64_t> stimulus);

}  // namespace msts::digital
