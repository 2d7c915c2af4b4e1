#include "digital/fault_sim.h"

#include <algorithm>
#include <cstdint>

#include "base/require.h"
#include "base/simd.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "stats/parallel.h"

namespace msts::digital {

double FaultSimResult::coverage() const {
  if (faults.empty()) return 0.0;
  const auto hits = static_cast<double>(std::count(detected.begin(), detected.end(), true));
  return hits / static_cast<double>(faults.size());
}

FaultSimResult simulate_faults(const Netlist& nl, const Bus& input, const Bus& output,
                               std::span<const std::int64_t> stimulus,
                               std::span<const Fault> faults,
                               const FaultSimOptions& options) {
  MSTS_REQUIRE(!stimulus.empty(), "stimulus must be non-empty");
  MSTS_REQUIRE(input.width() >= 1 && output.width() >= 1, "need input and output buses");
  obs::Span span("digital.simulate_faults");
  obs::counter_add("digital.simulate_faults.faults", faults.size());
  obs::counter_add("digital.simulate_faults.vectors", stimulus.size());

  FaultSimResult result;
  result.faults.assign(faults.begin(), faults.end());
  result.detected.assign(faults.size(), false);
  if (options.capture_waveforms) {
    result.waveforms.assign(faults.size(), {});
  }

  // Dedicated good-machine pass: the reference waveform no longer piggybacks
  // on batch 0, so every faulty batch is independent of the others and may
  // run concurrently.
  {
    ParallelSimulator sim(nl, 1);  // one machine suffices for the reference
    result.good_waveform.reserve(stimulus.size());
    for (std::int64_t x : stimulus) {
      sim.set_bus(input, x);
      sim.eval();
      result.good_waveform.push_back(sim.bus_value(output, 0));
      sim.clock();
    }
  }
  if (faults.empty()) return result;

  // Machines per simulator word group: 64 * W machines, machine 0 good,
  // machines 1..64W-1 carrying one fault each. W defaults to the active SIMD
  // backend's vector width (512-way batches on AVX-512).
  const std::size_t mwords =
      options.machine_words > 0
          ? static_cast<std::size_t>(options.machine_words)
          : static_cast<std::size_t>(simd::kernels().fault_words);
  const std::size_t per_batch = 64 * mwords - 1;
  const std::size_t nbatches = (faults.size() + per_batch - 1) / per_batch;
  // vector<bool> packs adjacent flags into shared words, so batches record
  // their verdicts in per-batch masks and the flags are unpacked serially.
  std::vector<std::uint64_t> batch_masks(nbatches * mwords, 0);

  stats::parallel_for_index(nbatches, options.threads, [&](std::size_t bi) {
    const std::size_t base = bi * per_batch;
    const std::size_t batch = std::min<std::size_t>(per_batch, faults.size() - base);

    ParallelSimulator sim(nl, mwords);
    for (std::size_t i = 0; i < batch; ++i) {
      sim.inject(faults[base + i], static_cast<int>(i + 1));
    }
    if (options.capture_waveforms) {
      for (std::size_t i = 0; i < batch; ++i) {
        result.waveforms[base + i].reserve(stimulus.size());
      }
    }

    std::vector<std::uint64_t> detected_mask(mwords, 0);
    for (std::int64_t x : stimulus) {
      sim.set_bus(input, x);
      sim.eval();

      // Exact compare: any output bit differing from machine 0 (bit 0 of
      // word 0, broadcast across the whole word group).
      for (NetId bit : output.bits) {
        const std::uint64_t* w = sim.value_words(bit);
        const std::uint64_t good = (w[0] & 1ull) ? ~0ull : 0ull;
        for (std::size_t wi = 0; wi < mwords; ++wi) {
          detected_mask[wi] |= w[wi] ^ good;
        }
      }

      if (options.capture_waveforms) {
        for (std::size_t i = 0; i < batch; ++i) {
          result.waveforms[base + i].push_back(
              sim.bus_value(output, static_cast<int>(i + 1)));
        }
      }

      sim.clock();
    }
    std::copy(detected_mask.begin(), detected_mask.end(),
              batch_masks.begin() + bi * mwords);
  });

  for (std::size_t bi = 0; bi < nbatches; ++bi) {
    const std::size_t base = bi * per_batch;
    const std::size_t batch = std::min<std::size_t>(per_batch, faults.size() - base);
    const std::uint64_t* masks = batch_masks.data() + bi * mwords;
    for (std::size_t i = 0; i < batch; ++i) {
      const std::size_t m = i + 1;
      result.detected[base + i] = ((masks[m / 64] >> (m % 64)) & 1ull) != 0;
    }
  }

  return result;
}

std::vector<std::int64_t> simulate_good(const Netlist& nl, const Bus& input,
                                        const Bus& output,
                                        std::span<const std::int64_t> stimulus) {
  const FaultSimResult r = simulate_faults(nl, input, output, stimulus, {}, {});
  return r.good_waveform;
}

}  // namespace msts::digital
