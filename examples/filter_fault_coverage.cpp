// Digital-filter fault coverage through the analog path: synthesize the
// two-tone test, run the stuck-at campaign in both regimes (exact inputs vs
// the translated, noisy-path stimulus) and show how the noise mask protects
// the good circuit while catching faults.
//
// Build & run:  ./build/examples/filter_fault_coverage
#include <cstdio>
#include <vector>

#include "core/digital_test.h"
#include "path/path_graph.h"

int main() {
  using namespace msts;

  const path::PathConfig config = path::reference_path_config();
  const core::DigitalTester tester(config);

  std::printf("Device under test: %zu-tap FIR, %zu nets, %zu collapsed stuck-at faults\n",
              config.fir_taps, tester.netlist().num_nets(), tester.faults().size());

  core::DigitalTestOptions opt;
  const auto plan = tester.plan(opt);
  std::printf("Synthesized stimulus: %zu tones at IF ", plan.if_freqs.size());
  for (double f : plan.if_freqs) std::printf("%.0f kHz  ", f / 1e3);
  std::printf("\nExpected at filter input: SNR %.1f dB, SFDR %.1f dB\n\n",
              plan.expected_filter_in_snr_db, plan.expected_filter_in_sfdr_db);

  // Every 8th fault keeps this demo under a second while staying
  // representative; the bench binaries run the full universe.
  std::vector<digital::Fault> faults;
  for (std::size_t i = 0; i < tester.faults().size(); i += 8) {
    faults.push_back(tester.faults()[i]);
  }

  const auto ideal = tester.ideal_codes(plan);
  const auto exact = tester.exact_campaign(ideal, faults);
  std::printf("Exact-inputs regime:   %5zu/%zu detected  (%.1f %% coverage)\n",
              exact.detected, exact.total, 100.0 * exact.coverage());

  const path::PathGraph device(config);
  stats::Rng noise(42);
  const auto noisy = tester.path_codes(plan, device, noise);
  const auto spectral = tester.spectral_campaign(plan, ideal, noisy, faults);
  std::printf("Translated (noisy) regime: %zu/%zu detected  (%.1f %% coverage)\n",
              spectral.result.detected, spectral.result.total,
              100.0 * spectral.result.coverage());
  std::printf("Good circuit flagged by the mask: %s\n",
              spectral.good_circuit_flagged ? "YES (yield loss!)" : "no");

  // A couple of named examples of what escaped and why.
  std::printf("\nSample undetected faults (effects below the noise mask):\n");
  int shown = 0;
  for (std::size_t i = 0; i < faults.size() && shown < 5; ++i) {
    if (!spectral.result.detected_flags[i] && exact.detected_flags[i]) {
      std::printf("  %s\n", digital::describe(tester.netlist(), faults[i]).c_str());
      ++shown;
    }
  }
  return 0;
}
