// Quickstart: describe a mixed-signal path, synthesize its system-level test
// plan, and execute one translated test — the 60-second tour of the library.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/synthesizer.h"
#include "path/path_graph.h"
#include "stats/rng.h"

int main() {
  using namespace msts;

  // 1. The path under test: Amp -> Mixer(LO) -> LPF -> ADC -> 13-tap FIR
  //    (the paper's Fig. 6 experimental set-up). Every block parameter
  //    carries a nominal value and a tolerance.
  const path::PathConfig config = path::reference_path_config();

  // 2. Synthesize the test plan: for every Table-1 parameter decide how it
  //    translates to the primary ports, budget the computation error, and
  //    flag anything that genuinely needs DFT.
  const core::TestSynthesizer synth(config, /*adaptive=*/true);
  const auto plan = synth.synthesize();
  std::printf("%s\n", core::format_plan(plan).c_str());

  // 3. Threshold study for one translated parameter (Table-2 style).
  std::printf("%s\n", core::format_study(synth.study_mixer_iip3()).c_str());

  // 4. Execute the translated mixer-IIP3 test on a manufactured (sampled)
  //    path instance, touching only the primary RF input and the digital
  //    filter output.
  stats::Rng mc(2026);
  stats::Rng noise(7);
  const auto device = path::PathGraph::sampled(config, mc);
  const double est = synth.translator().measure_mixer_iip3_dbm(
      device, noise, /*adaptive=*/true);
  std::printf("translated mixer IIP3: %.2f dBm (actual %.2f dBm, budget ±%.2f dB)\n",
              est, device.mixer().actual_iip3_dbm(),
              synth.translator().analyze_mixer_iip3(true).error.wc);
  return 0;
}
