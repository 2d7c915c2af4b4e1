// End-to-end production flow: back-propagate the system spec into block
// budgets, synthesize the guard-banded test program, screen a lot of
// manufactured devices (including two planted defects), and print datalogs
// plus the DFT advisory for the untranslatable parameters.
//
// Build & run:  ./build/examples/production_test_program
#include <cstdio>

#include "core/dft_advisor.h"
#include "core/spec_backprop.h"
#include "core/synthesizer.h"
#include "core/test_program.h"
#include "path/path_graph.h"

int main() {
  using namespace msts;
  const auto config = path::reference_path_config();

  // 1. System requirements -> block budgets.
  core::SystemRequirements req;
  req.min_path_gain_db = 22.0;
  req.max_path_gain_db = 28.0;
  req.min_output_snr_db = 45.0;
  req.input_level_dbm = -40.0;
  std::printf("%s\n", core::format_backprop(core::backpropagate_spec(config, req)).c_str());

  // 2. Synthesized, guard-banded test program (adaptive ordering built in).
  path::MeasureOptions opts;
  opts.digital_record = 1024;
  const core::TestProgram program(config, core::GuardBandPolicy::kAtTol, opts);
  std::printf("test program (%s), %zu steps:", to_string(program.policy()).c_str(),
              program.steps().size());
  for (const auto& s : program.steps()) std::printf(" %s", s.name.c_str());
  std::printf("\n\n");

  // 3. Screen a small lot: 8 in-tolerance devices + 2 planted defects.
  stats::Rng mc(123);
  stats::Rng noise(124);
  int passed = 0;
  for (int i = 0; i < 8; ++i) {
    const auto device = path::PathGraph::sampled(config, mc);
    const auto log = program.run(device, noise, /*stop_on_fail=*/true);
    passed += log.pass ? 1 : 0;
    std::printf("device %d: %s\n", i,
                log.pass ? "PASS" : ("FAIL at " + log.failed_at).c_str());
  }
  std::printf("lot yield: %d/8\n\n", passed);

  auto defective_iip3 = config;
  defective_iip3.mixer.iip3_dbm = stats::Uncertain::exact(-6.0);
  auto defective_fc = config;
  defective_fc.lpf.cutoff_hz = stats::Uncertain::exact(1.3e6);

  std::printf("planted defect: weak mixer (IIP3 = -6 dBm)\n%s\n",
              core::format_datalog(
                  program.run(path::PathGraph(defective_iip3), noise)).c_str());
  std::printf("planted defect: shifted cutoff (1.3 MHz)\n%s\n",
              core::format_datalog(
                  program.run(path::PathGraph(defective_fc), noise)).c_str());

  // 4. What still needs silicon support.
  const core::TestSynthesizer synth(config);
  std::printf("%s", core::format_dft_report(core::advise_dft(synth.synthesize())).c_str());
  return 0;
}
