// Table 1 — "Set of Parameters to be Tested": the synthesized system-level
// test plan for every module parameter, with the chosen translation method,
// the computation-error budget, and the DFT flags.
#include <cstdio>

#include "bench_report.h"
#include "core/dft_advisor.h"
#include "core/synthesizer.h"
#include "path/receiver_path.h"

using namespace msts;

int main() {
  std::printf("== Table 1: synthesized mixed-signal test plan ==\n\n");
  benchtool::BenchReport report("table1_test_plan");
  const auto config = path::reference_path_config();

  report.phase_start("synthesize");
  const core::TestSynthesizer synth(config, /*adaptive=*/true);
  const auto plan = synth.synthesize();
  report.phase_end();
  std::printf("%s\n", core::format_plan(plan).c_str());

  std::size_t composed = 0, propagated = 0, dft = 0;
  for (const auto& t : plan) {
    switch (t.method) {
      case core::TranslationMethod::kComposition: ++composed; break;
      case core::TranslationMethod::kPropagation: ++propagated; break;
      case core::TranslationMethod::kDirectDft: ++dft; break;
    }
  }
  std::printf("summary: %zu tests by composition, %zu by propagation, %zu need DFT\n\n",
              composed, propagated, dft);
  report.phase_start("dft_advice");
  const auto dft_report = core::advise_dft(plan);
  report.phase_end();
  std::printf("%s", core::format_dft_report(dft_report).c_str());
  report.add_scalar("tests_total", static_cast<std::int64_t>(plan.size()));
  report.add_scalar("tests_composed", static_cast<std::int64_t>(composed));
  report.add_scalar("tests_propagated", static_cast<std::int64_t>(propagated));
  report.add_scalar("tests_dft", static_cast<std::int64_t>(dft));
  std::printf("\n(the paper's claim: the translated set removes the need for analog\n"
              " test points for all but the genuinely unobservable parameters)\n");
  return 0;
}
