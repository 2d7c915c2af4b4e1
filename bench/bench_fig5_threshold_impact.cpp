// Fig. 5 — "Impact of Error on Fault Detection": sliding the pass threshold
// between min-err and min+err trades fault-coverage loss against yield loss.
#include <cstdio>

#include "bench_report.h"
#include "core/coverage.h"
#include "core/synthesizer.h"
#include "path/receiver_path.h"

using namespace msts;

int main() {
  std::printf("== Fig. 5: threshold placement vs FCL / YL (mixer IIP3 test) ==\n\n");
  benchtool::BenchReport report("fig5_threshold_impact");

  report.phase_start("study");
  const auto config = path::reference_path_config();
  const core::TestSynthesizer synth(config, /*adaptive=*/true);
  const auto study = synth.study_mixer_iip3();
  report.phase_end();

  std::printf("parameter: %s, population N(%.2f, %.2f) %s, spec >= %.2f, "
              "err(wc) = ±%.2f\n\n",
              study.parameter.c_str(), study.population.mean, study.population.sigma,
              study.unit.c_str(), study.spec.lo, study.error_wc);
  report.add_scalar("err_wc_db", study.error_wc);

  report.phase_start("sweep");
  const auto sweep = core::threshold_sweep(
      study.population, study.spec, stats::Uncertain(0.0, study.error_wc, 0.0), 17);
  report.phase_end();
  report.add_scalar("sweep_points", static_cast<std::int64_t>(sweep.size()));
  std::printf("%16s %10s %10s\n", "threshold shift", "FCL %", "YL %");
  for (const auto& [shift, o] : sweep) {
    const char* marker = "";
    if (shift <= -study.error_wc + 1e-12) marker = "  <- Thr = Tol-Err";
    else if (std::abs(shift) < 1e-12) marker = "  <- Thr = Tol";
    else if (shift >= study.error_wc - 1e-12) marker = "  <- Thr = Tol+Err";
    std::printf("%16.3f %10.2f %10.2f%s\n", shift, 100.0 * o.fault_coverage_loss,
                100.0 * o.yield_loss, marker);
    if (std::abs(shift) < 1e-12) {
      report.add_scalar("fcl_pct_at_tol", 100.0 * o.fault_coverage_loss);
      report.add_scalar("yl_pct_at_tol", 100.0 * o.yield_loss);
    }
  }

  std::printf("\nReading: moving the threshold toward Tol-Err zeroes yield loss but\n"
              "admits every marginally-faulty part the error can disguise; toward\n"
              "Tol+Err the reverse — the designer picks the point on this curve\n"
              "that the product economics tolerate (sec. 4.2).\n");
  return 0;
}
