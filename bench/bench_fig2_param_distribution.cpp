// Fig. 2 — "Probability Distribution of a Parameter and its Effect on Fault
// and Yield Coverage".
//
// Prints the parameter pdf with the acceptance window marked, and the
// FCL/YL integrals as the measurement uncertainty grows — the quantitative
// content behind the figure's shaded regions.
#include <cstdio>

#include "bench_report.h"
#include "core/coverage.h"
#include "stats/distributions.h"

using namespace msts;

int main() {
  std::printf("== Fig. 2: parameter distribution and FC/yield loss regions ==\n");
  benchtool::BenchReport report("fig2_param_distribution");

  // A generic toleranced parameter: nominal 1.0, tolerance ±10 % (3 sigma).
  const stats::Normal pop{1.0, 0.1 / 3.0};
  const auto spec = stats::SpecLimits::window(0.9, 1.1);

  report.phase_start("pdf_scan");
  std::printf("# pdf with acceptance window [%.2f, %.2f]\n", spec.lo, spec.hi);
  std::printf("%10s %12s %8s\n", "x", "pdf", "region");
  for (int i = 0; i <= 60; ++i) {
    const double x = pop.mean - 5.0 * pop.sigma +
                     10.0 * pop.sigma * static_cast<double>(i) / 60.0;
    std::printf("%10.4f %12.5f %8s\n", x, pop.pdf(x),
                spec.passes(x) ? "good" : "faulty");
  }
  report.phase_end();

  report.phase_start("loss_sweep");
  std::printf("\n# losses vs measurement uncertainty (threshold at Tol)\n");
  std::printf("%14s %10s %10s %10s\n", "err (x tol)", "FCL %", "YL %", "yield %");
  for (double frac : {0.0, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0}) {
    const double err = frac * 0.1;
    const auto study = core::threshold_study("param", "", pop, spec,
                                             stats::Uncertain(0.0, err, err / 3.0));
    const auto& o = study.row("Tol").outcome;
    std::printf("%14.2f %10.2f %10.2f %10.2f\n", frac,
                100.0 * o.fault_coverage_loss, 100.0 * o.yield_loss,
                100.0 * o.yield);
    if (frac == 0.5) {
      report.add_scalar("fcl_pct_at_half_tol_err", 100.0 * o.fault_coverage_loss);
      report.add_scalar("yl_pct_at_half_tol_err", 100.0 * o.yield_loss);
    }
  }
  report.phase_end();
  std::printf("\nReading: uncertainty turns the sharp spec boundary into the two\n"
              "shaded loss regions of Fig. 2 — faulty parts accepted near the lower\n"
              "bound (FC loss) and good parts rejected near it (yield loss).\n");
  return 0;
}
