// Table 2 — "Fault Coverage and Yield Losses" for P1dB, IIP3 and f_c at the
// three canonical thresholds (Tol, Tol-Err, Tol+Err).
//
// The paper's rows (their circuit):
//          Thr=Tol       Thr=Tol-Err   Thr=Tol+Err
//          FCL    YL     FCL    YL     FCL    YL
//   P1dB   12%    0.8%   22%    0%     0%     1.9%   (OCR-degraded, approx)
//   IIP3   8.5%   0.6%   22%    0%     0%     1.5%->15.2% ...
//   f_c    6.1%   0.6%   22%    0%     0%     1.9%->9.1%
// Absolute numbers depend on their (unpublished) tolerances; the structure —
// Tol-Err zeroes YL and inflates FCL, Tol+Err the reverse — must reproduce.
#include <cstdio>

#include "bench_report.h"
#include "core/synthesizer.h"
#include "path/receiver_path.h"

using namespace msts;

int main() {
  std::printf("== Table 2: fault-coverage and yield losses per threshold ==\n\n");
  benchtool::BenchReport report("table2_fcl_yl");
  const auto config = path::reference_path_config();
  const core::TestSynthesizer synth(config, /*adaptive=*/true);

  report.phase_start("studies");
  const core::ParameterStudy studies[] = {
      synth.study_mixer_p1db(),
      synth.study_mixer_iip3(),
      synth.study_lpf_cutoff(),
  };
  report.phase_end();

  std::printf("%-12s | %-19s | %-19s | %-19s\n", "", "Thr = Tol", "Thr = Tol-Err",
              "Thr = Tol+Err");
  std::printf("%-12s | %8s %9s | %8s %9s | %8s %9s\n", "param", "FCL %", "YL %",
              "FCL %", "YL %", "FCL %", "YL %");
  std::printf("%s\n", std::string(79, '-').c_str());
  for (const auto& s : studies) {
    const auto& a = s.row("Tol").outcome;
    const auto& b = s.row("Tol-Err").outcome;
    const auto& c = s.row("Tol+Err").outcome;
    std::printf("%-12s | %8.2f %9.2f | %8.2f %9.2f | %8.2f %9.2f\n",
                s.parameter.c_str(), 100.0 * a.fault_coverage_loss,
                100.0 * a.yield_loss, 100.0 * b.fault_coverage_loss,
                100.0 * b.yield_loss, 100.0 * c.fault_coverage_loss,
                100.0 * c.yield_loss);
    report.add_scalar(s.parameter + ".fcl_pct_at_tol", 100.0 * a.fault_coverage_loss);
    report.add_scalar(s.parameter + ".yl_pct_at_tol", 100.0 * a.yield_loss);
  }

  std::printf("\nerror budgets: P1dB ±%.2f dB, IIP3 ±%.2f dB (adaptive), f_c ±%.1f kHz\n",
              studies[0].error_wc, studies[1].error_wc, studies[2].error_wc / 1e3);
  std::printf("\nNote (paper sec. 5): losses are over *soft* faults — parametric\n"
              "deviations near the spec; catastrophic faults are always caught.\n");
  return 0;
}
