// Ablation — translation design choices:
//  (1) adaptive vs nominal-gain computation for every propagated parameter
//      (error budget and resulting Table-2 losses);
//  (2) composition vs per-block testing: number of required measurements
//      (sec. 4.2: "composition of parameters also decreases the number of
//      required tests in case three or more basic blocks are cascaded").
#include <cstdio>

#include "bench_report.h"
#include "core/synthesizer.h"
#include "path/receiver_path.h"

using namespace msts;

int main() {
  std::printf("== Ablation: translation strategy choices ==\n\n");
  benchtool::BenchReport report("ablation_translation");
  const auto config = path::reference_path_config();

  // ---- (1) adaptive vs nominal -----------------------------------------
  report.phase_start("adaptive_vs_nominal");
  const core::TestSynthesizer adaptive(config, true);
  const core::TestSynthesizer nominal(config, false);

  std::printf("IIP3 study, adaptive strategy:\n%s\n",
              core::format_study(adaptive.study_mixer_iip3()).c_str());
  std::printf("IIP3 study, nominal-gain strategy:\n%s\n",
              core::format_study(nominal.study_mixer_iip3()).c_str());

  const auto fa = adaptive.study_mixer_iip3().row("Tol").outcome;
  const auto fn = nominal.study_mixer_iip3().row("Tol").outcome;
  report.phase_end();
  std::printf("at Thr=Tol: adaptive FCL %.2f %% / YL %.2f %%  vs  nominal FCL %.2f %% "
              "/ YL %.2f %%\n\n",
              100.0 * fa.fault_coverage_loss, 100.0 * fa.yield_loss,
              100.0 * fn.fault_coverage_loss, 100.0 * fn.yield_loss);
  report.add_scalar("adaptive.fcl_pct_at_tol", 100.0 * fa.fault_coverage_loss);
  report.add_scalar("adaptive.yl_pct_at_tol", 100.0 * fa.yield_loss);
  report.add_scalar("nominal.fcl_pct_at_tol", 100.0 * fn.fault_coverage_loss);
  report.add_scalar("nominal.yl_pct_at_tol", 100.0 * fn.yield_loss);

  // ---- (2) composition vs per-block test counts --------------------------
  // Per-block gain testing of the 4 gain-bearing blocks needs one stimulus /
  // measurement pair per block (plus the test points to reach them);
  // composition needs one path-gain measurement plus the two boundary checks
  // of Fig. 3 (high-amplitude saturation, low-amplitude SNR).
  const int blocks = 4;
  const int per_block_tests = blocks;
  const int per_block_test_points = 2 * (blocks - 1);  // insert + observe nodes
  const int composed_tests = 1 + 2;
  std::printf("gain testing of %d cascaded blocks:\n", blocks);
  std::printf("  per-block: %d measurements, %d analog test points\n",
              per_block_tests, per_block_test_points);
  std::printf("  composed:  %d measurements (path gain + 2 boundary checks), 0 test "
              "points\n\n",
              composed_tests);

  // ---- worst-case vs statistical error treatment -------------------------
  // The tolerance-interval (uniform worst-case) model is conservative: gain
  // corners rarely align. The RSS/Gaussian treatment (the follow-on
  // statistical tolerance analysis) shrinks the predicted losses.
  report.phase_start("error_treatment");
  {
    const auto a = adaptive.translator().analyze_mixer_iip3(true);
    const auto& p = config.mixer.iip3_dbm;
    const stats::Normal pop{p.nominal, p.sigma};
    const auto spec = stats::SpecLimits::at_least(p.nominal - 2.0 * p.sigma);
    const auto wc = core::threshold_study("IIP3", "dBm", pop, spec, a.error,
                                          core::ErrorTreatment::kWorstCase);
    const auto st = core::threshold_study("IIP3", "dBm", pop, spec, a.error,
                                          core::ErrorTreatment::kStatistical);
    std::printf("error treatment at Thr=Tol (adaptive IIP3, wc ±%.2f dB / RSS sigma "
                "%.2f dB):\n",
                a.error.wc, a.error.sigma);
    std::printf("  worst-case (uniform): FCL %6.2f %%  YL %6.2f %%\n",
                100.0 * wc.row("Tol").outcome.fault_coverage_loss,
                100.0 * wc.row("Tol").outcome.yield_loss);
    std::printf("  statistical (RSS):    FCL %6.2f %%  YL %6.2f %%\n\n",
                100.0 * st.row("Tol").outcome.fault_coverage_loss,
                100.0 * st.row("Tol").outcome.yield_loss);
  }
  report.phase_end();

  // ---- summary of all propagated parameters under both strategies -------
  std::printf("%-14s %16s %16s\n", "parameter", "adaptive err(wc)", "nominal err(wc)");
  const auto& ta = adaptive.translator();
  std::printf("%-14s %13.2f dB %13.2f dB\n", "mixer IIP3",
              ta.analyze_mixer_iip3(true).error.wc,
              ta.analyze_mixer_iip3(false).error.wc);
  std::printf("%-14s %13.2f dB %13.2f dB   (G_A tolerance either way)\n",
              "mixer P1dB", ta.analyze_mixer_p1db().error.wc,
              ta.analyze_mixer_p1db().error.wc);
  std::printf("%-14s %12.1f kHz %12.1f kHz  (self-referenced either way)\n",
              "lpf f_c", ta.analyze_lpf_cutoff().error.wc / 1e3,
              ta.analyze_lpf_cutoff().error.wc / 1e3);
  return 0;
}
