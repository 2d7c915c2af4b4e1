// Fig. 4 — "Improving Accuracy": IIP3 computed with nominal gains vs the
// adaptive computation using the measured path gain.
//
// Monte-Carlo over manufactured paths; reports the static worst-case budgets
// and the observed estimate-error distributions for both computations.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_report.h"
#include "core/translation.h"
#include "path/receiver_path.h"
#include "stats/monte_carlo.h"

using namespace msts;

int main() {
  std::printf("== Fig. 4: IIP3 translation accuracy, nominal vs adaptive ==\n\n");
  benchtool::BenchReport report("fig4_adaptive_accuracy");

  const auto config = path::reference_path_config();
  const core::Translator tr(config);
  path::MeasureOptions opts;
  opts.digital_record = benchtool::scaled_record(2048, 512);

  report.phase_start("static_budgets");
  const auto a_ad = tr.analyze_mixer_iip3(true);
  const auto a_no = tr.analyze_mixer_iip3(false);
  report.phase_end();
  std::printf("static worst-case budgets:\n");
  std::printf("  (b) adaptive:     ±%.2f dB   [%s]\n", a_ad.error.wc, a_ad.formula.c_str());
  std::printf("  (a) nominal gains:±%.2f dB   [%s]\n\n", a_no.error.wc, a_no.formula.c_str());
  report.add_scalar("wc_budget_adaptive_db", a_ad.error.wc);
  report.add_scalar("wc_budget_nominal_db", a_no.error.wc);

  const int kTrials = static_cast<int>(benchtool::scaled_trials(40, 6));
  report.add_scalar("mc_paths", std::int64_t{kTrials});
  report.phase_start("mc_paths");
  stats::Rng mc(101);
  stats::Rng n1(102), n2(103);
  std::vector<double> e_ad, e_no;
  for (int i = 0; i < kTrials; ++i) {
    const auto dev = path::ReceiverPath::sampled(config, mc);
    const double actual = dev.mixer().actual_iip3_dbm();
    e_ad.push_back(tr.measure_mixer_iip3_dbm(dev, n1, true, opts) - actual);
    e_no.push_back(tr.measure_mixer_iip3_dbm(dev, n2, false, opts) - actual);
  }
  const auto sa = stats::summarize(std::move(e_ad));
  const auto sn = stats::summarize(std::move(e_no));
  report.phase_end();
  report.add_scalar("err_stddev_adaptive_db", sa.stddev);
  report.add_scalar("err_stddev_nominal_db", sn.stddev);

  std::printf("observed estimate error over %d paths (dB):\n", kTrials);
  std::printf("%-10s %8s %8s %8s %8s %8s\n", "method", "mean", "stddev", "p05", "p95",
              "|max|");
  std::printf("%-10s %8.3f %8.3f %8.3f %8.3f %8.3f\n", "adaptive", sa.mean, sa.stddev,
              sa.p05, sa.p95, std::max(std::abs(sa.min), std::abs(sa.max)));
  std::printf("%-10s %8.3f %8.3f %8.3f %8.3f %8.3f\n", "nominal", sn.mean, sn.stddev,
              sn.p05, sn.p95, std::max(std::abs(sn.min), std::abs(sn.max)));

  std::printf("\nReading: the adaptive computation (path gain measured first, only\n"
              "G_A's tolerance left) tightens both the worst-case budget and the\n"
              "observed spread, as in Fig. 4(b) of the paper.\n");
  return 0;
}
