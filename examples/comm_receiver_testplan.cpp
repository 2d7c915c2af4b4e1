// Full communication-receiver scenario: Monte-Carlo over manufactured path
// instances, executing every translated analog test and comparing estimates
// with the true block parameters — the workflow a test engineer would run
// before committing to the translated test set.
//
// Build & run:  ./build/examples/comm_receiver_testplan
#include <cstdio>
#include <vector>

#include "core/translation.h"
#include "path/path_graph.h"
#include "stats/monte_carlo.h"

int main() {
  using namespace msts;

  const path::PathConfig config = path::reference_path_config();
  const core::Translator tr(config);
  path::MeasureOptions opts;
  opts.digital_record = 2048;

  constexpr int kInstances = 8;
  stats::Rng mc(11);
  stats::Rng noise(12);

  std::printf("Monte-Carlo over %d manufactured paths (primary ports only)\n\n",
              kInstances);
  std::printf("%-4s %10s %10s | %10s %10s | %10s %10s | %9s %9s\n", "#", "gain est",
              "gain act", "iip3 est", "iip3 act", "p1db est", "p1db act", "fc est",
              "fc act");

  std::vector<double> gain_err, iip3_err, p1db_err, fc_err;
  for (int i = 0; i < kInstances; ++i) {
    const auto dev = path::PathGraph::sampled(config, mc);

    const double g_est = tr.measure_path_gain_db(dev, noise, opts);
    const double g_act = dev.amp().actual_gain_db() +
                         dev.mixer().actual_conv_gain_db() +
                         dev.lpf().actual_passband_gain_db();

    const double i_est = tr.measure_mixer_iip3_dbm(dev, noise, true, opts);
    const double i_act = dev.mixer().actual_iip3_dbm();

    const double p_est = tr.measure_mixer_p1db_dbm(dev, noise, opts);
    const double p_act = dev.mixer().actual_p1db_in_dbm();

    const double f_est = tr.measure_lpf_cutoff_hz(dev, noise, opts);
    const double f_act = dev.lpf().actual_cutoff_hz();

    std::printf("%-4d %10.2f %10.2f | %10.2f %10.2f | %10.2f %10.2f | %8.0fk %8.0fk\n",
                i, g_est, g_act, i_est, i_act, p_est, p_act, f_est / 1e3,
                f_act / 1e3);
    gain_err.push_back(g_est - g_act);
    iip3_err.push_back(i_est - i_act);
    p1db_err.push_back(p_est - p_act);
    fc_err.push_back((f_est - f_act) / 1e3);
  }

  auto report = [](const char* name, std::vector<double> errs, const char* unit) {
    const auto s = stats::summarize(std::move(errs));
    std::printf("  %-10s mean err %+7.3f %s, spread (p05..p95) [%+.3f, %+.3f]\n",
                name, s.mean, unit, s.p05, s.p95);
  };
  std::printf("\nTranslated-measurement error summary:\n");
  report("path gain", std::move(gain_err), "dB");
  report("IIP3", std::move(iip3_err), "dB");
  report("P1dB", std::move(p1db_err), "dB");
  report("f_c", std::move(fc_err), "kHz");

  std::printf("\nStatic error budgets (worst case):\n");
  std::printf("  IIP3 adaptive  ±%.2f dB | IIP3 nominal ±%.2f dB | P1dB ±%.2f dB | "
              "f_c ±%.1f kHz\n",
              tr.analyze_mixer_iip3(true).error.wc,
              tr.analyze_mixer_iip3(false).error.wc,
              tr.analyze_mixer_p1db().error.wc,
              tr.analyze_lpf_cutoff().error.wc / 1e3);
  return 0;
}
