// The adaptive test strategy (paper Fig. 4): measuring the path gain first
// and substituting it into the IIP3 computation replaces the tolerance stack
// of every post-mixer block with the tolerance of the amplifier alone.
//
// Build & run:  ./build/examples/adaptive_accuracy
#include <cmath>
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

  std::printf("Static budgets: adaptive ±%.2f dB, nominal-gain ±%.2f dB\n\n",
              tr.analyze_mixer_iip3(true).error.wc,
              tr.analyze_mixer_iip3(false).error.wc);

  constexpr int kInstances = 12;
  stats::Rng mc(77);
  stats::Rng n1(78), n2(79);

  std::vector<double> err_adaptive, err_nominal;
  std::printf("%-4s %12s %12s %12s\n", "#", "actual", "adaptive", "nominal");
  for (int i = 0; i < kInstances; ++i) {
    const auto dev = path::PathGraph::sampled(config, mc);
    const double actual = dev.mixer().actual_iip3_dbm();
    const double adaptive = tr.measure_mixer_iip3_dbm(dev, n1, true, opts);
    const double nominal = tr.measure_mixer_iip3_dbm(dev, n2, false, opts);
    std::printf("%-4d %12.2f %12.2f %12.2f\n", i, actual, adaptive, nominal);
    err_adaptive.push_back(std::abs(adaptive - actual));
    err_nominal.push_back(std::abs(nominal - actual));
  }

  const auto sa = stats::summarize(std::move(err_adaptive));
  const auto sn = stats::summarize(std::move(err_nominal));
  std::printf("\n|error| mean: adaptive %.3f dB vs nominal %.3f dB (max %.3f vs %.3f)\n",
              sa.mean, sn.mean, sa.max, sn.max);
  std::printf("Adaptive wins when the post-mixer gains sit away from nominal — the\n"
              "measured path gain absorbs their skew; only the amp tolerance remains.\n");
  return 0;
}
