#include "core/mc_validation.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "base/require.h"
#include "core/translation.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "path/lanes.h"
#include "stats/parallel.h"

namespace msts::core {

McValidation validate_iip3_study_mc(const path::PathGraphConfig& graph,
                                    const ParameterStudy& study, int trials,
                                    stats::Rng& rng, bool adaptive,
                                    const path::MeasureOptions& opts, int threads) {
  MSTS_REQUIRE(trials >= 10, "need at least 10 trials");
  obs::Span span("core.validate_iip3_study_mc");
  obs::counter_add("core.validate_iip3_study_mc.trials",
                   static_cast<std::uint64_t>(trials));

  // The test program is synthesized once from the *nominal* description —
  // the device under test never informs its own test.
  const Translator translator(graph);
  const std::size_t mixer_index = graph.first_index(path::BlockKind::kMixer);
  const auto threshold = study.row("Tol").threshold;

  McValidation v;
  v.trials = trials;
  v.fcl_predicted = study.row("Tol").outcome.fault_coverage_loss;
  v.yl_predicted = study.row("Tol").outcome.yield_loss;

  // Importance sampling: uniform over +/-4 sigma, weighted by the pdf.
  const double lo = study.population.mean - 4.0 * study.population.sigma;
  const double hi = study.population.mean + 4.0 * study.population.sigma;

  // Each trial manufactures and measures a whole device on its own RNG
  // stream; the records land in trial order and are reduced serially below,
  // so the sums are bit-identical for every thread count.
  struct TrialRecord {
    double weight = 0.0;
    double abs_err = 0.0;
    bool is_good = false;
    bool accepted = false;
  };
  const auto n = static_cast<std::size_t>(trials);
  std::vector<TrialRecord> records(n);
  const std::vector<stats::Rng> streams = stats::make_streams(rng.split(), n);

  // The trials run in contiguous groups, two per scheduler runner (its
  // workers and the joining caller): a group manufactures its devices, then
  // measures them with the translator's lane form, path::kLanes at a time.
  // Lanes are bit-identical to one device at a time, so the grouping only
  // balances the work: equal groups keep every runner busy to the end, and
  // two per runner still balance when the runners outnumber the cores.
  const int resolved = stats::resolve_threads(threads);
  const std::size_t runners = resolved > 1 ? static_cast<std::size_t>(resolved) + 1 : 1;
  const std::size_t groups = std::min(2 * runners, (n + path::kLanes - 1) / path::kLanes);
  stats::parallel_for_index(groups, threads, [&](std::size_t g) {
    const std::size_t begin = n * g / groups;
    const std::size_t count = n * (g + 1) / groups - begin;
    std::vector<stats::Rng> trial_rngs(streams.begin() + static_cast<std::ptrdiff_t>(begin),
                                       streams.begin() +
                                           static_cast<std::ptrdiff_t>(begin + count));
    std::vector<double> true_iip3(count);
    std::vector<path::PathGraph> devices;
    devices.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      true_iip3[i] = trial_rngs[i].uniform(lo, hi);
      path::PathGraphConfig instance = graph;
      instance.blocks[mixer_index].mixer.iip3_dbm = stats::Uncertain::exact(true_iip3[i]);
      devices.push_back(path::PathGraph::sampled(instance, trial_rngs[i]));
    }
    std::vector<const path::PathGraph*> device_ptrs(count);
    std::vector<stats::Rng*> rng_ptrs(count);
    for (std::size_t i = 0; i < count; ++i) {
      device_ptrs[i] = &devices[i];
      rng_ptrs[i] = &trial_rngs[i];
    }
    std::vector<double> measured(count);
    translator.measure_mixer_iip3_dbm(device_ptrs, rng_ptrs, adaptive, measured, opts);

    for (std::size_t i = 0; i < count; ++i) {
      TrialRecord r;
      r.weight = study.population.pdf(true_iip3[i]);
      r.abs_err = std::abs(measured[i] - true_iip3[i]);
      r.is_good = study.spec.passes(true_iip3[i]);
      r.accepted = threshold.passes(measured[i]);
      records[begin + i] = r;
    }
  });

  double w_good_reject = 0.0;
  double w_faulty_accept = 0.0;
  double abs_err_sum = 0.0;
  for (const TrialRecord& r : records) {
    // Recorded in the serial reduction, so the histogram bins fill in trial
    // order regardless of how many threads ran the loop above.
    obs::histogram_record("core.validate_iip3_study_mc.abs_err", r.abs_err);
    abs_err_sum += r.abs_err;
    if (r.is_good) {
      v.weight_good += r.weight;
      if (!r.accepted) w_good_reject += r.weight;
    } else {
      v.weight_faulty += r.weight;
      if (r.accepted) w_faulty_accept += r.weight;
    }
  }

  v.fcl_measured = (v.weight_faulty > 0.0) ? w_faulty_accept / v.weight_faulty : 0.0;
  v.yl_measured = (v.weight_good > 0.0) ? w_good_reject / v.weight_good : 0.0;
  v.mean_abs_meas_error = abs_err_sum / static_cast<double>(trials);
  return v;
}

}  // namespace msts::core
