#include "core/mc_validation.h"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "base/require.h"
#include "core/translation.h"
#include "obs/registry.h"
#include "obs/scoped_timer.h"
#include "obs/trace.h"
#include "stats/parallel.h"

namespace msts::core {

McValidation validate_iip3_study_mc(const path::PathConfig& config,
                                    const ParameterStudy& study, int trials,
                                    stats::Rng& rng, bool adaptive,
                                    const path::MeasureOptions& opts, int threads) {
  MSTS_REQUIRE(trials >= 10, "need at least 10 trials");
  obs::ScopedTimer timer("core.validate_iip3_study_mc");
  obs::counter_add("core.validate_iip3_study_mc.trials",
                   static_cast<std::uint64_t>(trials));

  // The test program is synthesized once from the *nominal* description —
  // the device under test never informs its own test.
  const Translator translator(config);
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
  std::vector<TrialRecord> records(static_cast<std::size_t>(trials));
  const std::vector<stats::Rng> streams =
      stats::make_streams(rng.split(), static_cast<std::size_t>(trials));

  // Tracing observes each trial without touching its RNG draws or the serial
  // reduction below: traced runs stay bit-identical to untraced ones.
  const bool traced = obs::trace_enabled();

  stats::parallel_for_index(static_cast<std::size_t>(trials), threads, [&](std::size_t t) {
    const auto t0 = traced ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
    stats::Rng trial_rng = streams[t];
    const double true_iip3 = trial_rng.uniform(lo, hi);

    path::PathConfig instance_cfg = config;
    instance_cfg.mixer.iip3_dbm = stats::Uncertain::exact(true_iip3);
    const auto device = path::PathGraph::sampled(instance_cfg, trial_rng);

    const double measured =
        translator.measure_mixer_iip3_dbm(device, trial_rng, adaptive, opts);

    TrialRecord r;
    r.weight = study.population.pdf(true_iip3);
    r.abs_err = std::abs(measured - true_iip3);
    r.is_good = study.spec.passes(true_iip3);
    r.accepted = threshold.passes(measured);
    records[t] = r;
    if (traced) {
      const auto wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
      obs::trace_emit({obs::TraceKind::kMcBlock,
                       "core.validate_iip3_study_mc",
                       t,
                       {{"stream", static_cast<std::int64_t>(t)},
                        {"trial_begin", static_cast<std::int64_t>(t)},
                        {"trial_end", static_cast<std::int64_t>(t + 1)},
                        {"wall_ns", static_cast<std::int64_t>(wall_ns)}}});
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
