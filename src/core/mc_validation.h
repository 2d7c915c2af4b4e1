// Monte-Carlo validation of a threshold study: closes the loop between the
// analytic FCL/YL prediction (distribution x error-model integrals) and the
// translated test as actually executed on simulated devices.
//
// For each trial a device is manufactured whose parameter under test is
// drawn across the good/faulty boundary (importance-sampled uniformly and
// re-weighted by the population pdf, so the thin faulty tail gets adequate
// samples), every *other* parameter is drawn from its tolerance, the
// translated measurement runs against the device's primary ports, and the
// pass/fail verdict is compared with the device's true parameter.
#pragma once

#include "core/coverage.h"
#include "path/measurements.h"
#include "stats/rng.h"

namespace msts::core {

/// Outcome of an MC validation run.
struct McValidation {
  int trials = 0;
  double weight_good = 0.0;    ///< Probability-weighted good population mass.
  double weight_faulty = 0.0;  ///< Probability-weighted faulty mass.
  double fcl_measured = 0.0;   ///< P(accept | faulty), empirical.
  double yl_measured = 0.0;    ///< P(reject | good), empirical.
  double fcl_predicted = 0.0;  ///< Analytic value from the study (Thr = Tol).
  double yl_predicted = 0.0;
  double mean_abs_meas_error = 0.0;  ///< Mean |measured - true| parameter error.
};

/// Validates the mixer-IIP3 study: `study` supplies the population, spec and
/// analytic losses; each trial executes Translator::measure_mixer_iip3_dbm
/// on a freshly manufactured device of `graph` whose first mixer's true IIP3
/// is known.
///
/// Trials run in parallel, one long_jump-derived RNG stream per trial and a
/// serial trial-order reduction, so the result is bit-identical for every
/// thread count (`threads` > 0 forces a count; 0 defers to MSTS_THREADS /
/// hardware concurrency). Each thread measures its share of the devices
/// path::kLanes at a time (path/lanes.h), bit-identical to one at a time.
McValidation validate_iip3_study_mc(const path::PathGraphConfig& graph,
                                    const ParameterStudy& study, int trials,
                                    stats::Rng& rng, bool adaptive = true,
                                    const path::MeasureOptions& opts = {},
                                    int threads = 0);

}  // namespace msts::core
