// Midpoint-quadrature reference for stats::evaluate_test.
//
// The golden side of the closed_form_vs_quadrature differential pair (see
// check/kernel_checks.h): the parameter density integrated against the
// error-smeared acceptance probability with the midpoint rule on `grid`
// points spanning +/-8 sigma, the domain split at every spec and threshold
// limit, and the result renormalised by the mass inside the window. It is
// slow (one exp per point) and blind beyond +/-8 sigma, which is why the
// library evaluates the same integrals in closed form; here it only has to
// be obviously correct for specs within a few sigma of the mean.
#pragma once

#include "stats/distributions.h"
#include "stats/yield.h"

namespace msts::check {

/// Midpoint-rule evaluation of the TestOutcome fields on `grid` points
/// (grid >= 101; 200001 agrees with a 2000001-point grid within about
/// 1e-8 for specs within a few sigma of the mean).
stats::TestOutcome evaluate_test_quadrature(const stats::Normal& param,
                                            const stats::SpecLimits& spec,
                                            const stats::SpecLimits& threshold,
                                            const stats::ErrorModel& error, int grid);

}  // namespace msts::check
