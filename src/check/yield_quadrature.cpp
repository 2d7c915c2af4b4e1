#include "check/yield_quadrature.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "base/require.h"

namespace msts::check {

namespace {

// P(x + E falls inside `thr`) for the given error model.
double accept_probability(double x, const stats::SpecLimits& thr,
                          const stats::ErrorModel& err) {
  using Kind = stats::ErrorModel::Kind;
  if (err.kind == Kind::kNone || err.magnitude == 0.0) {
    return thr.passes(x) ? 1.0 : 0.0;
  }
  auto cdf_below = [&](double limit) -> double {
    // P(x + E <= limit) = P(E <= limit - x).
    const double d = limit - x;
    if (err.kind == Kind::kUniform) {
      if (d <= -err.magnitude) return 0.0;
      if (d >= err.magnitude) return 1.0;
      return (d + err.magnitude) / (2.0 * err.magnitude);
    }
    return stats::normal_cdf(d / err.magnitude);
  };

  switch (thr.side) {
    case stats::SpecSide::kLowerBound: return 1.0 - cdf_below(thr.lo);
    case stats::SpecSide::kUpperBound: return cdf_below(thr.hi);
    case stats::SpecSide::kTwoSided: return cdf_below(thr.hi) - cdf_below(thr.lo);
  }
  return 0.0;
}

}  // namespace

stats::TestOutcome evaluate_test_quadrature(const stats::Normal& param,
                                            const stats::SpecLimits& spec,
                                            const stats::SpecLimits& threshold,
                                            const stats::ErrorModel& error, int grid) {
  MSTS_REQUIRE(param.sigma > 0.0, "parameter spread must be positive");
  MSTS_REQUIRE(grid >= 101, "grid too coarse");

  const double span = 8.0 * param.sigma;
  const double lo = param.mean - span;
  const double hi = param.mean + span;

  // Split the integration domain at every discontinuity of the integrand: the
  // spec boundaries (where the good/faulty indicator jumps) AND the threshold
  // boundaries (where a zero-error acceptance step jumps, and where the
  // error-smeared acceptance ramp kinks). A guard-banded threshold sits
  // strictly between the spec bounds, so without its cut the acceptance step
  // would land mid-segment and cost O(dx) accuracy.
  std::vector<double> cuts = {lo, hi};
  for (double b : {spec.lo, spec.hi, threshold.lo, threshold.hi}) {
    if (std::isfinite(b) && b > lo && b < hi) cuts.push_back(b);
  }
  std::sort(cuts.begin(), cuts.end());

  double p_good = 0.0;
  double p_accept = 0.0;
  double p_good_reject = 0.0;
  double p_faulty_accept = 0.0;
  double mass = 0.0;

  for (std::size_t seg = 0; seg + 1 < cuts.size(); ++seg) {
    const double a = cuts[seg];
    const double b = cuts[seg + 1];
    if (b - a <= 0.0) continue;
    const int pts = std::max(16, static_cast<int>(grid * (b - a) / (hi - lo)));
    const double dx = (b - a) / static_cast<double>(pts);
    const bool good = spec.passes(0.5 * (a + b));
    // Midpoint rule: never evaluates at a segment boundary, where the
    // good/faulty indicator and a zero-error acceptance step both jump.
    for (int i = 0; i < pts; ++i) {
      const double x = a + dx * (static_cast<double>(i) + 0.5);
      const double w = param.pdf(x) * dx;
      const double pa = accept_probability(x, threshold, error);
      mass += w;
      p_accept += w * pa;
      if (good) {
        p_good += w;
        p_good_reject += w * (1.0 - pa);
      } else {
        p_faulty_accept += w * pa;
      }
    }
  }

  // Normalise for the (tiny) tail mass beyond +/-8 sigma.
  stats::TestOutcome out;
  out.yield = p_good / mass;
  out.defect_rate = 1.0 - out.yield;
  out.accept_rate = p_accept / mass;
  out.yield_loss = (p_good > 0.0) ? p_good_reject / p_good : 0.0;
  const double p_faulty = mass - p_good;
  out.fault_coverage_loss = (p_faulty > 1e-15) ? p_faulty_accept / p_faulty : 0.0;
  return out;
}

}  // namespace msts::check
