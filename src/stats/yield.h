// Fault-coverage-loss / yield-loss evaluation of a parameter test.
//
// This is the quantitative heart of the paper (Figs. 2 & 5, Table 2): a
// translated test measures a parameter with some error; combined with the
// parameter's manufacturing distribution and the chosen pass threshold this
// determines how many good parts fail (yield loss) and how many faulty parts
// pass (fault coverage loss). evaluate_test integrates the Gaussian
// parameter density against the error-smeared acceptance region in closed
// form for every error model; evaluate_test_mc simulates the same
// population. The two cross-check each other in the tests, and a midpoint
// quadrature (check/yield_quadrature.h) is kept as the golden reference of
// the closed form.
#pragma once

#include "stats/distributions.h"
#include "stats/rng.h"

namespace msts::stats {

/// Which side(s) of the parameter are specified.
enum class SpecSide {
  kLowerBound,  ///< Pass iff x >= lo        (e.g. IIP3, P1dB minimums).
  kUpperBound,  ///< Pass iff x <= hi        (e.g. noise figure maximum).
  kTwoSided,    ///< Pass iff lo <= x <= hi  (e.g. cutoff frequency window).
};

/// Acceptance region for a parameter (true spec) or for its measured value
/// (test threshold).
struct SpecLimits {
  SpecSide side = SpecSide::kTwoSided;
  double lo = 0.0;
  double hi = 0.0;

  bool passes(double x) const;

  static SpecLimits at_least(double lo);
  static SpecLimits at_most(double hi);
  static SpecLimits window(double lo, double hi);

  /// Shifts every active limit outward/inward by `delta` (positive widens a
  /// lower bound downward and an upper bound upward — i.e. loosens the test).
  /// A two-sided window tightened past its own midpoint (delta > (hi-lo)/2)
  /// collapses to the zero-width window at the crossing point — a well-formed
  /// region that accepts only that single value (measure zero for continuous
  /// parameters) — never an inverted lo > hi pair.
  SpecLimits loosened(double delta) const;
  /// Opposite of loosened(): tightens the acceptance region by `delta`.
  SpecLimits tightened(double delta) const;
};

/// Measurement/computation error model for the translated test.
struct ErrorModel {
  enum class Kind {
    kNone,      ///< Perfect measurement.
    kUniform,   ///< Error uniform in [-magnitude, +magnitude] (worst-case
                ///< tolerance-interval semantics).
    kGaussian,  ///< Error ~ N(0, magnitude^2).
  };
  Kind kind = Kind::kNone;
  double magnitude = 0.0;

  static ErrorModel none();
  /// Both factories require a finite, non-negative magnitude.
  static ErrorModel uniform(double half_width);
  static ErrorModel gaussian(double sigma);
};

/// Outcome of evaluating a test against a parameter population.
struct TestOutcome {
  double yield = 0.0;                ///< P(part is good).
  double defect_rate = 0.0;          ///< P(part is faulty) = 1 - yield.
  double accept_rate = 0.0;          ///< P(test accepts).
  double yield_loss = 0.0;           ///< P(reject | good).
  double fault_coverage_loss = 0.0;  ///< P(accept | faulty).
};

/// Exact evaluation in closed form. With no error or uniform error of
/// half-width h, P(accept | x) is linear in x between consecutive
/// breakpoints (the spec limits and each threshold limit +/- h), so each
/// segment integrates to a combination of normal-interval probabilities and
/// density values;
/// with Gaussian error of sigma s, (x, x + E) is bivariate normal with
/// correlation sigma / sqrt(sigma^2 + s^2), so each joint mass is a
/// bivariate-normal rectangle probability. Every reported probability
/// (yield, defect rate, accept rate and the good-and-rejected /
/// faulty-and-accepted masses behind the two losses) is summed over its own
/// region from tail-side terms, never taken as the difference of
/// near-equal totals, so the losses stay exact for specs far out in a tail.
/// Accuracy: about 1e-15 absolute on each mass. Relative to its own
/// region, a conditional loss stays within about 4e-12 with no or uniform
/// error for specs up to 30 sigma from the mean, and within about 1e-11
/// with Gaussian error up to 9 sigma.
///
/// Requires a finite mean, a finite positive sigma, a finite non-negative
/// error magnitude and limits that are not NaN (+/-inf is legal on the open
/// side of a one-sided spec or threshold); throws std::invalid_argument
/// otherwise. A two-sided region with lo > hi accepts nothing.
TestOutcome evaluate_test(const Normal& param, const SpecLimits& spec,
                          const SpecLimits& threshold, const ErrorModel& error);

/// Monte-Carlo evaluation; converges to evaluate_test as trials grows.
///
/// Trials run in fixed-size blocks, each on its own long_jump-derived RNG
/// stream (see stats/parallel.h), so the outcome is bit-identical for every
/// thread count. `threads` > 0 forces a count; 0 defers to MSTS_THREADS /
/// hardware concurrency. `rng` is advanced by one jump() regardless of
/// trials or threads. Validates its inputs as evaluate_test does.
TestOutcome evaluate_test_mc(const Normal& param, const SpecLimits& spec,
                             const SpecLimits& threshold, const ErrorModel& error,
                             Rng& rng, int trials = 200000, int threads = 0);

}  // namespace msts::stats
