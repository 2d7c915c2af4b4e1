// Tests for fault-coverage-loss / yield-loss evaluation (stats/yield.h),
// the math behind the paper's Figs. 2 & 5 and Table 2.
#include "stats/yield.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace msts::stats {
namespace {

TEST(SpecLimits, PassPredicates) {
  EXPECT_TRUE(SpecLimits::at_least(2.0).passes(2.0));
  EXPECT_TRUE(SpecLimits::at_least(2.0).passes(5.0));
  EXPECT_FALSE(SpecLimits::at_least(2.0).passes(1.9));
  EXPECT_TRUE(SpecLimits::at_most(2.0).passes(-10.0));
  EXPECT_FALSE(SpecLimits::at_most(2.0).passes(2.1));
  EXPECT_TRUE(SpecLimits::window(1.0, 2.0).passes(1.5));
  EXPECT_FALSE(SpecLimits::window(1.0, 2.0).passes(2.5));
  EXPECT_THROW(SpecLimits::window(2.0, 1.0), std::invalid_argument);
}

TEST(SpecLimits, LoosenedAndTightened) {
  const auto lb = SpecLimits::at_least(2.0).loosened(0.5);
  EXPECT_TRUE(lb.passes(1.6));
  const auto ub = SpecLimits::at_most(2.0).loosened(0.5);
  EXPECT_TRUE(ub.passes(2.4));
  const auto win = SpecLimits::window(1.0, 2.0).tightened(0.25);
  EXPECT_FALSE(win.passes(1.1));
  EXPECT_TRUE(win.passes(1.5));
}

TEST(SpecLimits, TightenedPastMidpointCollapsesToZeroWidthWindow) {
  // Over-tightening a two-sided window must not produce an inverted
  // (lo > hi) pair: it collapses to the zero-width window at the crossing
  // point, which accepts only that single value.
  const auto collapsed = SpecLimits::window(1.0, 2.0).tightened(0.75);
  EXPECT_EQ(collapsed.lo, 1.5);
  EXPECT_EQ(collapsed.hi, 1.5);
  EXPECT_TRUE(collapsed.passes(1.5));
  EXPECT_FALSE(collapsed.passes(1.5 - 1e-12));
  EXPECT_FALSE(collapsed.passes(1.5 + 1e-12));

  // Exactly to the midpoint: same zero-width window, no collapse needed.
  const auto exact = SpecLimits::window(1.0, 2.0).tightened(0.5);
  EXPECT_EQ(exact.lo, 1.5);
  EXPECT_EQ(exact.hi, 1.5);

  // Loosening a collapsed window recovers a sensible window around the
  // crossing point (the property threshold sweeps rely on).
  const auto recovered = collapsed.loosened(0.25);
  EXPECT_EQ(recovered.lo, 1.25);
  EXPECT_EQ(recovered.hi, 1.75);

  // One-sided bounds never collapse; they just keep marching.
  const auto lb = SpecLimits::at_least(2.0).tightened(5.0);
  EXPECT_EQ(lb.lo, 7.0);
  EXPECT_FALSE(lb.passes(6.9));

  // A collapsed window is still a valid evaluate_test input: everything is
  // rejected, so accept_rate ~ 0 and yield_loss ~ 1.
  const Normal param{1.5, 0.3};
  const auto spec = SpecLimits::window(1.0, 2.0);
  const auto out = evaluate_test(param, spec, collapsed, ErrorModel::none());
  EXPECT_NEAR(out.accept_rate, 0.0, 1e-12);
  EXPECT_NEAR(out.yield_loss, 1.0, 1e-12);
}

TEST(EvaluateTest, PerfectMeasurementHasNoLoss) {
  const Normal param{10.0, 1.0};
  const auto spec = SpecLimits::at_least(8.0);
  const auto out = evaluate_test(param, spec, spec, ErrorModel::none());
  EXPECT_NEAR(out.yield_loss, 0.0, 1e-9);
  EXPECT_NEAR(out.fault_coverage_loss, 0.0, 1e-9);
  EXPECT_NEAR(out.yield, 1.0 - normal_cdf(-2.0), 1e-6);
}

TEST(EvaluateTest, ErrorCreatesBothLosses) {
  const Normal param{10.0, 1.0};
  const auto spec = SpecLimits::at_least(8.0);
  const auto out =
      evaluate_test(param, spec, spec, ErrorModel::uniform(0.5));
  EXPECT_GT(out.yield_loss, 0.0);
  EXPECT_GT(out.fault_coverage_loss, 0.0);
}

TEST(EvaluateTest, MoreErrorMoreLoss) {
  const Normal param{10.0, 1.0};
  const auto spec = SpecLimits::at_least(8.0);
  double prev_yl = 0.0, prev_fcl = 0.0;
  for (double err : {0.1, 0.3, 0.6, 1.0}) {
    const auto out = evaluate_test(param, spec, spec, ErrorModel::uniform(err));
    EXPECT_GE(out.yield_loss, prev_yl);
    EXPECT_GE(out.fault_coverage_loss, prev_fcl);
    prev_yl = out.yield_loss;
    prev_fcl = out.fault_coverage_loss;
  }
}

TEST(EvaluateTest, GuardBandTradesFclForYl) {
  // The paper's Table 2 structure: loosening the threshold (Thr = Tol - Err
  // for a lower bound) zeroes yield loss but inflates fault coverage loss;
  // tightening (Thr = Tol + Err) zeroes FCL but inflates yield loss.
  const Normal param{10.0, 1.0};
  const auto spec = SpecLimits::at_least(8.0);
  const double err = 0.5;
  const auto model = ErrorModel::uniform(err);

  const auto at_tol = evaluate_test(param, spec, spec, model);
  const auto loose = evaluate_test(param, spec, spec.loosened(err), model);
  const auto tight = evaluate_test(param, spec, spec.tightened(err), model);

  EXPECT_NEAR(loose.yield_loss, 0.0, 1e-9);
  EXPECT_GT(loose.fault_coverage_loss, at_tol.fault_coverage_loss);
  EXPECT_NEAR(tight.fault_coverage_loss, 0.0, 1e-9);
  EXPECT_GT(tight.yield_loss, at_tol.yield_loss);
}

TEST(EvaluateTest, TwoSidedSpecSymmetricCase) {
  const Normal param{0.0, 1.0};
  const auto spec = SpecLimits::window(-3.0, 3.0);
  const auto out = evaluate_test(param, spec, spec, ErrorModel::none());
  EXPECT_NEAR(out.yield, 0.9973, 1e-4);
  EXPECT_NEAR(out.defect_rate, 0.0027, 1e-4);
}

TEST(EvaluateTest, GaussianErrorModel) {
  const Normal param{10.0, 1.0};
  const auto spec = SpecLimits::at_least(8.0);
  const auto out = evaluate_test(param, spec, spec, ErrorModel::gaussian(0.3));
  EXPECT_GT(out.yield_loss, 0.0);
  EXPECT_GT(out.fault_coverage_loss, 0.0);
  EXPECT_LT(out.yield_loss, 0.05);
}

TEST(EvaluateTest, AgreesWithMonteCarlo) {
  const Normal param{10.0, 1.0};
  const auto spec = SpecLimits::at_least(8.5);
  const auto model = ErrorModel::uniform(0.4);
  const auto analytic = evaluate_test(param, spec, spec, model);
  Rng rng(99);
  const auto mc = evaluate_test_mc(param, spec, spec, model, rng, 400000);
  EXPECT_NEAR(mc.yield, analytic.yield, 0.003);
  EXPECT_NEAR(mc.yield_loss, analytic.yield_loss, 0.003);
  EXPECT_NEAR(mc.fault_coverage_loss, analytic.fault_coverage_loss, 0.02);
  EXPECT_NEAR(mc.accept_rate, analytic.accept_rate, 0.003);
}

TEST(EvaluateTest, GuardBandedThresholdAgreesWithMonteCarlo) {
  // Guard-banded thresholds (tightened/loosened, strictly between or outside
  // the spec bounds) with a zero or sharp error: the acceptance probability
  // is (nearly) a step at the threshold, so an analytic evaluation that puts
  // the step in the wrong place moves mass across it and leaves the
  // Monte-Carlo band.
  const Normal param{10.0, 1.0};
  const auto spec = SpecLimits::at_least(8.5);
  for (const double delta : {0.3, -0.3}) {
    const auto threshold =
        delta >= 0.0 ? spec.tightened(delta) : spec.loosened(-delta);
    for (const auto& model :
         {ErrorModel::none(), ErrorModel::uniform(0.03)}) {
      const auto analytic = evaluate_test(param, spec, threshold, model);
      Rng rng(2026);
      const auto mc = evaluate_test_mc(param, spec, threshold, model, rng, 800000);
      EXPECT_NEAR(mc.yield, analytic.yield, 3e-3);
      EXPECT_NEAR(mc.accept_rate, analytic.accept_rate, 3e-3);
      EXPECT_NEAR(mc.yield_loss, analytic.yield_loss, 3e-3);
      EXPECT_NEAR(mc.fault_coverage_loss, analytic.fault_coverage_loss, 8e-3);
    }
  }
}

TEST(EvaluateTest, GuardBandedTwoSidedThresholdAgreesWithMonteCarlo) {
  // Same check on a two-sided window, where both threshold bounds sit
  // strictly inside the spec window.
  const Normal param{0.0, 1.0};
  const auto spec = SpecLimits::window(-1.5, 1.5);
  const auto threshold = spec.tightened(0.35);
  const auto analytic = evaluate_test(param, spec, threshold, ErrorModel::none());
  Rng rng(4242);
  const auto mc =
      evaluate_test_mc(param, spec, threshold, ErrorModel::none(), rng, 800000);
  EXPECT_NEAR(mc.accept_rate, analytic.accept_rate, 3e-3);
  EXPECT_NEAR(mc.yield_loss, analytic.yield_loss, 4e-3);
  EXPECT_NEAR(mc.fault_coverage_loss, analytic.fault_coverage_loss, 8e-3);
}

TEST(EvaluateTest, ExactLossesFarInTheTail) {
  // A spec k sigma below the mean, no error, threshold loosened by 0.5
  // sigma: the faulty parts in (-k - 0.5, -k) sigma pass, so
  // FCL = (Phi(-k) - Phi(-k - 0.5)) / Phi(-k) and the defect rate is
  // Phi(-k). k = 7.5 and 9 put the faulty tail partly and wholly beyond
  // 8 sigma, where an integration window truncated there has no mass.
  auto phi_lower = [](double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); };
  const Normal param{10.0, 1.0};
  for (const double k : {6.0, 7.5, 9.0}) {
    const auto spec = SpecLimits::at_least(param.mean - k * param.sigma);
    const auto out =
        evaluate_test(param, spec, spec.loosened(0.5 * param.sigma), ErrorModel::none());
    const double fcl = (phi_lower(-k) - phi_lower(-k - 0.5)) / phi_lower(-k);
    EXPECT_NEAR(out.fault_coverage_loss, fcl, 1e-9 * fcl) << "k = " << k;
    EXPECT_NEAR(out.defect_rate, phi_lower(-k), 1e-9 * phi_lower(-k)) << "k = " << k;
    EXPECT_EQ(out.yield_loss, 0.0) << "k = " << k;
  }
}

TEST(EvaluateTest, GaussianErrorMatchesOrthantProbability) {
  // Spec and threshold both at the mean: a good part is rejected when
  // X > mean and X + E < mean. (X, X + E) is bivariate normal with
  // rho = sigma / sqrt(sigma^2 + s^2), so that orthant holds
  // 1/4 - asin(rho) / (2 pi) of the mass and YL = 1/2 - asin(rho) / pi;
  // FCL is the same by symmetry.
  const Normal param{3.0, 2.0};
  const auto spec = SpecLimits::at_least(param.mean);
  for (const double s : {0.1, 0.5, 1.0, 2.0, 8.0}) {
    const double rho = param.sigma / std::hypot(param.sigma, s);
    const double expected = 0.5 - std::asin(rho) / 3.14159265358979323846;
    const auto out = evaluate_test(param, spec, spec, ErrorModel::gaussian(s));
    EXPECT_NEAR(out.yield_loss, expected, 1e-13) << "s = " << s;
    EXPECT_NEAR(out.fault_coverage_loss, expected, 1e-13) << "s = " << s;
    EXPECT_NEAR(out.accept_rate, 0.5, 1e-15) << "s = " << s;
  }
}

TEST(EvaluateTest, UniformErrorMatchesHandIntegral) {
  // Lower-bound spec and threshold at 0, X ~ N(0, 1), E uniform on [-h, h]:
  // a good part x in (0, h) is rejected with probability (h - x) / (2h), so
  // the good-and-rejected mass is
  //   integral_0^h (h - x) / (2h) phi(x) dx
  //     = (h (Phi(h) - 1/2) - (phi(0) - phi(h))) / (2h)
  // and YL divides it by the yield 1/2; FCL equals YL by symmetry.
  const Normal param{0.0, 1.0};
  const auto spec = SpecLimits::at_least(0.0);
  for (const double h : {0.01, 0.3, 1.0, 4.0}) {
    const double mass =
        (h * (normal_cdf(h) - 0.5) - (normal_pdf(0.0) - normal_pdf(h))) / (2.0 * h);
    const auto out = evaluate_test(param, spec, spec, ErrorModel::uniform(h));
    EXPECT_NEAR(out.yield_loss, 2.0 * mass, 1e-14) << "h = " << h;
    EXPECT_NEAR(out.fault_coverage_loss, 2.0 * mass, 1e-14) << "h = " << h;
  }
}

TEST(EvaluateTest, UpperBoundSpecWorks) {
  // e.g. noise figure must be at most 8 dB.
  const Normal param{7.0, 0.5};
  const auto spec = SpecLimits::at_most(8.0);
  const auto out = evaluate_test(param, spec, spec, ErrorModel::uniform(0.25));
  EXPECT_GT(out.yield, 0.95);
  EXPECT_GT(out.yield_loss, 0.0);
  EXPECT_GT(out.fault_coverage_loss, 0.0);
}

TEST(EvaluateTest, RejectsBadArguments) {
  const Normal param{0.0, 0.0};
  const auto spec = SpecLimits::at_least(0.0);
  EXPECT_THROW(evaluate_test(param, spec, spec, ErrorModel::none()),
               std::invalid_argument);
  const Normal ok{0.0, 1.0};
  EXPECT_THROW(ErrorModel::uniform(-1.0), std::invalid_argument);
  EXPECT_THROW(ErrorModel::gaussian(-1.0), std::invalid_argument);
  Rng rng(1);
  EXPECT_THROW(evaluate_test_mc(ok, spec, spec, ErrorModel::none(), rng, 10),
               std::invalid_argument);
}

TEST(EvaluateTest, RejectsNonFiniteInputs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Normal ok{0.0, 1.0};
  const auto spec = SpecLimits::at_least(0.0);
  const auto none = ErrorModel::none();
  Rng rng(1);

  EXPECT_THROW(ErrorModel::uniform(nan), std::invalid_argument);
  EXPECT_THROW(ErrorModel::uniform(inf), std::invalid_argument);
  EXPECT_THROW(ErrorModel::gaussian(nan), std::invalid_argument);
  EXPECT_THROW(ErrorModel::gaussian(inf), std::invalid_argument);

  // Parameter, error magnitude (an aggregate bypasses the factories) and
  // limits, through both evaluators.
  const ErrorModel inf_error{ErrorModel::Kind::kUniform, inf};
  const SpecLimits nan_lower = SpecLimits::at_least(nan);
  const SpecLimits nan_window{SpecSide::kTwoSided, -1.0, nan};
  for (const Normal& param : {Normal{nan, 1.0}, Normal{inf, 1.0}, Normal{0.0, nan},
                              Normal{0.0, inf}}) {
    EXPECT_THROW(evaluate_test(param, spec, spec, none), std::invalid_argument);
    EXPECT_THROW(evaluate_test_mc(param, spec, spec, none, rng, 1000), std::invalid_argument);
  }
  EXPECT_THROW(evaluate_test(ok, spec, spec, inf_error), std::invalid_argument);
  EXPECT_THROW(evaluate_test_mc(ok, spec, spec, inf_error, rng, 1000), std::invalid_argument);
  for (const SpecLimits& bad : {nan_lower, nan_window, SpecLimits::at_most(nan)}) {
    EXPECT_THROW(evaluate_test(ok, bad, spec, none), std::invalid_argument);
    EXPECT_THROW(evaluate_test(ok, spec, bad, none), std::invalid_argument);
    EXPECT_THROW(evaluate_test_mc(ok, bad, spec, none, rng, 1000), std::invalid_argument);
    EXPECT_THROW(evaluate_test_mc(ok, spec, bad, none, rng, 1000), std::invalid_argument);
  }

  // +/-inf on the open side of a one-sided region stays legal, as does an
  // infinite limit that accepts everything or nothing.
  const auto all = evaluate_test(ok, SpecLimits::at_least(-inf), spec, none);
  EXPECT_EQ(all.yield, 1.0);
  EXPECT_EQ(all.defect_rate, 0.0);
  EXPECT_EQ(all.fault_coverage_loss, 0.0);
  const auto nothing = evaluate_test(ok, spec, SpecLimits::at_most(-inf), none);
  EXPECT_EQ(nothing.accept_rate, 0.0);
  EXPECT_EQ(nothing.yield_loss, 1.0);
  EXPECT_NO_THROW(evaluate_test_mc(ok, SpecLimits{SpecSide::kLowerBound, 0.0, nan}, spec,
                                   none, rng, 1000));
}

}  // namespace
}  // namespace msts::stats
