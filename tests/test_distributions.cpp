// Tests for probability distributions (stats/distributions.h).
#include "stats/distributions.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include <gtest/gtest.h>

namespace msts::stats {
namespace {

TEST(NormalCdf, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-9);
  EXPECT_NEAR(normal_cdf(-1.0), 1.0 - 0.8413447460685429, 1e-9);
  EXPECT_NEAR(normal_cdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(normal_cdf(3.0), 0.9986501019683699, 1e-9);
}

TEST(NormalPdf, KnownValues) {
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804014327, 1e-12);
  EXPECT_NEAR(normal_pdf(1.0), 0.24197072451914337, 1e-12);
  EXPECT_NEAR(normal_pdf(-1.0), normal_pdf(1.0), 1e-15);
}

class QuantileRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(QuantileRoundTrip, InvertsTheCdf) {
  const double p = GetParam();
  EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, QuantileRoundTrip,
                         ::testing::Values(1e-9, 1e-6, 0.001, 0.01, 0.1, 0.25, 0.5,
                                           0.75, 0.9, 0.99, 0.999, 1.0 - 1e-6));

TEST(NormalQuantile, RejectsOutOfRange) {
  EXPECT_THROW(normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW(normal_quantile(1.0), std::invalid_argument);
  EXPECT_THROW(normal_quantile(-0.5), std::invalid_argument);
}

TEST(NormalInterval, TailSideKeepsRelativePrecision) {
  const double inf = std::numeric_limits<double>::infinity();
  const double phi9 = normal_cdf(-9.0);  // ~1.1e-19
  EXPECT_EQ(normal_interval(-inf, -9.0), phi9);
  EXPECT_EQ(normal_interval(9.0, inf), phi9);
  EXPECT_NEAR(normal_interval(-9.5, -9.0), phi9 - normal_cdf(-9.5), 1e-15 * phi9);
  EXPECT_NEAR(normal_interval(-inf, 0.0), 0.5, 1e-16);
  EXPECT_NEAR(normal_interval(-1.0, 1.0), 0.6826894921370859, 1e-15);
  // A narrow interval straddling zero: both erf halves add, no cancellation.
  EXPECT_NEAR(normal_interval(-1e-10, 1e-10), 2e-10 * normal_pdf(0.0), 1e-24);
  EXPECT_EQ(normal_interval(-inf, inf), 1.0);
  EXPECT_EQ(normal_interval(1.0, 1.0), 0.0);
  EXPECT_EQ(normal_interval(2.0, 1.0), 0.0);
}

// P(Z1 > h, Z2 > k) = integral_h^inf phi(x) Phi((rho x - k) / sqrt(1 - rho^2)),
// by composite Simpson over [h, 12] (the tail beyond is below 1e-32).
double upper_orthant_by_quadrature(double h, double k, double rho) {
  const double lo = std::max(h, -12.0);
  const double hi = 12.0;
  const int n = 400000;
  const double dx = (hi - lo) / n;
  const double sr = std::sqrt((1.0 - rho) * (1.0 + rho));
  double acc = 0.0;
  for (int i = 0; i <= n; ++i) {
    const double x = lo + dx * i;
    const double w = (i == 0 || i == n) ? 1.0 : (i % 2 == 1 ? 4.0 : 2.0);
    acc += w * normal_pdf(x) * normal_cdf((rho * x - k) / sr);
  }
  return acc * dx / 3.0;
}

TEST(BivariateNormal, MatchesOneDimensionalQuadratureInEveryBranch) {
  // |rho| below 0.3, 0.75 and 0.925 (6/12/20 Gauss-Legendre nodes) and the
  // expansion around |rho| = 1 above that, on both signs.
  for (const double rho : {-0.999, -0.95, -0.8, -0.5, -0.1, 0.1, 0.5, 0.8, 0.95, 0.9995}) {
    for (const double h : {-2.0, -0.3, 0.0, 1.1, 2.5}) {
      for (const double k : {-1.5, 0.0, 0.7, 3.0}) {
        EXPECT_NEAR(bivariate_normal_upper(h, k, rho), upper_orthant_by_quadrature(h, k, rho),
                    1e-12)
            << "h = " << h << ", k = " << k << ", rho = " << rho;
      }
    }
  }
}

TEST(BivariateNormal, ClosedFormIdentities) {
  const double inf = std::numeric_limits<double>::infinity();
  const double pi = 3.14159265358979323846;
  for (const double rho : {-1.0, -0.99, -0.6, -0.2, 0.0, 0.2, 0.6, 0.99, 1.0}) {
    // Orthant at the origin.
    EXPECT_NEAR(bivariate_normal_upper(0.0, 0.0, rho), 0.25 + std::asin(rho) / (2.0 * pi),
                1e-15)
        << "rho = " << rho;
    for (const double h : {-2.0, 0.4, 3.0}) {
      for (const double k : {-1.0, 0.0, 2.2}) {
        // Symmetric in (h, k), and the two halves of a strip add up to the
        // marginal: P(Z1 > h, Z2 > k) + P(Z1 > h, Z2 < k) = Phi(-h).
        const double u = bivariate_normal_upper(h, k, rho);
        EXPECT_NEAR(u, bivariate_normal_upper(k, h, rho), 1e-15);
        EXPECT_NEAR(u + bivariate_normal_upper(h, -k, -rho), normal_cdf(-h), 2e-15)
            << "h = " << h << ", k = " << k << ", rho = " << rho;
        // Infinite limits reduce to the marginals.
        EXPECT_EQ(bivariate_normal_upper(h, -inf, rho), normal_cdf(-h));
        EXPECT_EQ(bivariate_normal_upper(-inf, k, rho), normal_cdf(-k));
        EXPECT_EQ(bivariate_normal_upper(h, inf, rho), 0.0);
      }
    }
  }
  // Independence and perfect (anti)correlation.
  EXPECT_EQ(bivariate_normal_upper(0.5, -1.0, 0.0), normal_cdf(-0.5) * normal_cdf(1.0));
  EXPECT_NEAR(bivariate_normal_upper(0.5, -1.0, 1.0), normal_cdf(-0.5), 1e-16);
  EXPECT_NEAR(bivariate_normal_upper(-0.5, -1.0, -1.0), normal_interval(-0.5, 1.0), 1e-16);
  EXPECT_EQ(bivariate_normal_upper(0.5, 1.0, -1.0), 0.0);
}

TEST(BivariateNormal, RectanglesPartitionTheirStrips) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double rho : {-0.97, -0.4, 0.3, 0.9, 0.999}) {
    for (const auto& [a, b] : {std::pair{-inf, -1.0}, std::pair{-0.5, 2.0},
                               std::pair{1.5, inf}, std::pair{-inf, inf}}) {
      const double strip = bivariate_normal_rect(a, b, -inf, -0.7, rho) +
                           bivariate_normal_rect(a, b, -0.7, 0.9, rho) +
                           bivariate_normal_rect(a, b, 0.9, inf, rho);
      EXPECT_NEAR(strip, normal_interval(a, b), 3e-15) << "rho = " << rho;
    }
  }
  EXPECT_EQ(bivariate_normal_rect(1.0, 1.0, -inf, inf, 0.5), 0.0);
  EXPECT_EQ(bivariate_normal_rect(-inf, inf, 2.0, 1.0, 0.5), 0.0);
  // A lower-tail square keeps its relative precision: reflected, it is an
  // upper orthant, not 1 minus three near-one terms.
  const double tail = bivariate_normal_rect(-inf, -8.0, -inf, -8.0, 0.5);
  EXPECT_GT(tail, 0.0);
  EXPECT_NEAR(tail, bivariate_normal_upper(8.0, 8.0, 0.5), 1e-12 * tail);
}

TEST(Normal, ScalesAndShifts) {
  const Normal n{10.0, 2.0};
  EXPECT_NEAR(n.cdf(10.0), 0.5, 1e-12);
  EXPECT_NEAR(n.cdf(12.0), normal_cdf(1.0), 1e-12);
  EXPECT_NEAR(n.quantile(0.5), 10.0, 1e-9);
  EXPECT_NEAR(n.pdf(10.0), normal_pdf(0.0) / 2.0, 1e-12);
}

TEST(Normal, PdfIntegratesToOne) {
  const Normal n{-3.0, 0.7};
  double acc = 0.0;
  const int steps = 20000;
  const double lo = n.mean - 10.0 * n.sigma;
  const double hi = n.mean + 10.0 * n.sigma;
  const double dx = (hi - lo) / steps;
  for (int i = 0; i <= steps; ++i) {
    const double w = (i == 0 || i == steps) ? 0.5 : 1.0;
    acc += w * n.pdf(lo + dx * i) * dx;
  }
  EXPECT_NEAR(acc, 1.0, 1e-8);
}

TEST(Normal, FromToleranceUsesThreeSigma) {
  const Normal n = Normal::from_tolerance(5.0, 1.5);
  EXPECT_DOUBLE_EQ(n.mean, 5.0);
  EXPECT_DOUBLE_EQ(n.sigma, 0.5);
  // Fraction inside the tolerance band is the 3-sigma probability.
  EXPECT_NEAR(n.cdf(6.5) - n.cdf(3.5), 0.9973, 1e-4);
}

TEST(Normal, FromToleranceRejectsBadArguments) {
  EXPECT_THROW(Normal::from_tolerance(0.0, -1.0), std::invalid_argument);
  EXPECT_THROW(Normal::from_tolerance(0.0, 1.0, 0.0), std::invalid_argument);
}

TEST(UniformDist, PdfCdfQuantile) {
  const Uniform u{2.0, 6.0};
  EXPECT_DOUBLE_EQ(u.pdf(4.0), 0.25);
  EXPECT_DOUBLE_EQ(u.pdf(1.0), 0.0);
  EXPECT_DOUBLE_EQ(u.cdf(2.0), 0.0);
  EXPECT_DOUBLE_EQ(u.cdf(4.0), 0.5);
  EXPECT_DOUBLE_EQ(u.cdf(7.0), 1.0);
  EXPECT_DOUBLE_EQ(u.quantile(0.25), 3.0);
  EXPECT_THROW(u.quantile(1.5), std::invalid_argument);
}

}  // namespace
}  // namespace msts::stats
