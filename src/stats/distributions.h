// Probability distributions for parameter tolerance analysis.
//
// The paper models defect-free parameter spread with distributions "obtained
// through Monte-Carlo simulations during the design process or predicted from
// past distributions" (sec. 4.2). We provide Gaussian and uniform forms with
// exact pdf/cdf/quantile, plus tail-accurate normal interval and
// bivariate-normal rectangle probabilities, so fault-coverage-loss and
// yield-loss can be computed in closed form as well as by simulation.
#pragma once

namespace msts::stats {

/// Standard normal cumulative distribution function.
double normal_cdf(double z);

/// Standard normal probability density function.
double normal_pdf(double z);

/// P(a < Z < b) for a standard normal Z, 0 when b <= a; a = -inf and
/// b = +inf are allowed. Evaluated on the tail side: an interval above zero
/// differences erfc of its upper-tail limits, one below zero those of its
/// lower-tail limits, and one straddling zero sums two erf halves, so a
/// tail interval such as (-inf, -9) keeps full relative precision instead
/// of becoming 1 - (nearly 1).
double normal_interval(double a, double b);

/// P(Z1 > h, Z2 > k) for standard normals with correlation rho in [-1, 1];
/// h and k may be infinite. Genz's (2004) Gauss-Legendre form of the
/// Drezner-Wesolowsky integral: 6, 12 or 20 nodes as |rho| passes 0.3 and
/// 0.75, and from |rho| = 0.925 up an expansion about |rho| = 1 whose
/// remainder takes the 20 nodes; about 1e-15 absolute accuracy.
double bivariate_normal_upper(double h, double k, double rho);

/// P(a < Z1 < b, c < Z2 < d) for standard normals with correlation rho.
/// Each axis is reflected so its interval leans to the upper side before
/// the four upper-quadrant terms are combined, so a rectangle in a lower
/// tail is never the difference of near-one probabilities. 0 for an empty
/// rectangle.
double bivariate_normal_rect(double a, double b, double c, double d, double rho);

/// Inverse standard normal CDF (Acklam's rational approximation, refined by
/// one Halley step; |error| < 1e-12 over (0,1)).
double normal_quantile(double p);

/// Gaussian distribution N(mean, sigma^2).
struct Normal {
  double mean = 0.0;
  double sigma = 1.0;

  double pdf(double x) const;
  double cdf(double x) const;
  double quantile(double p) const;

  /// Distribution whose +/-3 sigma band equals the given tolerance interval —
  /// the convention we use to turn a datasheet tolerance into a spread.
  static Normal from_tolerance(double nominal, double tol_half_width,
                               double sigmas = 3.0);
};

/// Uniform distribution on [lo, hi].
struct Uniform {
  double lo = 0.0;
  double hi = 1.0;

  double pdf(double x) const;
  double cdf(double x) const;
  double quantile(double p) const;
};

}  // namespace msts::stats
