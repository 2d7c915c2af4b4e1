#include "stats/distributions.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>

#include "base/require.h"
#include "base/units.h"

namespace msts::stats {

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double normal_pdf(double z) {
  return std::exp(-0.5 * z * z) / std::sqrt(kTwoPi);
}

double normal_interval(double a, double b) {
  if (!(a < b)) return 0.0;
  const double r = std::sqrt(2.0);
  if (a >= 0.0) return 0.5 * (std::erfc(a / r) - std::erfc(b / r));
  if (b <= 0.0) return 0.5 * (std::erfc(-b / r) - std::erfc(-a / r));
  return 0.5 * (std::erf(b / r) - std::erf(a / r));
}

namespace {

// Positive halves of the 6-, 12- and 20-point Gauss-Legendre rules on
// [-1, 1] (each half's weights sum to 1).
struct GaussLegendre {
  int n;
  double x[10];
  double w[10];
};

constexpr GaussLegendre kGl6{
    3,
    {0.9324695142031522, 0.6612093864662647, 0.2386191860831970},
    {0.1713244923791705, 0.3607615730481384, 0.4679139345726904}};
constexpr GaussLegendre kGl12{
    6,
    {0.9815606342467191, 0.9041172563704750, 0.7699026741943050, 0.5873179542866171,
     0.3678314989981802, 0.1252334085114692},
    {0.04717533638651177, 0.1069393259953183, 0.1600783285433464, 0.2031674267230659,
     0.2334925365383547, 0.2491470458134029}};
constexpr GaussLegendre kGl20{
    10,
    {0.9931285991850949, 0.9639719272779138, 0.9122344282513259, 0.8391169718222188,
     0.7463319064601508, 0.6360536807265150, 0.5108670019508271, 0.3737060887154196,
     0.2277858511416451, 0.07652652113349733},
    {0.01761400713915212, 0.04060142980038694, 0.06267204833410906, 0.08327674157670475,
     0.1019301198172404, 0.1181945319615184, 0.1316886384491766, 0.1420961093183821,
     0.1491729864726037, 0.1527533871307259}};

}  // namespace

double bivariate_normal_upper(double h, double k, double rho) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (h == kInf || k == kInf) return 0.0;
  if (h == -kInf) return k == -kInf ? 1.0 : normal_cdf(-k);
  if (k == -kInf) return normal_cdf(-h);
  if (rho == 0.0) return normal_cdf(-h) * normal_cdf(-k);

  const double ar = std::abs(rho);
  const GaussLegendre& gl = ar < 0.3 ? kGl6 : (ar < 0.75 ? kGl12 : kGl20);
  double hk = h * k;
  double bvn = 0.0;
  if (ar < 0.925) {
    // Phi(-h) Phi(-k) + (1/2pi) * integral over theta in [0, asin rho] of
    // exp(-(h^2 + k^2 - 2hk sin theta) / (2 cos^2 theta)).
    const double hs = 0.5 * (h * h + k * k);
    const double half = 0.5 * std::asin(rho);
    for (int i = 0; i < gl.n; ++i) {
      for (const double t : {1.0 - gl.x[i], 1.0 + gl.x[i]}) {
        const double sn = std::sin(half * t);
        bvn += gl.w[i] * std::exp((sn * hk - hs) / (1.0 - sn * sn));
      }
    }
    bvn = bvn * half / kTwoPi + normal_cdf(-h) * normal_cdf(-k);
  } else {
    // Near |rho| = 1: the integrand is expanded about its singular part,
    // whose integral is closed form, and Gauss-Legendre takes the rest.
    // Genz drops terms below exp(-100); cutting at exp(-700) instead, still
    // clear of underflow, keeps deep-tail rectangles relatively precise.
    if (rho < 0.0) {
      k = -k;
      hk = -hk;
    }
    if (ar < 1.0) {
      const double as = (1.0 - ar) * (1.0 + ar);
      double a = std::sqrt(as);
      const double bs = (h - k) * (h - k);
      const double c = (4.0 - hk) / 8.0;
      const double d = (12.0 - hk) / 80.0;
      const double asr = -0.5 * (bs / as + hk);
      if (asr > -700.0) {
        bvn = a * std::exp(asr) * (1.0 - c * (bs - as) * (1.0 - d * bs) / 3.0 + c * d * as * as);
      }
      if (hk > -100.0) {
        const double b = std::sqrt(bs);
        const double sp = std::sqrt(kTwoPi) * normal_cdf(-b / a);
        bvn -= std::exp(-0.5 * hk) * sp * b * (1.0 - c * bs * (1.0 - d * bs) / 3.0);
      }
      a *= 0.5;
      double sum = 0.0;
      for (int i = 0; i < gl.n; ++i) {
        for (const double t : {1.0 - gl.x[i], 1.0 + gl.x[i]}) {
          const double xs = (a * t) * (a * t);
          const double e = -0.5 * (bs / xs + hk);
          if (e <= -700.0) continue;
          const double rs = std::sqrt(1.0 - xs);
          const double sp = 1.0 + c * xs * (1.0 + 5.0 * d * xs);
          const double ep = std::exp(-0.5 * hk * xs / ((1.0 + rs) * (1.0 + rs))) / rs;
          sum += gl.w[i] * std::exp(e) * (sp - ep);
        }
      }
      bvn = (a * sum - bvn) / kTwoPi;
    }
    if (rho > 0.0) {
      bvn += normal_cdf(-std::max(h, k));
    } else if (h >= k) {
      bvn = -bvn;
    } else {
      // P(h < Z1 < k) on its tail side, less the correction.
      bvn = normal_interval(h, k) - bvn;
    }
  }
  return std::clamp(bvn, 0.0, 1.0);
}

double bivariate_normal_rect(double a, double b, double c, double d, double rho) {
  if (!(a < b) || !(c < d)) return 0.0;
  // Reflect an interval whose centre lies below zero (Z -> -Z flips its
  // limits and the sign of rho): afterwards every term below is an
  // upper-quadrant probability no larger than the rectangle's own tail.
  auto lean_up = [&rho](double& lo, double& hi) {
    if (lo + hi < 0.0) {
      const double old_lo = lo;
      lo = -hi;
      hi = -old_lo;
      rho = -rho;
    }
  };
  lean_up(a, b);
  lean_up(c, d);
  const double p = (bivariate_normal_upper(a, c, rho) - bivariate_normal_upper(b, c, rho)) -
                   (bivariate_normal_upper(a, d, rho) - bivariate_normal_upper(b, d, rho));
  return std::max(0.0, p);
}

double normal_quantile(double p) {
  MSTS_REQUIRE(p > 0.0 && p < 1.0, "quantile argument must be in (0, 1)");

  // Acklam's approximation.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  double x;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - plow) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One step of Halley's method against the exact CDF.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(kTwoPi) * std::exp(0.5 * x * x);
  x = x - u / (1.0 + 0.5 * x * u);
  return x;
}

double Normal::pdf(double x) const { return normal_pdf((x - mean) / sigma) / sigma; }
double Normal::cdf(double x) const { return normal_cdf((x - mean) / sigma); }
double Normal::quantile(double p) const { return mean + sigma * normal_quantile(p); }

Normal Normal::from_tolerance(double nominal, double tol_half_width, double sigmas) {
  MSTS_REQUIRE(tol_half_width >= 0.0, "tolerance must be non-negative");
  MSTS_REQUIRE(sigmas > 0.0, "sigma multiple must be positive");
  return Normal{nominal, tol_half_width / sigmas};
}

double Uniform::pdf(double x) const {
  return (x >= lo && x <= hi && hi > lo) ? 1.0 / (hi - lo) : 0.0;
}
double Uniform::cdf(double x) const {
  if (x <= lo) return 0.0;
  if (x >= hi) return 1.0;
  return (x - lo) / (hi - lo);
}
double Uniform::quantile(double p) const {
  MSTS_REQUIRE(p >= 0.0 && p <= 1.0, "quantile argument must be in [0, 1]");
  return lo + p * (hi - lo);
}

}  // namespace msts::stats
