#include "stats/yield.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <utility>
#include <vector>

#include "base/require.h"
#include "obs/registry.h"
#include "obs/scoped_timer.h"
#include "obs/trace.h"
#include "stats/parallel.h"

namespace msts::stats {

bool SpecLimits::passes(double x) const {
  switch (side) {
    case SpecSide::kLowerBound: return x >= lo;
    case SpecSide::kUpperBound: return x <= hi;
    case SpecSide::kTwoSided: return x >= lo && x <= hi;
  }
  return false;
}

SpecLimits SpecLimits::at_least(double lo) {
  return SpecLimits{SpecSide::kLowerBound, lo, std::numeric_limits<double>::infinity()};
}

SpecLimits SpecLimits::at_most(double hi) {
  return SpecLimits{SpecSide::kUpperBound, -std::numeric_limits<double>::infinity(), hi};
}

SpecLimits SpecLimits::window(double lo, double hi) {
  MSTS_REQUIRE(lo <= hi, "window limits out of order");
  return SpecLimits{SpecSide::kTwoSided, lo, hi};
}

SpecLimits SpecLimits::loosened(double delta) const {
  SpecLimits out = *this;
  switch (side) {
    case SpecSide::kLowerBound: out.lo -= delta; break;
    case SpecSide::kUpperBound: out.hi += delta; break;
    case SpecSide::kTwoSided:
      out.lo -= delta;
      out.hi += delta;
      break;
  }
  if (side == SpecSide::kTwoSided && out.lo > out.hi) {
    // Over-tightening crossed the window. An inverted (lo > hi) region would
    // still reject everything through passes(), but its limits no longer mean
    // anything; collapse to the zero-width window at the crossing point so
    // the result is a well-formed "accepts (almost) nothing" region and
    // further loosening recovers a sensible window.
    const double mid = 0.5 * (out.lo + out.hi);
    out.lo = mid;
    out.hi = mid;
  }
  return out;
}

SpecLimits SpecLimits::tightened(double delta) const { return loosened(-delta); }

ErrorModel ErrorModel::none() { return ErrorModel{Kind::kNone, 0.0}; }

ErrorModel ErrorModel::uniform(double half_width) {
  MSTS_REQUIRE(std::isfinite(half_width) && half_width >= 0.0,
               "error half-width must be finite and non-negative");
  return ErrorModel{Kind::kUniform, half_width};
}

ErrorModel ErrorModel::gaussian(double sigma) {
  MSTS_REQUIRE(std::isfinite(sigma) && sigma >= 0.0,
               "error sigma must be finite and non-negative");
  return ErrorModel{Kind::kGaussian, sigma};
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A region [lo, hi] of the real line; an open side is -inf / +inf.
struct Interval {
  double lo;
  double hi;
};

Interval interval_of(const SpecLimits& s) {
  Interval r{-kInf, kInf};
  if (s.side != SpecSide::kUpperBound) r.lo = s.lo;
  if (s.side != SpecSide::kLowerBound) r.hi = s.hi;
  // An inverted window accepts nothing (see SpecLimits::passes). The empty
  // region {+inf} keeps its complement a single interval.
  if (!(r.lo <= r.hi)) r = {kInf, kInf};
  return r;
}

bool has_nan_limit(const SpecLimits& s) {
  return (s.side != SpecSide::kUpperBound && std::isnan(s.lo)) ||
         (s.side != SpecSide::kLowerBound && std::isnan(s.hi));
}

void require_valid_inputs(const Normal& param, const SpecLimits& spec,
                          const SpecLimits& threshold, const ErrorModel& error) {
  MSTS_REQUIRE(std::isfinite(param.mean), "parameter mean must be finite");
  MSTS_REQUIRE(std::isfinite(param.sigma) && param.sigma > 0.0,
               "parameter spread must be positive and finite");
  MSTS_REQUIRE(std::isfinite(error.magnitude) && error.magnitude >= 0.0,
               "error magnitude must be finite and non-negative");
  MSTS_REQUIRE(!has_nan_limit(spec), "spec limits must not be NaN");
  MSTS_REQUIRE(!has_nan_limit(threshold), "threshold limits must not be NaN");
}

// The probability masses behind a TestOutcome, each summed over its own
// region.
struct Masses {
  double good = 0.0;
  double faulty = 0.0;
  double accept = 0.0;
  double good_reject = 0.0;
  double faulty_accept = 0.0;
};

TestOutcome outcome_of(const Masses& m) {
  TestOutcome out;
  out.yield = m.good;
  out.defect_rate = m.faulty;
  out.accept_rate = m.accept;
  out.yield_loss = m.good > 0.0 ? std::min(1.0, m.good_reject / m.good) : 0.0;
  out.fault_coverage_loss = m.faulty > 0.0 ? std::min(1.0, m.faulty_accept / m.faulty) : 0.0;
  return out;
}

// Integral over z in [za, zb] of p(z) phi(z), with p linear from pa at za to
// pb at zb and `mass` = P(za < Z < zb). The first moment is taken about za,
// so a ramp far from the mean keeps its relative precision.
double linear_mass(double za, double zb, double pa, double pb, double mass) {
  if (pa == pb) return pa * mass;
  const double slope = (pb - pa) / (zb - za);
  return pa * mass + slope * (normal_pdf(za) - normal_pdf(zb) - za * mass);
}

// No error or uniform error of half-width h: P(accept | x) is piecewise
// linear (a step when h = 0) between the spec limits and each threshold
// limit +/- h, so every segment integrates in closed form.
Masses piecewise_linear_masses(const Normal& param, const Interval& g, const Interval& t,
                               double h) {
  // P(x + E in t) for finite x; E uniform on [-h, h], h > 0.
  auto accept_at = [&](double x) {
    auto below = [h](double d) {  // P(E <= d)
      return d <= -h ? 0.0 : (d >= h ? 1.0 : (d + h) / (2.0 * h));
    };
    return std::clamp(below(t.hi - x) - below(t.lo - x), 0.0, 1.0);
  };
  // Acceptance far below / above every breakpoint.
  const double accept_low = (t.lo == -kInf && t.hi > -kInf) ? 1.0 : 0.0;
  const double accept_high = (t.hi == kInf && t.lo < kInf) ? 1.0 : 0.0;

  std::array<double, 8> x{};
  std::size_t n = 0;
  x[n++] = -kInf;
  for (const double b : {g.lo, g.hi, t.lo - h, t.lo + h, t.hi - h, t.hi + h}) {
    if (std::isfinite(b)) x[n++] = b;
  }
  x[n++] = kInf;
  for (std::size_t i = 1; i < n; ++i) {  // insertion sort: at most 8 values
    for (std::size_t j = i; j > 0 && x[j] < x[j - 1]; --j) std::swap(x[j], x[j - 1]);
  }

  Masses m;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double xa = x[i];
    const double xb = x[i + 1];
    if (!(xa < xb)) continue;
    double pa = 0.0;
    double pb = 0.0;
    if (h == 0.0) {
      // A step: the threshold limits are breakpoints, so the segment lies
      // wholly inside or outside the threshold region.
      pa = pb = (t.lo <= xa && xb <= t.hi) ? 1.0 : 0.0;
    } else if (xa == -kInf) {
      pa = pb = accept_low;
    } else if (xb == kInf) {
      pa = pb = accept_high;
    } else {
      pa = accept_at(xa);
      pb = accept_at(xb);
    }
    const double za = (xa - param.mean) / param.sigma;
    const double zb = (xb - param.mean) / param.sigma;
    const double mass = normal_interval(za, zb);
    const double accepted = linear_mass(za, zb, pa, pb, mass);
    m.accept += accepted;
    if (g.lo <= xa && xb <= g.hi) {
      m.good += mass;
      m.good_reject += linear_mass(za, zb, 1.0 - pa, 1.0 - pb, mass);
    } else {
      m.faulty += mass;
      m.faulty_accept += accepted;
    }
  }
  return m;
}

// Gaussian error of sigma s > 0: Z1 = (X - mean) / sigma and
// Z2 = (X + E - mean) / tau, tau = sqrt(sigma^2 + s^2), are standard
// normals with correlation sigma / tau, so each joint mass is a rectangle.
Masses bivariate_masses(const Normal& param, const Interval& g, const Interval& t,
                        double s) {
  const double tau = std::hypot(param.sigma, s);
  const double rho = param.sigma / tau;
  auto z1 = [&](double x) { return (x - param.mean) / param.sigma; };
  auto z2 = [&](double x) { return (x - param.mean) / tau; };
  const double g0 = z1(g.lo);
  const double g1 = z1(g.hi);
  const double t0 = z2(t.lo);
  const double t1 = z2(t.hi);

  Masses m;
  m.good = normal_interval(g0, g1);
  m.faulty = normal_interval(-kInf, g0) + normal_interval(g1, kInf);
  m.accept = normal_interval(t0, t1);
  m.good_reject = bivariate_normal_rect(g0, g1, -kInf, t0, rho) +
                  bivariate_normal_rect(g0, g1, t1, kInf, rho);
  m.faulty_accept = bivariate_normal_rect(-kInf, g0, t0, t1, rho) +
                    bivariate_normal_rect(g1, kInf, t0, t1, rho);
  return m;
}

}  // namespace

TestOutcome evaluate_test(const Normal& param, const SpecLimits& spec,
                          const SpecLimits& threshold, const ErrorModel& error) {
  require_valid_inputs(param, spec, threshold, error);
  const Interval g = interval_of(spec);
  const Interval t = interval_of(threshold);
  if (error.kind == ErrorModel::Kind::kGaussian && error.magnitude > 0.0) {
    return outcome_of(bivariate_masses(param, g, t, error.magnitude));
  }
  const double h = error.kind == ErrorModel::Kind::kUniform ? error.magnitude : 0.0;
  return outcome_of(piecewise_linear_masses(param, g, t, h));
}

TestOutcome evaluate_test_mc(const Normal& param, const SpecLimits& spec,
                             const SpecLimits& threshold, const ErrorModel& error,
                             Rng& rng, int trials, int threads) {
  MSTS_REQUIRE(trials >= 1000, "too few Monte-Carlo trials");
  require_valid_inputs(param, spec, threshold, error);
  obs::ScopedTimer timer("stats.evaluate_test_mc");
  obs::counter_add("stats.evaluate_test_mc.trials", static_cast<std::uint64_t>(trials));

  // Block partition and per-block RNG streams depend only on `trials`, so
  // the counts below are the same for every thread count.
  constexpr int kBlock = 8192;
  const int nblocks = (trials + kBlock - 1) / kBlock;
  struct Counts {
    long good = 0;
    long accepted = 0;
    long good_rejected = 0;
    long faulty_accepted = 0;
  };
  std::vector<Counts> per_block(static_cast<std::size_t>(nblocks));
  const std::vector<Rng> streams = make_streams(rng.split(), static_cast<std::size_t>(nblocks));

  // Tracing observes each block (stream id, trial range, wall time) without
  // touching its RNG draws or the serial reduction below, so traced runs stay
  // bit-identical to untraced ones at every thread count.
  const bool traced = obs::trace_enabled();

  parallel_for_index(static_cast<std::size_t>(nblocks), threads, [&](std::size_t b) {
    const auto t0 = traced ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
    Rng block_rng = streams[b];
    Counts c;
    const int begin = static_cast<int>(b) * kBlock;
    const int end = std::min(trials, begin + kBlock);
    for (int t = begin; t < end; ++t) {
      const double x = block_rng.normal(param.mean, param.sigma);
      double e = 0.0;
      switch (error.kind) {
        case ErrorModel::Kind::kNone: break;
        case ErrorModel::Kind::kUniform:
          e = block_rng.uniform(-error.magnitude, error.magnitude);
          break;
        case ErrorModel::Kind::kGaussian:
          e = block_rng.normal(0.0, error.magnitude);
          break;
      }
      const bool is_good = spec.passes(x);
      const bool accepts = threshold.passes(x + e);
      c.good += is_good ? 1 : 0;
      c.accepted += accepts ? 1 : 0;
      if (is_good && !accepts) ++c.good_rejected;
      if (!is_good && accepts) ++c.faulty_accepted;
    }
    per_block[b] = c;
    if (traced) {
      const auto wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
      obs::trace_emit({obs::TraceKind::kMcBlock,
                       "stats.evaluate_test_mc",
                       b,
                       {{"stream", static_cast<std::int64_t>(b)},
                        {"trial_begin", static_cast<std::int64_t>(begin)},
                        {"trial_end", static_cast<std::int64_t>(end)},
                        {"wall_ns", static_cast<std::int64_t>(wall_ns)}}});
    }
  });

  long good = 0;
  long accepted = 0;
  long good_rejected = 0;
  long faulty_accepted = 0;
  for (const Counts& c : per_block) {
    good += c.good;
    accepted += c.accepted;
    good_rejected += c.good_rejected;
    faulty_accepted += c.faulty_accepted;
  }
  TestOutcome out;
  out.yield = static_cast<double>(good) / trials;
  out.defect_rate = 1.0 - out.yield;
  out.accept_rate = static_cast<double>(accepted) / trials;
  out.yield_loss = good > 0 ? static_cast<double>(good_rejected) / good : 0.0;
  const long faulty = trials - good;
  out.fault_coverage_loss = faulty > 0 ? static_cast<double>(faulty_accepted) / faulty : 0.0;
  return out;
}

}  // namespace msts::stats
