#include "analog/lpf.h"

#include <algorithm>
#include <cmath>
#include <complex>

#include "base/require.h"
#include "base/simd.h"
#include "base/units.h"
#include "dsp/metrics.h"
#include "dsp/oscillator.h"
#include "stats/monte_carlo.h"

namespace msts::analog {

simd::LpfCascade design_butterworth(double cutoff_hz, double passband_gain_db, int order,
                                    double fs) {
  MSTS_REQUIRE(order >= 2 && order % 2 == 0, "order must be even and >= 2");
  MSTS_REQUIRE(cutoff_hz > 0.0 && cutoff_hz < fs / 2.0, "cutoff must be in (0, fs/2)");
  simd::LpfCascade c;
  c.count = static_cast<std::size_t>(order / 2);
  MSTS_REQUIRE(c.count <= simd::LpfCascade::kMaxSections, "filter order too high");
  const double w0 = kTwoPi * cutoff_hz / fs;
  const double cw = std::cos(w0);
  const double sw = std::sin(w0);
  for (std::size_t k = 0; k < c.count; ++k) {
    // The RBJ low-pass section at section k's Butterworth Q.
    const double angle = kPi * (2.0 * static_cast<double>(k) + 1.0) / (2.0 * order);
    const double q = 1.0 / (2.0 * std::sin(angle));
    const double alpha = sw / (2.0 * q);
    const double a0 = 1.0 + alpha;
    simd::Biquad& bq = c.sections[k];
    bq.b0 = (1.0 - cw) / 2.0 / a0;
    bq.b1 = (1.0 - cw) / a0;
    bq.b2 = bq.b0;
    bq.a1 = -2.0 * cw / a0;
    bq.a2 = (1.0 - alpha) / a0;
  }
  c.gain = amplitude_ratio_from_db(passband_gain_db);
  return c;
}

LowPassFilter::LowPassFilter(double cutoff_hz, double passband_gain_db, int order,
                             double clock_hz, double clock_spur_v)
    : cutoff_hz_(cutoff_hz),
      passband_gain_db_(passband_gain_db),
      order_(order),
      clock_hz_(clock_hz),
      clock_spur_v_(clock_spur_v) {
  MSTS_REQUIRE(cutoff_hz > 0.0, "cutoff must be positive");
  MSTS_REQUIRE(order >= 2 && order % 2 == 0, "order must be even and >= 2");
}

LowPassFilter::LowPassFilter(const LpfParams& p)
    : LowPassFilter(p.cutoff_hz.nominal, p.passband_gain_db.nominal, p.order,
                    p.clock_hz, p.clock_spur_v.nominal) {}

LowPassFilter LowPassFilter::sampled(const LpfParams& p, stats::Rng& rng) {
  const double cutoff_hz = stats::sample(p.cutoff_hz, rng);
  const double passband_gain_db = stats::sample(p.passband_gain_db, rng);
  const double clock_spur_v = std::abs(stats::sample(p.clock_spur_v, rng));
  return LowPassFilter(cutoff_hz, passband_gain_db, p.order, p.clock_hz, clock_spur_v);
}

LowPassFilter::Design LowPassFilter::design(double fs) const {
  MSTS_REQUIRE(fs > 0.0, "input signal has no sample rate");
  Design d;
  d.cascade = design_butterworth(cutoff_hz_, passband_gain_db_, order_, fs);
  // The switched-cap clock spur, folded into the first Nyquist zone of the
  // simulation rate if necessary.
  d.spur_omega = kTwoPi * dsp::alias_frequency(clock_hz_, fs) / fs;
  return d;
}

void LowPassFilter::process_into(const Signal& in, Signal& out) const {
  const Design d = design(in.fs);
  out.fs = in.fs;
  out.samples.resize(in.size());
  simd::kernels().lpf_record(d.cascade, in.samples.data(), out.samples.data(), in.size());
  // The clock spur, added by the recurrence oscillator.
  dsp::add_cosine(out.samples.data(), out.samples.size(), d.spur_omega, 0.0,
                  clock_spur_v_);
}

Signal LowPassFilter::process(const Signal& in) const {
  Signal out;
  process_into(in, out);
  return out;
}

LpfResponse::LpfResponse(double cutoff_hz, double passband_gain_db, int order,
                         double fs)
    : fs_(fs), cascade_(design_butterworth(cutoff_hz, passband_gain_db, order, fs)) {}

std::complex<double> LpfResponse::at(double f) const {
  std::complex<double> h(cascade_.gain, 0.0);
  const std::complex<double> z =
      std::exp(std::complex<double>(0.0, -kTwoPi * f / fs_));
  for (std::size_t k = 0; k < cascade_.count; ++k) {
    const simd::Biquad& bq = cascade_.sections[k];
    const auto num = bq.b0 + bq.b1 * z + bq.b2 * z * z;
    const auto den = 1.0 + bq.a1 * z + bq.a2 * z * z;
    h *= num / den;
  }
  return h;
}

double LowPassFilter::magnitude_at(double f, double fs) const {
  return LpfResponse(cutoff_hz_, passband_gain_db_, order_, fs).magnitude_at(f);
}

double LowPassFilter::group_delay_at(double f, double fs) const {
  const LpfResponse response(cutoff_hz_, passband_gain_db_, order_, fs);
  const double df = std::max(1.0, f * 1e-4);
  const auto lo = response.at(std::max(0.0, f - df));
  const auto hi = response.at(f + df);
  double dphi = std::arg(hi) - std::arg(lo);
  while (dphi > kPi) dphi -= kTwoPi;
  while (dphi < -kPi) dphi += kTwoPi;
  return -dphi / (kTwoPi * 2.0 * df);
}

}  // namespace msts::analog
