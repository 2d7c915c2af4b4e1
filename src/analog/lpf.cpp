#include "analog/lpf.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "base/chains.h"
#include "base/require.h"
#include "base/simd.h"
#include "base/units.h"
#include "dsp/metrics.h"
#include "dsp/oscillator.h"
#include "stats/monte_carlo.h"

namespace msts::analog {

Biquad design_lowpass_biquad(double fc, double fs, double q) {
  MSTS_REQUIRE(fc > 0.0 && fc < fs / 2.0, "cutoff must be in (0, fs/2)");
  MSTS_REQUIRE(q > 0.0, "Q must be positive");
  const double w0 = kTwoPi * fc / fs;
  const double alpha = std::sin(w0) / (2.0 * q);
  const double cw = std::cos(w0);
  const double a0 = 1.0 + alpha;
  Biquad bq;
  bq.b0 = (1.0 - cw) / 2.0 / a0;
  bq.b1 = (1.0 - cw) / a0;
  bq.b2 = bq.b0;
  bq.a1 = -2.0 * cw / a0;
  bq.a2 = (1.0 - alpha) / a0;
  return bq;
}

std::vector<double> butterworth_qs(int order) {
  MSTS_REQUIRE(order >= 2 && order % 2 == 0, "order must be even and >= 2");
  std::vector<double> qs;
  for (int k = 0; k < order / 2; ++k) {
    const double angle = kPi * (2.0 * k + 1.0) / (2.0 * order);
    qs.push_back(1.0 / (2.0 * std::sin(angle)));
  }
  return qs;
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
  MSTS_REQUIRE(cutoff_hz_ < fs / 2.0, "cutoff above simulation Nyquist");
  const auto qs = butterworth_qs(order_);
  MSTS_REQUIRE(qs.size() <= Design::kMaxSections, "filter order too high");
  Design d;
  d.count = qs.size();
  for (std::size_t k = 0; k < qs.size(); ++k) {
    d.sections[k] = design_lowpass_biquad(cutoff_hz_, fs, qs[k]);
  }
  d.gain = amplitude_ratio_from_db(passband_gain_db_);
  // The switched-cap clock spur, folded into the first Nyquist zone of the
  // simulation rate if necessary.
  d.spur_omega = kTwoPi * dsp::alias_frequency(clock_hz_, fs) / fs;
  return d;
}

void LowPassFilter::process_into(const Signal& in, Signal& out) const {
  const Design d = design(in.fs);
  const double gain = d.gain;

  out.fs = in.fs;
  out.samples.resize(in.size());

  // All biquad sections and the pass-band gain are applied in one sweep:
  // section k consumes section k-1's output for the same sample, which is
  // the same value (bit for bit) the pass-per-section form would store and
  // re-read, but the record crosses memory once instead of order_/2+2 times.
  // The per-sample expressions are base/chains.h's, which the lane kernel
  // (Kernels::lpf_lanes) shares.
  const Biquad* bq = d.sections;
  double x1[Design::kMaxSections] = {}, x2[Design::kMaxSections] = {};
  double y1[Design::kMaxSections] = {}, y2[Design::kMaxSections] = {};
  const std::size_t sections = d.count;
  const double* src = in.samples.data();
  double* dst = out.samples.data();
  const std::size_t n_s = in.size();
  const simd::Kernels& kern = simd::kernels();
  if (kern.f64_width > 1 && n_s > 0) {
    // SIMD path: each section's feed-forward half b0*x + b1*x[-1] + b2*x[-2]
    // is a vectorizable sliding dot (kernel biquad_ff, fused explicitly);
    // only the short recurrence y = ff - a1*y1 - a2*y2 stays scalar. The
    // split keeps the reference association ((ff - a1*y1) - a2*y2), so the
    // only drift vs the scalar backend is the feed-forward's FMA — covered
    // by the differential tolerance. The record crosses memory twice per
    // section instead of once total, but the recurrence sweep is
    // latency-bound on two flops either way, and the feed-forward half
    // vectorizes fully.
    // Ping-pong scratch: biquad_ff reads a sliding x[i-2..i] window, so it
    // must not write over the record it is reading.
    thread_local std::vector<double> buf_a, buf_b;
    buf_a.resize(n_s);
    buf_b.resize(n_s);
    const double* cur = src;
    double* nxt = buf_a.data();
    for (std::size_t k = 0; k < sections; ++k) {
      kern.biquad_ff(cur, bq[k].b0, bq[k].b1, bq[k].b2, nxt, n_s);
      double ry1 = 0.0, ry2 = 0.0;
      const double a1 = bq[k].a1, a2 = bq[k].a2;
      for (std::size_t i = 0; i < n_s; ++i) {
        const double y = base::biquad_recur(nxt[i], ry1, ry2, a1, a2);
        ry2 = ry1;
        ry1 = y;
        nxt[i] = y;
      }
      cur = nxt;
      nxt = (cur == buf_a.data()) ? buf_b.data() : buf_a.data();
    }
    for (std::size_t i = 0; i < n_s; ++i) dst[i] = cur[i] * gain;
  } else if (sections == 2 && n_s > 0) {
    // The common order-4 cascade, software-pipelined: section 1 runs one
    // sample behind section 0, so the two recurrence chains — each
    // latency-bound on its own y1/y2 feedback — overlap instead of
    // serialising. Every value sees the same arithmetic as the nested loop
    // below; only the schedule differs, so the output is bit-identical.
    const Biquad b0 = bq[0], b1 = bq[1];
    double ax1 = 0.0, ax2 = 0.0, ay1 = 0.0, ay2 = 0.0;  // section 0 state
    double cx1 = 0.0, cx2 = 0.0, cy1 = 0.0, cy2 = 0.0;  // section 1 state
    // Prologue: section 0 consumes sample 0; section 1 has no input yet.
    // Full five-term form even at zero state: dropping the zero terms could
    // flip a signed zero and break bit-identity with the generic loop.
    double h = base::biquad_direct(src[0], ax1, ax2, ay1, ay2, b0.b0, b0.b1, b0.b2,
                                   b0.a1, b0.a2);
    ax2 = ax1;
    ax1 = src[0];
    ay2 = ay1;
    ay1 = h;
    for (std::size_t i = 1; i < n_s; ++i) {
      // Section 1, sample i-1 (input h from the previous iteration)...
      const double y = base::biquad_direct(h, cx1, cx2, cy1, cy2, b1.b0, b1.b1, b1.b2,
                                           b1.a1, b1.a2);
      cx2 = cx1;
      cx1 = h;
      cy2 = cy1;
      cy1 = y;
      dst[i - 1] = y * gain;
      // ...and section 0, sample i, in the same iteration.
      const double x = src[i];
      h = base::biquad_direct(x, ax1, ax2, ay1, ay2, b0.b0, b0.b1, b0.b2, b0.a1, b0.a2);
      ax2 = ax1;
      ax1 = x;
      ay2 = ay1;
      ay1 = h;
    }
    // Epilogue: section 1 consumes the last section-0 output.
    const double y = base::biquad_direct(h, cx1, cx2, cy1, cy2, b1.b0, b1.b1, b1.b2,
                                         b1.a1, b1.a2);
    dst[n_s - 1] = y * gain;
  } else {
    for (std::size_t i = 0; i < n_s; ++i) {
      double x = src[i];
      for (std::size_t k = 0; k < sections; ++k) {
        const double y = base::biquad_direct(x, x1[k], x2[k], y1[k], y2[k], bq[k].b0,
                                             bq[k].b1, bq[k].b2, bq[k].a1, bq[k].a2);
        x2[k] = x1[k];
        x1[k] = x;
        y2[k] = y1[k];
        y1[k] = y;
        x = y;
      }
      dst[i] = x * gain;
    }
  }

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
    : fs_(fs), gain_(amplitude_ratio_from_db(passband_gain_db)) {
  const auto qs = butterworth_qs(order);
  sections_.reserve(qs.size());
  for (double q : qs) {
    sections_.push_back(design_lowpass_biquad(cutoff_hz, fs, q));
  }
}

std::complex<double> LpfResponse::at(double f) const {
  std::complex<double> h(gain_, 0.0);
  const std::complex<double> z =
      std::exp(std::complex<double>(0.0, -kTwoPi * f / fs_));
  for (const Biquad& bq : sections_) {
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
