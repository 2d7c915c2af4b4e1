// Switched-capacitor low-pass filter model (Butterworth biquad cascade).
//
// Table 1 tests the filter for pass-band gain, stop-band gain, cutoff
// frequency and dynamic range. The switched-capacitor implementation also
// leaks clock spurs into the output ("tones at the integer multiples of the
// clock frequency", sec. 4.2), which the signal-attribute model must track so
// they are not mistaken for fault effects.
//
// One designer (design_butterworth) gives the cascade for the small-signal
// response and for the transient, and one kernel loop runs the transient
// (simd::Kernels::lpf_record here, lpf_lanes in the lane walk; see
// base/simd_lanes_body.h).
#pragma once

#include <complex>

#include "analog/signal.h"
#include "base/simd.h"
#include "stats/rng.h"
#include "stats/uncertain.h"

namespace msts::analog {

/// The Butterworth cascade of an even order from 2 to
/// 2 * simd::LpfCascade::kMaxSections at rate fs: one RBJ low-pass biquad
/// per Butterworth section Q, and the linear pass-band gain.
simd::LpfCascade design_butterworth(double cutoff_hz, double passband_gain_db, int order,
                                    double fs);

/// Small-signal response of a Butterworth biquad cascade at one rate. The
/// sections are designed once, at construction, so evaluating many
/// frequencies designs nothing; LowPassFilter's magnitude and group delay
/// and the attribute model's toleranced gain all evaluate through it.
class LpfResponse {
 public:
  LpfResponse(double cutoff_hz, double passband_gain_db, int order, double fs);

  /// Complex response at frequency f, pass-band gain included.
  std::complex<double> at(double f) const;
  double magnitude_at(double f) const { return std::abs(at(f)); }
  double fs() const { return fs_; }

 private:
  double fs_;
  simd::LpfCascade cascade_;
};

/// Datasheet-style filter description.
struct LpfParams {
  stats::Uncertain cutoff_hz = stats::Uncertain::from_tolerance(1.0e6, 5.0e4);
  stats::Uncertain passband_gain_db = stats::Uncertain::from_tolerance(0.0, 0.5);
  int order = 4;                       ///< Even; cascaded biquads.
  double clock_hz = 16.0e6;            ///< Switched-cap clock.
  stats::Uncertain clock_spur_v =
      stats::Uncertain::from_tolerance(200e-6, 100e-6);  ///< Spur amplitude at f_clk.
};

/// One manufactured filter.
class LowPassFilter {
 public:
  explicit LowPassFilter(const LpfParams& params);
  /// Draws the cutoff, the pass-band gain, then the clock-spur amplitude
  /// (LpfParams declaration order).
  static LowPassFilter sampled(const LpfParams& params, stats::Rng& rng);

  /// Filters the waveform and injects the clock spur (and its alias if the
  /// clock exceeds Nyquist of the simulation rate).
  Signal process(const Signal& in) const;

  /// process() into a caller-owned buffer (resized; capacity reused).
  void process_into(const Signal& in, Signal& out) const;

  /// What process() runs at rate fs: the cascade (biquad sections and
  /// pass-band gain) and the clock spur's phase step per sample. The lane
  /// walk (path/lanes.h) runs the same design.
  struct Design {
    simd::LpfCascade cascade;
    double spur_omega = 0.0;
  };
  Design design(double fs) const;

  /// Small-signal magnitude response at frequency f for rate fs (includes
  /// the pass-band gain): one LpfResponse designed for this call. Repeated
  /// evaluations at one rate should hold an LpfResponse instead.
  double magnitude_at(double f, double fs) const;

  /// Group delay (seconds) at frequency f for rate fs, from the numerical
  /// phase slope of the cascade response.
  double group_delay_at(double f, double fs) const;

  double actual_cutoff_hz() const { return cutoff_hz_; }
  double actual_passband_gain_db() const { return passband_gain_db_; }
  int order() const { return order_; }
  double clock_hz() const { return clock_hz_; }
  double actual_clock_spur_v() const { return clock_spur_v_; }

 private:
  LowPassFilter(double cutoff_hz, double passband_gain_db, int order, double clock_hz,
                double clock_spur_v);

  double cutoff_hz_;
  double passband_gain_db_;
  int order_;
  double clock_hz_;
  double clock_spur_v_;
};

}  // namespace msts::analog
