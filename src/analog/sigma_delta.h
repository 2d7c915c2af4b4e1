// Discrete-time sigma-delta modulator.
//
// The paper names the analog/digital interface as "an ADC or a ΣΔ
// modulator" (sec. 1); this is the second option: a 1-bit noise-shaping
// modulator whose decimated output (see dsp/cic.h) feeds the digital filter.
// Non-idealities: integrator gain error/leak and feedback-DAC level
// mismatch, both toleranced like every other block parameter.
#pragma once

#include <cstdint>
#include <vector>

#include "analog/signal.h"
#include "stats/rng.h"
#include "stats/uncertain.h"

namespace msts::analog {

/// Datasheet-style modulator description.
struct SigmaDeltaParams {
  int order = 2;          ///< 1 or 2 (cascade-of-integrators feedback form).
  double vref = 0.5;      ///< Feedback DAC levels are +/- vref.
  /// Integrator gain error (fraction): ideal integrators have gain 1.
  stats::Uncertain integrator_gain_error = stats::Uncertain::from_tolerance(0.0, 0.02);
  /// Integrator leak per sample (fraction of state lost).
  stats::Uncertain integrator_leak = stats::Uncertain::from_tolerance(0.0, 1e-3);
  /// Feedback DAC level mismatch (volts, adds to the positive level).
  stats::Uncertain dac_mismatch_v = stats::Uncertain::from_tolerance(0.0, 1e-3);
  double state_clip = 4.0;  ///< Integrator saturation (x vref).
};

/// One manufactured modulator.
class SigmaDeltaModulator {
 public:
  explicit SigmaDeltaModulator(const SigmaDeltaParams& params);
  /// Draws the integrator gain error, the leak, then the DAC mismatch
  /// (SigmaDeltaParams declaration order).
  static SigmaDeltaModulator sampled(const SigmaDeltaParams& params, stats::Rng& rng);

  /// Modulates the waveform into a +/-1 bit stream (one bit per input
  /// sample; the input rate is the oversampled rate).
  std::vector<int> modulate(const Signal& in) const;

  int order() const { return order_; }
  double vref() const { return vref_; }
  double actual_integrator_gain() const { return integrator_gain_; }
  double actual_dac_mismatch_v() const { return dac_mismatch_v_; }

 private:
  SigmaDeltaModulator(int order, double vref, double integrator_gain, double leak,
                      double dac_mismatch_v, double state_clip);

  int order_;
  double vref_;
  double integrator_gain_;
  double leak_;
  double dac_mismatch_v_;
  double state_clip_;
};

}  // namespace msts::analog
