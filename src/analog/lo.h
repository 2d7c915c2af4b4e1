// Local oscillator model.
//
// Table 1 tests the LO for frequency error and phase noise; the mixer model
// consumes the generated LO waveform, so both non-idealities propagate into
// every down-converted test signal exactly as in the paper's path.
#pragma once

#include <cstddef>

#include "analog/signal.h"
#include "stats/rng.h"
#include "stats/uncertain.h"

namespace msts::analog {

/// Datasheet-style LO description.
struct LoParams {
  double freq_hz = 10.0e6;            ///< Programmed frequency.
  stats::Uncertain freq_error_ppm =
      stats::Uncertain::from_tolerance(0.0, 10.0);   ///< Crystal tolerance.
  stats::Uncertain phase_noise_rad =
      stats::Uncertain::from_tolerance(2e-3, 1e-3);  ///< Per-sample random-walk
                                                     ///< step sigma (radians).
  double amplitude = 1.0;             ///< Volts peak (mixer normalises).
};

/// One manufactured oscillator.
class LocalOscillator {
 public:
  explicit LocalOscillator(const LoParams& params);
  /// Draws the frequency error, then the phase-noise step (LoParams
  /// declaration order).
  static LocalOscillator sampled(const LoParams& params, stats::Rng& rng);

  /// Generates n samples at rate fs. Phase noise is a Wiener process driven
  /// by `noise_rng`.
  Signal generate(double fs, std::size_t n, stats::Rng& noise_rng) const;

  /// generate() into a caller-owned buffer (resized; capacity reused).
  void generate_into(double fs, std::size_t n, stats::Rng& noise_rng,
                     Signal& out) const;

  /// Carrier phase step per sample at rate fs (radians); throws when the
  /// actual frequency is not below Nyquist.
  double omega(double fs) const;

  /// Actual output frequency including the ppm error.
  double actual_freq_hz() const;
  double actual_freq_error_ppm() const { return freq_error_ppm_; }
  double actual_phase_noise_rad() const { return phase_noise_rad_; }
  double amplitude() const { return amplitude_; }

 private:
  LocalOscillator(double freq_hz, double freq_error_ppm, double phase_noise_rad,
                  double amplitude);

  double freq_hz_;
  double freq_error_ppm_;
  double phase_noise_rad_;
  double amplitude_;
};

}  // namespace msts::analog
