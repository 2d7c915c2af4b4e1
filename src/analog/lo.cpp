#include "analog/lo.h"

#include <algorithm>
#include <cmath>

#include "base/require.h"
#include "base/units.h"
#include "dsp/oscillator.h"
#include "stats/monte_carlo.h"

namespace msts::analog {

LocalOscillator::LocalOscillator(double freq_hz, double freq_error_ppm,
                                 double phase_noise_rad, double amplitude)
    : freq_hz_(freq_hz),
      freq_error_ppm_(freq_error_ppm),
      phase_noise_rad_(phase_noise_rad),
      amplitude_(amplitude) {
  MSTS_REQUIRE(freq_hz > 0.0, "LO frequency must be positive");
  MSTS_REQUIRE(amplitude > 0.0, "LO amplitude must be positive");
}

LocalOscillator::LocalOscillator(const LoParams& p)
    : LocalOscillator(p.freq_hz, p.freq_error_ppm.nominal, p.phase_noise_rad.nominal,
                      p.amplitude) {}

LocalOscillator LocalOscillator::sampled(const LoParams& p, stats::Rng& rng) {
  const double freq_error_ppm = stats::sample(p.freq_error_ppm, rng);
  const double phase_noise_rad = std::max(0.0, stats::sample(p.phase_noise_rad, rng));
  return LocalOscillator(p.freq_hz, freq_error_ppm, phase_noise_rad, p.amplitude);
}

double LocalOscillator::actual_freq_hz() const {
  return freq_hz_ * (1.0 + freq_error_ppm_ * 1e-6);
}

double LocalOscillator::omega(double fs) const {
  MSTS_REQUIRE(fs > 2.0 * actual_freq_hz(), "LO frequency above Nyquist");
  return kTwoPi * actual_freq_hz() / fs;
}

void LocalOscillator::generate_into(double fs, std::size_t n, stats::Rng& noise_rng,
                                    Signal& out) const {
  const double w = omega(fs);
  out.fs = fs;
  out.samples.resize(n);
  if (phase_noise_rad_ == 0.0) {
    // Jitter-free carrier: the four-lane cosine kernel.
    std::fill(out.samples.begin(), out.samples.end(), 0.0);
    dsp::add_cosine(out.samples.data(), n, w, 0.0, amplitude_);
    return;
  }
  // The random-walk phase rides on the carrier as per-sample phasor nudges;
  // the walk steps are sub-milliradian, so unit_phasor resolves them with a
  // Taylor pair instead of sincos, the jitter and carrier rotations fuse
  // into one multiply per sample, and the oscillator's periodic resync
  // (dsp::kResyncPeriod) folds the accumulated walk back into exact trig.
  // The walk's deviates land in the output first and are overwritten in
  // place by the carrier samples.
  noise_rng.fill_normal(out.samples);
  dsp::PhasorOscillator osc(w, 0.0);
  double* dst = out.samples.data();
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = amplitude_ * osc.jitter_cos_next(phase_noise_rad_ * dst[i]);
  }
}

Signal LocalOscillator::generate(double fs, std::size_t n, stats::Rng& noise_rng) const {
  Signal out;
  generate_into(fs, n, noise_rng, out);
  return out;
}

}  // namespace msts::analog
