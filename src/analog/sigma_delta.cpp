#include "analog/sigma_delta.h"

#include <algorithm>

#include "base/require.h"
#include "stats/monte_carlo.h"

namespace msts::analog {

SigmaDeltaModulator::SigmaDeltaModulator(int order, double vref,
                                         double integrator_gain, double leak,
                                         double dac_mismatch_v, double state_clip)
    : order_(order),
      vref_(vref),
      integrator_gain_(integrator_gain),
      leak_(leak),
      dac_mismatch_v_(dac_mismatch_v),
      state_clip_(state_clip) {
  MSTS_REQUIRE(order == 1 || order == 2, "modulator order must be 1 or 2");
  MSTS_REQUIRE(vref > 0.0, "reference must be positive");
  MSTS_REQUIRE(state_clip > 1.0, "state clip must exceed the reference");
}

SigmaDeltaModulator::SigmaDeltaModulator(const SigmaDeltaParams& p)
    : SigmaDeltaModulator(p.order, p.vref, 1.0 + p.integrator_gain_error.nominal,
                          p.integrator_leak.nominal, p.dac_mismatch_v.nominal,
                          p.state_clip) {}

SigmaDeltaModulator SigmaDeltaModulator::sampled(const SigmaDeltaParams& p,
                                                 stats::Rng& rng) {
  const double integrator_gain = 1.0 + stats::sample(p.integrator_gain_error, rng);
  const double leak = std::abs(stats::sample(p.integrator_leak, rng));
  const double dac_mismatch_v = stats::sample(p.dac_mismatch_v, rng);
  return SigmaDeltaModulator(p.order, p.vref, integrator_gain, leak, dac_mismatch_v,
                             p.state_clip);
}

std::vector<int> SigmaDeltaModulator::modulate(const Signal& in) const {
  MSTS_REQUIRE(in.fs > 0.0, "input signal has no sample rate");
  std::vector<int> bits;
  bits.reserve(in.size());

  const double clip = state_clip_ * vref_;
  const double keep = 1.0 - leak_;
  double s1 = 0.0;
  double s2 = 0.0;
  for (double x : in.samples) {
    // Quantise the last state; feedback DAC has a level error on +1.
    const double y_state = (order_ == 2) ? s2 : s1;
    const int bit = (y_state >= 0.0) ? 1 : -1;
    const double fb = (bit > 0) ? (vref_ + dac_mismatch_v_) : -vref_;

    s1 = std::clamp(keep * s1 + integrator_gain_ * (x - fb), -clip, clip);
    if (order_ == 2) {
      s2 = std::clamp(keep * s2 + integrator_gain_ * (s1 - fb), -clip, clip);
    }
    bits.push_back(bit);
  }
  return bits;
}

}  // namespace msts::analog
