// Attribute-domain block models.
//
// Section 4.2, "Modeling Mixed-Signal Modules": models "simple enough to
// ensure computational effectiveness, but [including] non-ideal behavior to
// ensure correctness". Each model mirrors one behavioral block of the
// simulated path, but operates on SignalAttributes: it maps tone/noise/DC
// descriptions forward through the block, carrying parameter tolerances as
// uncertainties instead of simulating waveforms. The cascade (PathAttrModel)
// is what the translation engine reasons with.
#pragma once

#include <memory>
#include <vector>

#include "core/signal_attr.h"
#include "path/path_graph.h"

namespace msts::core {

/// Interface of an attribute-domain block model.
class AttrModel {
 public:
  virtual ~AttrModel() = default;

  /// Propagates a signal description through the block.
  virtual SignalAttributes forward(const SignalAttributes& in) const = 0;
};

/// Amplifier: gain, offset, NF noise, HD2/HD3 and IM3 spurs, all toleranced.
class AmpAttrModel : public AttrModel {
 public:
  explicit AmpAttrModel(const analog::AmpParams& params);
  SignalAttributes forward(const SignalAttributes& in) const override;

 private:
  analog::AmpParams p_;
};

/// Mixer: frequency translation (with LO error feeding the tone-frequency
/// uncertainty), conversion gain, LO feedthrough, IM3, NF noise. DC entering
/// the RF port leaves as a spur at the LO frequency.
class MixerAttrModel : public AttrModel {
 public:
  MixerAttrModel(const analog::MixerParams& params, const analog::LoParams& lo);
  SignalAttributes forward(const SignalAttributes& in) const override;

 private:
  analog::MixerParams p_;
  analog::LoParams lo_;
};

/// Low-pass filter: frequency-dependent gain whose uncertainty combines the
/// pass-band gain tolerance with the cutoff tolerance through the response
/// slope; clock spur injection; noise-bandwidth shaping.
class LpfAttrModel : public AttrModel {
 public:
  /// Designs the nominal and cutoff +/- wc responses once, for the rate `fs`
  /// the model runs at; forward() requires its input at that rate.
  LpfAttrModel(const analog::LpfParams& params, double fs);
  SignalAttributes forward(const SignalAttributes& in) const override;

  /// Toleranced magnitude gain (linear) at frequency f.
  stats::Uncertain gain_at(double f) const;

 private:
  analog::LpfParams p_;
  analog::LpfResponse nominal_;
  analog::LpfResponse cutoff_hi_;  ///< Cutoff at nominal + wc.
  analog::LpfResponse cutoff_lo_;  ///< Cutoff at nominal - wc.
};

/// ADC: rate change (tones fold into the digital band), gain/offset errors,
/// quantisation noise, INL-induced distortion spurs.
class AdcAttrModel : public AttrModel {
 public:
  AdcAttrModel(const analog::AdcParams& params, std::size_t decimation);
  SignalAttributes forward(const SignalAttributes& in) const override;

 private:
  analog::AdcParams p_;
  std::size_t decimation_;
};

/// Digital FIR filter: exactly known transfer function, no added noise or
/// distortion — the paper's observation that the filter looks like an ideal
/// analog filter to the tester.
class FirAttrModel : public AttrModel {
 public:
  FirAttrModel(std::vector<std::int32_t> coeffs, int frac_bits);
  SignalAttributes forward(const SignalAttributes& in) const override;

  /// Exact magnitude response at frequency f for context rate fs.
  double magnitude_at(double f, double fs) const;

 private:
  std::vector<std::int32_t> coeffs_;
  int frac_bits_;
};

/// The whole path in the attribute domain: one attribute model per block of
/// a PathGraphConfig, cascaded in graph order.
class PathAttrModel {
 public:
  /// Attribute cascade of a path graph (validated here). Blocks are
  /// addressed by graph position; use num_blocks() for bounds.
  explicit PathAttrModel(const path::PathGraphConfig& graph);

  /// Number of blocks in the cascade.
  std::size_t num_blocks() const { return blocks_.size(); }

  /// Propagates an RF-input description through the first `nblocks` blocks
  /// (num_blocks() = the full path).
  SignalAttributes forward_upto(const SignalAttributes& rf, std::size_t nblocks) const;

  /// Full-path propagation.
  SignalAttributes forward(const SignalAttributes& rf) const {
    return forward_upto(rf, blocks_.size());
  }

  /// Toleranced voltage gain (dB) from the primary input to the *input* of
  /// block `block_index`, for an RF probe tone at f_rf. gain_db_to(0) == 0.
  stats::Uncertain gain_db_to(std::size_t block_index, double f_rf) const;

  /// Toleranced voltage gain (dB) from the input of block `block_index` to
  /// the primary (digital) output, for an RF probe tone at f_rf.
  stats::Uncertain gain_db_from(std::size_t block_index, double f_rf) const;

  /// Toleranced end-to-end gain (dB) at f_rf.
  stats::Uncertain path_gain_db(double f_rf) const;

  /// PI tone amplitude (volts peak) that places `target_vpeak` at the input
  /// of block `block_index` under nominal gains — translation by propagation
  /// computes its stimuli this way.
  double pi_amplitude_for(std::size_t block_index, double f_rf,
                          double target_vpeak) const;

  /// The graph description this cascade was built from.
  const path::PathGraphConfig& graph() const { return graph_; }

 private:
  path::PathGraphConfig graph_;
  std::vector<std::unique_ptr<AttrModel>> blocks_;
};

}  // namespace msts::core
