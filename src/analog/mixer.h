// Behavioral down-conversion mixer.
//
// Non-idealities from Table 1: conversion gain, IIP3, LO-to-output isolation
// (LO feedthrough), 1 dB compression and noise figure. The RF-port
// nonlinearity is applied before multiplication so two-tone stimuli create
// the intermodulation products the translated IIP3 test measures.
#pragma once

#include "analog/amp.h"
#include "analog/lo.h"
#include "analog/signal.h"
#include "base/chains.h"
#include "stats/rng.h"
#include "stats/uncertain.h"

namespace msts::analog {

/// Datasheet-style mixer description.
struct MixerParams {
  stats::Uncertain conv_gain_db = stats::Uncertain::from_tolerance(10.0, 1.0);
  stats::Uncertain iip3_dbm = stats::Uncertain::from_tolerance(8.0, 1.5);
  stats::Uncertain p1db_in_dbm = stats::Uncertain::from_tolerance(-2.0, 1.0);
  stats::Uncertain lo_isolation_db = stats::Uncertain::from_tolerance(40.0, 4.0);
  stats::Uncertain nf_db = stats::Uncertain::from_tolerance(8.0, 1.0);
};

/// One manufactured mixer.
class Mixer {
 public:
  explicit Mixer(const MixerParams& params);
  /// Draws every parameter from its tolerance in MixerParams declaration
  /// order: conversion gain, IIP3, P1dB, LO isolation, NF.
  static Mixer sampled(const MixerParams& params, stats::Rng& rng);

  /// Mixes `rf` with `lo` (same rate and length). Output contains the
  /// down- and up-converted products, RF-port intermodulation, LO
  /// feedthrough, compression and thermal noise.
  Signal process(const Signal& rf, const Signal& lo, stats::Rng& noise_rng) const;

  /// process() into a caller-owned buffer (resized; capacity reused). `out`
  /// must not alias either input.
  void process_into(const Signal& rf, const Signal& lo, stats::Rng& noise_rng,
                    Signal& out) const;

  /// The per-record constants of process() at rate fs.
  struct Coeffs {
    double a1, c3, vsat;  ///< RF-port nonlinearity (conversion gain folded in).
    double leak;          ///< LO feedthrough amplitude ratio.
    double noise_sigma;   ///< Input-referred noise (volts RMS).
  };
  Coeffs coeffs(double fs) const;

  /// One output sample from the RF sample, its noise deviate and the LO
  /// sample: base::mixer_apply, which the lane kernel
  /// (simd::Kernels::mixer_lanes) evaluates too.
  static double apply(const Coeffs& k, double rf, double deviate, double lo) {
    return base::mixer_apply(rf, deviate, lo, k.noise_sigma, k.a1, k.c3, k.vsat, k.leak);
  }

  double actual_conv_gain_db() const { return conv_gain_db_; }
  double actual_iip3_dbm() const { return iip3_dbm_; }
  double actual_p1db_in_dbm() const { return p1db_in_dbm_; }
  double actual_lo_isolation_db() const { return lo_isolation_db_; }
  double actual_nf_db() const { return nf_db_; }

 private:
  Mixer(double conv_gain_db, double iip3_dbm, double p1db_in_dbm,
        double lo_isolation_db, double nf_db);

  double conv_gain_db_;
  double iip3_dbm_;
  double p1db_in_dbm_;
  double lo_isolation_db_;
  double nf_db_;
};

}  // namespace msts::analog
