// Behavioral amplifier model.
//
// Non-idealities tracked by the paper's signal model: gain (with tolerance),
// DC offset, second/third-order nonlinearity (IIP2/IIP3 -> harmonics and
// intermodulation), output saturation (P1dB), and noise figure. A block
// instance carries *actual* parameter values; nominal instances use the
// datasheet nominals and Monte-Carlo instances sample the tolerances.
#pragma once

#include "analog/signal.h"
#include "base/chains.h"
#include "stats/rng.h"
#include "stats/uncertain.h"

namespace msts::analog {

/// Datasheet-style amplifier description (nominals + tolerances).
struct AmpParams {
  stats::Uncertain gain_db = stats::Uncertain::from_tolerance(15.0, 1.0);
  stats::Uncertain iip3_dbm = stats::Uncertain::from_tolerance(5.0, 1.5);
  stats::Uncertain iip2_dbm = stats::Uncertain::from_tolerance(40.0, 3.0);
  stats::Uncertain p1db_in_dbm = stats::Uncertain::from_tolerance(-5.0, 1.0);
  stats::Uncertain nf_db = stats::Uncertain::from_tolerance(3.0, 0.5);
  stats::Uncertain dc_offset_v = stats::Uncertain::from_tolerance(0.0, 2e-3);
};

/// One manufactured amplifier (concrete parameter values).
class Amplifier {
 public:
  /// Instance at the nominal parameter values.
  explicit Amplifier(const AmpParams& params);

  /// Instance with every parameter drawn from its tolerance distribution
  /// (Gaussian, 3 sigma = tolerance), in AmpParams declaration order:
  /// gain, IIP3, IIP2, P1dB, NF, DC offset.
  static Amplifier sampled(const AmpParams& params, stats::Rng& rng);

  /// Processes a waveform; `noise_rng` drives the thermal noise.
  Signal process(const Signal& in, stats::Rng& noise_rng) const;

  /// process() into a caller-owned buffer (resized; capacity reused). `out`
  /// must not alias `in`.
  void process_into(const Signal& in, stats::Rng& noise_rng, Signal& out) const;

  /// The per-record constants of process() at rate fs. c2/c3 derive from
  /// IIP2/IIP3 (volt peak), vsat from the output P1dB level.
  struct Coeffs {
    double a1, c2, c3, vsat;  ///< base::apply_nonlinearity's arguments.
    double noise_sigma;       ///< Input-referred noise (volts RMS).
    double dc_offset_v;
  };
  Coeffs coeffs(double fs) const;

  /// One output sample from input sample x and its noise deviate:
  /// base::amp_apply, which the lane kernel (simd::Kernels::amp_lanes)
  /// evaluates too.
  static double apply(const Coeffs& k, double x, double deviate);

  double actual_gain_db() const { return gain_db_; }
  double actual_iip3_dbm() const { return iip3_dbm_; }
  double actual_p1db_in_dbm() const { return p1db_in_dbm_; }
  double actual_nf_db() const { return nf_db_; }
  double actual_dc_offset_v() const { return dc_offset_v_; }

 private:
  Amplifier(double gain_db, double iip3_dbm, double iip2_dbm, double p1db_in_dbm,
            double nf_db, double dc_offset_v);

  double gain_db_;
  double iip3_dbm_;
  double iip2_dbm_;
  double p1db_in_dbm_;
  double nf_db_;
  double dc_offset_v_;
};

inline double Amplifier::apply(const Coeffs& k, double x, double deviate) {
  return base::amp_apply(x, deviate, k.noise_sigma, k.a1, k.c2, k.c3, k.vsat, k.dc_offset_v);
}

/// Third-order coefficient for an input intercept amplitude (volts peak):
/// c3 = -4 / (3 * a_iip3^2).
double c3_from_iip3(double a_iip3_vpeak);

/// Second-order coefficient for an input intercept amplitude (volts peak):
/// c2 = 1 / a_iip2.
double c2_from_iip2(double a_iip2_vpeak);

/// Output saturation level corresponding to a 1 dB input compression point:
/// the linear output at the compression point, reduced by 1 dB.
double vsat_from_p1db(double a_p1db_in_vpeak, double a1);

}  // namespace msts::analog
