#include "analog/amp.h"

#include <algorithm>
#include <cmath>

#include "analog/noise.h"
#include "base/require.h"
#include "base/units.h"
#include "stats/monte_carlo.h"

namespace msts::analog {

double c3_from_iip3(double a_iip3_vpeak) {
  MSTS_REQUIRE(a_iip3_vpeak > 0.0, "IIP3 amplitude must be positive");
  return -4.0 / (3.0 * a_iip3_vpeak * a_iip3_vpeak);
}

double c2_from_iip2(double a_iip2_vpeak) {
  MSTS_REQUIRE(a_iip2_vpeak > 0.0, "IIP2 amplitude must be positive");
  return 1.0 / a_iip2_vpeak;
}

double vsat_from_p1db(double a_p1db_in_vpeak, double a1) {
  MSTS_REQUIRE(a_p1db_in_vpeak > 0.0 && a1 > 0.0, "P1dB and gain must be positive");
  return a_p1db_in_vpeak * a1 * amplitude_ratio_from_db(-1.0);
}

Amplifier::Amplifier(double gain_db, double iip3_dbm, double iip2_dbm,
                     double p1db_in_dbm, double nf_db, double dc_offset_v)
    : gain_db_(gain_db),
      iip3_dbm_(iip3_dbm),
      iip2_dbm_(iip2_dbm),
      p1db_in_dbm_(p1db_in_dbm),
      nf_db_(nf_db),
      dc_offset_v_(dc_offset_v) {}

Amplifier::Amplifier(const AmpParams& p)
    : Amplifier(p.gain_db.nominal, p.iip3_dbm.nominal, p.iip2_dbm.nominal,
                p.p1db_in_dbm.nominal, p.nf_db.nominal, p.dc_offset_v.nominal) {}

Amplifier Amplifier::sampled(const AmpParams& p, stats::Rng& rng) {
  // Named locals sequence the draws; constructor arguments would not.
  const double gain_db = stats::sample(p.gain_db, rng);
  const double iip3_dbm = stats::sample(p.iip3_dbm, rng);
  const double iip2_dbm = stats::sample(p.iip2_dbm, rng);
  const double p1db_in_dbm = stats::sample(p.p1db_in_dbm, rng);
  const double nf_db = std::max(0.0, stats::sample(p.nf_db, rng));
  const double dc_offset_v = stats::sample(p.dc_offset_v, rng);
  return Amplifier(gain_db, iip3_dbm, iip2_dbm, p1db_in_dbm, nf_db, dc_offset_v);
}

Amplifier::Coeffs Amplifier::coeffs(double fs) const {
  Coeffs k;
  k.a1 = amplitude_ratio_from_db(gain_db_);
  k.c3 = c3_from_iip3(vpeak_from_dbm(iip3_dbm_));
  k.c2 = c2_from_iip2(vpeak_from_dbm(iip2_dbm_));
  k.vsat = vsat_from_p1db(vpeak_from_dbm(p1db_in_dbm_), k.a1);
  k.noise_sigma = noise_vrms_from_nf(nf_db_, fs);
  k.dc_offset_v = dc_offset_v_;
  return k;
}

void Amplifier::process_into(const Signal& in, stats::Rng& noise_rng,
                             Signal& out) const {
  MSTS_REQUIRE(in.fs > 0.0, "input signal has no sample rate");
  MSTS_REQUIRE(&out != &in, "output must not alias the input");
  const Coeffs k = coeffs(in.fs);

  out.fs = in.fs;
  out.samples.resize(in.size());
  // The record's noise deviates land in the output first; the stage then
  // overwrites each one with its sample.
  noise_rng.fill_normal(out.samples);
  const double* src = in.samples.data();
  double* dst = out.samples.data();
  for (std::size_t i = 0; i < in.size(); ++i) dst[i] = apply(k, src[i], dst[i]);
}

Signal Amplifier::process(const Signal& in, stats::Rng& noise_rng) const {
  Signal out;
  process_into(in, noise_rng, out);
  return out;
}

}  // namespace msts::analog
