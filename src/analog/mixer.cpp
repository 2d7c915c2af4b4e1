#include "analog/mixer.h"

#include <algorithm>
#include <cmath>

#include "analog/amp.h"
#include "analog/noise.h"
#include "base/require.h"
#include "base/units.h"
#include "stats/monte_carlo.h"

namespace msts::analog {

Mixer::Mixer(double conv_gain_db, double iip3_dbm, double p1db_in_dbm,
             double lo_isolation_db, double nf_db)
    : conv_gain_db_(conv_gain_db),
      iip3_dbm_(iip3_dbm),
      p1db_in_dbm_(p1db_in_dbm),
      lo_isolation_db_(lo_isolation_db),
      nf_db_(nf_db) {}

Mixer::Mixer(const MixerParams& p)
    : Mixer(p.conv_gain_db.nominal, p.iip3_dbm.nominal, p.p1db_in_dbm.nominal,
            p.lo_isolation_db.nominal, p.nf_db.nominal) {}

Mixer Mixer::sampled(const MixerParams& p, stats::Rng& rng) {
  const double conv_gain_db = stats::sample(p.conv_gain_db, rng);
  const double iip3_dbm = stats::sample(p.iip3_dbm, rng);
  const double p1db_in_dbm = stats::sample(p.p1db_in_dbm, rng);
  const double lo_isolation_db = stats::sample(p.lo_isolation_db, rng);
  const double nf_db = std::max(0.0, stats::sample(p.nf_db, rng));
  return Mixer(conv_gain_db, iip3_dbm, p1db_in_dbm, lo_isolation_db, nf_db);
}

Mixer::Coeffs Mixer::coeffs(double fs) const {
  // A multiplicative mixer with a unit-amplitude LO halves the signal
  // amplitude in each sideband; fold the factor 2 into the port gain so the
  // *down-converted* tone sees the specified conversion gain.
  Coeffs k;
  k.a1 = 2.0 * amplitude_ratio_from_db(conv_gain_db_);
  k.c3 = c3_from_iip3(vpeak_from_dbm(iip3_dbm_));
  k.vsat = 2.0 * vsat_from_p1db(vpeak_from_dbm(p1db_in_dbm_),
                                amplitude_ratio_from_db(conv_gain_db_));
  k.leak = amplitude_ratio_from_db(-lo_isolation_db_);
  k.noise_sigma = noise_vrms_from_nf(nf_db_, fs);
  return k;
}

void Mixer::process_into(const Signal& rf, const Signal& lo, stats::Rng& noise_rng,
                         Signal& out) const {
  MSTS_REQUIRE(rf.fs > 0.0 && rf.fs == lo.fs, "RF and LO rates must match");
  MSTS_REQUIRE(rf.size() == lo.size(), "RF and LO lengths must match");
  MSTS_REQUIRE(&out != &rf && &out != &lo, "output must not alias an input");
  const Coeffs k = coeffs(rf.fs);

  out.fs = rf.fs;
  out.samples.resize(rf.size());
  // Noise deviates first, overwritten in place by the mixed samples.
  noise_rng.fill_normal(out.samples);
  const double* rfp = rf.samples.data();
  const double* lop = lo.samples.data();
  double* dst = out.samples.data();
  for (std::size_t i = 0; i < rf.size(); ++i) dst[i] = apply(k, rfp[i], dst[i], lop[i]);
}

Signal Mixer::process(const Signal& rf, const Signal& lo, stats::Rng& noise_rng) const {
  Signal out;
  process_into(rf, lo, noise_rng, out);
  return out;
}

}  // namespace msts::analog
