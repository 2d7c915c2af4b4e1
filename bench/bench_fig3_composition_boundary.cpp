// Fig. 3 — "Gain Error Resulting in Saturation".
//
// Translation by composition measures one path gain; opposite gain errors in
// cascaded blocks can mask each other at the mid-amplitude operating point.
// The paper's boundary check: measure again at high amplitude (a positive
// front-end error then saturates the next block) and at low amplitude (a
// negative error drops the signal toward the noise floor). This bench builds
// exactly that scenario.
#include <cstdio>

#include "bench_report.h"
#include "base/units.h"
#include "path/measurements.h"
#include "path/receiver_path.h"

using namespace msts;

namespace {

double gain_at(const path::ReceiverPath& p, double dbm, stats::Rng& rng,
               const path::MeasureOptions& opts, double f_if) {
  return path::measure_path_gain_db(p, f_if, vpeak_from_dbm(dbm), rng, opts);
}

void scan(const char* name, const path::ReceiverPath& p, stats::Rng& rng,
          const path::MeasureOptions& opts, double f_if) {
  std::printf("%-34s", name);
  for (double dbm : {-45.0, -35.0, -27.0, -23.0, -20.0}) {
    std::printf(" %8.2f", gain_at(p, dbm, rng, opts, f_if));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("== Fig. 3: gain errors masked at mid-amplitude, caught at the "
              "boundaries ==\n\n");
  benchtool::BenchReport report("fig3_composition_boundary");

  const auto nominal_cfg = path::reference_path_config();
  path::MeasureOptions opts;
  opts.digital_record = benchtool::scaled_record(2048, 512);
  const double f_if = path::coherent_if_freq(nominal_cfg, opts, 400e3);

  // Block A (+2 dB high) masked by Block B (-2 dB low): composed mid-point
  // gain looks nominal.
  auto masked_cfg = nominal_cfg;
  masked_cfg.amp.gain_db = stats::Uncertain::exact(17.0);
  masked_cfg.mixer.conv_gain_db = stats::Uncertain::exact(8.0);

  // The opposite skew: front end 2 dB low.
  auto weak_cfg = nominal_cfg;
  weak_cfg.amp.gain_db = stats::Uncertain::exact(13.0);
  weak_cfg.mixer.conv_gain_db = stats::Uncertain::exact(12.0);

  const path::ReceiverPath nominal(nominal_cfg);
  const path::ReceiverPath masked(masked_cfg);
  const path::ReceiverPath weak(weak_cfg);
  stats::Rng rng(5);

  report.phase_start("gain_scans");
  std::printf("path gain (dB) vs input level (dBm):\n%-34s", "");
  for (double dbm : {-45.0, -35.0, -27.0, -23.0, -20.0}) std::printf(" %8.1f", dbm);
  std::printf("\n");
  scan("nominal path", nominal, rng, opts, f_if);
  scan("A +2 dB masked by B -2 dB", masked, rng, opts, f_if);
  scan("A -2 dB masked by B +2 dB", weak, rng, opts, f_if);
  report.phase_end();

  // Boundary check: compression onset (input P1dB) moves with the front-end
  // gain error even though the mid-amplitude gain matches.
  report.phase_start("p1db_boundary");
  const double p_nom = path::measure_path_p1db_dbm(nominal, f_if, rng, opts);
  const double p_masked = path::measure_path_p1db_dbm(masked, f_if, rng, opts);
  const double p_weak = path::measure_path_p1db_dbm(weak, f_if, rng, opts);
  report.phase_end();
  std::printf("\ninput-referred P1dB: nominal %.2f dBm | A+2dB %.2f dBm | A-2dB %.2f dBm\n",
              p_nom, p_masked, p_weak);
  report.add_scalar("p1db_nominal_dbm", p_nom);
  report.add_scalar("p1db_masked_dbm", p_masked);
  report.add_scalar("p1db_weak_dbm", p_weak);

  // Low-amplitude boundary: SNR at minimum signal level. The check only
  // bites when the noise added *after* Block A dominates (a real receiver's
  // regime), so the variant uses a quiet LO, a wide digitiser and a noisy
  // mixer: then the weak front end hands the mixer a smaller signal and the
  // composed SNR drops even though the mid-amplitude gain matched.
  auto sensitive = [](path::PathConfig c) {
    c.adc.bits = 18;
    c.lo.phase_noise_rad = stats::Uncertain::exact(1e-5);
    c.mixer.nf_db = stats::Uncertain::exact(15.0);
    return c;
  };
  auto snr_at = [&](const path::PathConfig& c, stats::Rng& r) {
    const path::ReceiverPath p(sensitive(c));
    return path::measure_spectrum_report(p, f_if, vpeak_from_dbm(-75.0), r, opts)
        .snr_db;
  };
  report.phase_start("snr_boundary");
  const double snr_nom = snr_at(nominal_cfg, rng);
  const double snr_masked = snr_at(masked_cfg, rng);
  const double snr_weak = snr_at(weak_cfg, rng);
  report.phase_end();
  std::printf("SNR at -75 dBm input (noise-limited variant):\n"
              "  nominal %.1f dB | A+2dB/B-2dB %.1f dB | A-2dB/B+2dB %.1f dB\n",
              snr_nom, snr_masked, snr_weak);
  report.add_scalar("snr_nominal_db", snr_nom);
  report.add_scalar("snr_masked_db", snr_masked);
  report.add_scalar("snr_weak_db", snr_weak);

  std::printf("\nReading: all three paths show the same mid-amplitude gain, but the\n"
              "saturation boundary (P1dB) shifts ~2 dB with the front-end error and\n"
              "the low-amplitude SNR drops for the weak front end — the paper's\n"
              "reason to check SNR at the min and max amplitudes when gains are\n"
              "tested as one composed parameter.\n");
  return 0;
}
