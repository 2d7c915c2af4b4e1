#include "core/spec_backprop.h"

#include <cmath>
#include <sstream>

#include "analog/noise.h"
#include "base/require.h"
#include "base/units.h"

namespace msts::core {

SpecBackpropResult backpropagate_spec(const path::PathGraphConfig& graph,
                                      const SystemRequirements& req) {
  MSTS_REQUIRE(req.max_path_gain_db > req.min_path_gain_db,
               "gain window must be non-empty");
  path::validate(graph);
  using path::BlockKind;
  const std::size_t adc_index = graph.first_index(BlockKind::kAdc);
  MSTS_REQUIRE(adc_index == 3 && graph.blocks[0].kind == BlockKind::kAmp &&
                   graph.blocks[1].kind == BlockKind::kMixer &&
                   graph.blocks[2].kind == BlockKind::kLpf,
               "spec back-propagation needs exactly an amp -> mixer -> lpf chain "
               "in front of the ADC");
  const analog::AmpParams& amp = graph.blocks[0].amp;
  const analog::MixerParams& mixer = graph.blocks[1].mixer;
  const analog::LpfParams& lpf = graph.blocks[2].lpf;
  const analog::AdcParams& adc = graph.blocks[adc_index].adc;
  SpecBackpropResult out;

  // ---- Gain allocation ----------------------------------------------------
  struct GainBlock {
    const char* name;
    double nominal;
    double tol;
  };
  const GainBlock gains[] = {
      {"amp", amp.gain_db.nominal, amp.gain_db.wc},
      {"mixer", mixer.conv_gain_db.nominal, mixer.conv_gain_db.wc},
      {"lpf", lpf.passband_gain_db.nominal, lpf.passband_gain_db.wc},
  };
  double nominal_sum = 0.0;
  double tol_sum = 0.0;
  for (const auto& g : gains) {
    nominal_sum += g.nominal;
    tol_sum += g.tol;
  }
  const double lo_margin = nominal_sum - req.min_path_gain_db;
  const double hi_margin = req.max_path_gain_db - nominal_sum;
  if (lo_margin <= 0.0 || hi_margin <= 0.0) {
    out.feasible = false;
    out.note = "nominal path gain sits outside the required window";
  }

  // ---- Noise budget ---------------------------------------------------------
  // Input SNR at the reference level over the digital Nyquist band.
  const double band = graph.digital_fs() / 2.0;
  const double n_src = analog::kBoltzmann * analog::kT0 * band * kRefImpedance;  // V^2
  const double p_in_v2 = std::pow(vrms_from_dbm(req.input_level_dbm), 2.0);
  const double snr_in_db = db_from_power_ratio(p_in_v2 / n_src);
  const double nf_budget_db = snr_in_db - req.min_output_snr_db;
  out.path_nf_max_db = nf_budget_db;
  if (nf_budget_db <= 0.0) {
    out.feasible = false;
    out.note += (out.note.empty() ? "" : "; ");
    out.note += "output SNR requirement exceeds the input SNR";
  }

  // Friis terms with nominal gains. On matched impedances a voltage gain of
  // x dB is a power gain of 10^(x/10).
  auto pgain = [](double vdb) { return std::pow(10.0, vdb / 10.0); };
  const double gp_amp = pgain(amp.gain_db.nominal);
  const double gp_mix = pgain(mixer.conv_gain_db.nominal);
  const double gp_lpf = pgain(lpf.passband_gain_db.nominal);

  const double f_amp_nom = power_ratio_from_db(amp.nf_db.nominal);
  const double f_mix_nom = power_ratio_from_db(mixer.nf_db.nominal);

  // ADC quantisation as an equivalent noise factor at its own input.
  const double lsb = 2.0 * adc.vref / static_cast<double>(1ll << adc.bits);
  const double n_q = lsb * lsb / 12.0;
  const double f_adc = 1.0 + n_q / (n_src * gp_amp * gp_mix * gp_lpf);

  const double f_budget = power_ratio_from_db(std::max(nf_budget_db, 0.01));
  const double f_total_nom = f_amp_nom + (f_mix_nom - 1.0) / gp_amp +
                             (f_adc - 1.0) / (gp_amp * gp_mix * gp_lpf);
  if (f_total_nom > f_budget) {
    out.feasible = false;
    out.note += (out.note.empty() ? "" : "; ");
    out.note += "nominal cascade noise already exceeds the budget";
  }

  // Per-block ceilings with the others at nominal.
  const double f_amp_max =
      f_budget - (f_mix_nom - 1.0) / gp_amp - (f_adc - 1.0) / (gp_amp * gp_mix * gp_lpf);
  const double f_mix_max =
      1.0 + gp_amp * (f_budget - f_amp_nom -
                      (f_adc - 1.0) / (gp_amp * gp_mix * gp_lpf));

  for (const auto& g : gains) {
    BlockBudget b;
    b.block = g.name;
    b.nominal_gain_db = g.nominal;
    const double share = (tol_sum > 0.0) ? g.tol / tol_sum : 1.0 / 3.0;
    b.gain_window_db = stats::SpecLimits::window(g.nominal - share * lo_margin,
                                                 g.nominal + share * hi_margin);
    if (std::string(g.name) == "amp") {
      b.nf_max_db = (f_amp_max > 1.0) ? db_from_power_ratio(f_amp_max) : 0.0;
    } else if (std::string(g.name) == "mixer") {
      b.nf_max_db = (f_mix_max > 1.0) ? db_from_power_ratio(f_mix_max) : 0.0;
    } else {
      b.nf_max_db = nf_budget_db;  // noiseless block: unconstrained in practice
    }
    out.blocks.push_back(b);
  }
  return out;
}

std::string format_backprop(const SpecBackpropResult& r) {
  std::ostringstream os;
  os << "spec back-propagation: path NF budget " << r.path_nf_max_db << " dB, "
     << (r.feasible ? "feasible" : ("INFEASIBLE: " + r.note)) << "\n";
  for (const BlockBudget& b : r.blocks) {
    os << "  " << b.block << ": gain in [" << b.gain_window_db.lo << ", "
       << b.gain_window_db.hi << "] dB (nominal " << b.nominal_gain_db
       << "), NF <= " << b.nf_max_db << " dB\n";
  }
  return os.str();
}

}  // namespace msts::core
