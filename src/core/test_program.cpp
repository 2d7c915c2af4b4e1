#include "core/test_program.h"

#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

#include "base/require.h"

namespace msts::core {

std::string to_string(GuardBandPolicy policy) {
  switch (policy) {
    case GuardBandPolicy::kAtTol: return "Thr=Tol";
    case GuardBandPolicy::kMinusErr: return "Thr=Tol-Err";
    case GuardBandPolicy::kPlusErr: return "Thr=Tol+Err";
  }
  return "?";
}

namespace {

stats::SpecLimits apply_policy(const stats::SpecLimits& spec, double err,
                               GuardBandPolicy policy) {
  switch (policy) {
    case GuardBandPolicy::kAtTol: return spec;
    case GuardBandPolicy::kMinusErr: return spec.loosened(err);
    case GuardBandPolicy::kPlusErr: return spec.tightened(err);
  }
  return spec;
}

double margin_of(const stats::SpecLimits& limits, double x) {
  double m = std::numeric_limits<double>::infinity();
  if (std::isfinite(limits.lo)) m = std::min(m, x - limits.lo);
  if (std::isfinite(limits.hi)) m = std::min(m, limits.hi - x);
  return m;
}

}  // namespace

TestProgram::TestProgram(const path::PathGraphConfig& graph, GuardBandPolicy policy,
                         path::MeasureOptions opts)
    : translator_(graph), policy_(policy), opts_(opts) {
  using path::BlockKind;
  const path::PathGraphConfig& g = translator_.model().graph();
  const path::BlockConfig& mixer = g.first(BlockKind::kMixer);
  const path::BlockConfig& lpf = g.first(BlockKind::kLpf);

  // Specs: gain windows from the block nominals; parameter limits at
  // nominal - 2 sigma (the synthesizer's convention).
  auto two_sigma_low = [](const stats::Uncertain& p) {
    return stats::SpecLimits::at_least(p.nominal - 2.0 * p.sigma);
  };

  // --- Step 1: composed path gain (also feeds the adaptive context). -----
  {
    TestStep s;
    s.name = "path_gain";
    s.unit = "dB";
    // Every gain-bearing block, in graph order.
    double nominal = 0.0;
    double tol = 0.0;
    for (const path::BlockConfig& b : g.blocks) {
      const stats::Uncertain* gain = nullptr;
      switch (b.kind) {
        case BlockKind::kAmp: gain = &b.amp.gain_db; break;
        case BlockKind::kMixer: gain = &b.mixer.conv_gain_db; break;
        case BlockKind::kLpf: gain = &b.lpf.passband_gain_db; break;
        case BlockKind::kAdc:
        case BlockKind::kFir: break;
      }
      if (gain == nullptr) continue;
      nominal += gain->nominal;
      tol += gain->wc;
    }
    s.spec = stats::SpecLimits::window(nominal - tol, nominal + tol);
    s.error_budget_wc = translator_.analyze_path_gain().error.wc;
    s.limits = apply_policy(s.spec, s.error_budget_wc, policy_);
    s.measure = [this](const path::PathGraph& p, stats::Rng& rng,
                       TestContext& ctx) {
      const double g = translator_.measure_path_gain_db(p, rng, opts_);
      ctx.path_gain_db = g;
      return g;
    };
    steps_.push_back(std::move(s));
  }

  // --- Step 2: LO frequency error (shared by later computations). --------
  {
    TestStep s;
    s.name = "lo_freq_error";
    s.unit = "ppm";
    const double tol = mixer.lo.freq_error_ppm.wc;
    s.spec = stats::SpecLimits::window(-tol, tol);
    s.error_budget_wc = translator_.analyze_lo_freq_error().error.wc;
    s.limits = apply_policy(s.spec, s.error_budget_wc, policy_);
    s.measure = [this](const path::PathGraph& p, stats::Rng& rng,
                       TestContext& ctx) {
      const double e = translator_.measure_lo_freq_error_ppm(p, rng, opts_);
      ctx.lo_error_ppm = e;
      return e;
    };
    steps_.push_back(std::move(s));
  }

  // --- Step 3: output DC (composed; on this topology it is the ADC offset).
  {
    TestStep s;
    s.name = "output_dc";
    s.unit = "V";
    const double tol = g.first(BlockKind::kAdc).adc.offset_error_v.wc;
    s.spec = stats::SpecLimits::window(-tol, tol);
    s.error_budget_wc = translator_.analyze_adc_offset().error.wc;
    s.limits = apply_policy(s.spec, s.error_budget_wc, policy_);
    s.measure = [this](const path::PathGraph& p, stats::Rng& rng, TestContext&) {
      return path::measure_output_dc_v(p, rng, opts_);
    };
    steps_.push_back(std::move(s));
  }

  // --- Step 4: mixer IIP3 (adaptive, reuses the measured path gain). -----
  {
    TestStep s;
    s.name = "mixer_iip3";
    s.unit = "dBm";
    s.spec = two_sigma_low(mixer.mixer.iip3_dbm);
    s.error_budget_wc = translator_.analyze_mixer_iip3(true).error.wc;
    s.limits = apply_policy(s.spec, s.error_budget_wc, policy_);
    s.measure = [this](const path::PathGraph& p, stats::Rng& rng,
                       TestContext& ctx) {
      if (ctx.path_gain_db) {
        return translator_.measure_mixer_iip3_dbm_with_gain(p, rng, *ctx.path_gain_db,
                                                            opts_);
      }
      return translator_.measure_mixer_iip3_dbm(p, rng, true, opts_);
    };
    steps_.push_back(std::move(s));
  }

  // --- Step 5: mixer P1dB. -------------------------------------------------
  {
    TestStep s;
    s.name = "mixer_p1db";
    s.unit = "dBm";
    s.spec = two_sigma_low(mixer.mixer.p1db_in_dbm);
    s.error_budget_wc = translator_.analyze_mixer_p1db().error.wc;
    s.limits = apply_policy(s.spec, s.error_budget_wc, policy_);
    s.measure = [this](const path::PathGraph& p, stats::Rng& rng, TestContext&) {
      return translator_.measure_mixer_p1db_dbm(p, rng, opts_);
    };
    steps_.push_back(std::move(s));
  }

  // --- Step 6: LPF cutoff. --------------------------------------------------
  {
    TestStep s;
    s.name = "lpf_cutoff";
    s.unit = "Hz";
    const auto& p = lpf.lpf.cutoff_hz;
    s.spec = stats::SpecLimits::window(p.nominal - 2.0 * p.sigma,
                                       p.nominal + 2.0 * p.sigma);
    s.error_budget_wc = translator_.analyze_lpf_cutoff().error.wc;
    s.limits = apply_policy(s.spec, s.error_budget_wc, policy_);
    s.measure = [this](const path::PathGraph& dev, stats::Rng& rng, TestContext&) {
      return translator_.measure_lpf_cutoff_hz(dev, rng, opts_);
    };
    steps_.push_back(std::move(s));
  }

  // --- Step 7: composed SNR (dynamic range / NF proxy). ---------------------
  {
    TestStep s;
    s.name = "output_snr";
    s.unit = "dB";
    s.spec = stats::SpecLimits::at_least(50.0);
    s.error_budget_wc = 1.0;
    s.limits = apply_policy(s.spec, s.error_budget_wc, policy_);
    s.measure = [this](const path::PathGraph& dev, stats::Rng& rng, TestContext&) {
      const double f = translator_.test_if_freq(opts_);
      return path::measure_spectrum_report(dev, f, translator_.linear_drive_vpeak(),
                                           rng, opts_)
          .snr_db;
    };
    steps_.push_back(std::move(s));
  }
}

DeviceResult TestProgram::run(const path::PathGraph& device, stats::Rng& noise_rng,
                              bool stop_on_fail) const {
  DeviceResult out;
  TestContext ctx;
  for (const TestStep& step : steps_) {
    StepResult r;
    r.name = step.name;
    r.unit = step.unit;
    r.measured = step.measure(device, noise_rng, ctx);
    r.pass = step.limits.passes(r.measured);
    r.margin = margin_of(step.limits, r.measured);
    out.steps.push_back(r);
    if (!r.pass) {
      out.pass = false;
      if (out.failed_at.empty()) out.failed_at = step.name;
      if (stop_on_fail) break;
    }
  }
  return out;
}

std::string format_datalog(const DeviceResult& result) {
  std::ostringstream os;
  os << std::left << std::setw(16) << "step" << std::right << std::setw(14)
     << "measured" << std::setw(7) << "unit" << std::setw(8) << "P/F" << std::setw(14)
     << "margin" << "\n";
  for (const StepResult& s : result.steps) {
    os << std::left << std::setw(16) << s.name << std::right << std::setw(14)
       << std::setprecision(5) << s.measured << std::setw(7) << s.unit << std::setw(8)
       << (s.pass ? "PASS" : "FAIL") << std::setw(14) << std::setprecision(3)
       << s.margin << "\n";
  }
  os << "bin: " << (result.pass ? "PASS" : ("FAIL at " + result.failed_at)) << "\n";
  return os.str();
}

}  // namespace msts::core
