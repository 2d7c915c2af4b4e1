#include "core/synthesizer.h"

#include <cmath>
#include <iomanip>
#include <optional>
#include <sstream>

#include "base/require.h"
#include "obs/registry.h"
#include "obs/span.h"

namespace msts::core {

TestSynthesizer::TestSynthesizer(const path::PathGraphConfig& graph, bool adaptive,
                                 double spec_sigmas)
    : translator_(graph), adaptive_(adaptive), spec_sigmas_(spec_sigmas) {
  MSTS_REQUIRE(std::isfinite(spec_sigmas) && spec_sigmas > 0.0,
               "spec placement must be positive and finite");
}

namespace {

stats::Normal population_of(const stats::Uncertain& param) {
  // Toolkit convention: tolerance = 3 sigma. Guard against exact parameters.
  const double sigma = (param.sigma > 0.0) ? param.sigma : 1e-9;
  return stats::Normal{param.nominal, sigma};
}

const path::BlockConfig* first_block(const path::PathGraphConfig& g,
                                     path::BlockKind kind) {
  const auto idx = g.index_of(kind);
  return idx ? &g.blocks[*idx] : nullptr;
}

// The translator analyses of one plan, each computed on first use and
// shared by every row and study after it. An analysis is a pure function of
// the graph, so the shared result is the bit pattern a recomputation would
// give. The memo lives on synthesize()'s stack, never in the Translator:
// Monte-Carlo trial threads share a Translator as const.
class PlanAnalyses {
 public:
  PlanAnalyses(const Translator& t, bool adaptive) : t_(t), adaptive_(adaptive) {}

  const TranslationAnalysis& path_gain() {
    return once(path_gain_, [&] { return t_.analyze_path_gain(); });
  }
  const TranslationAnalysis& path_nf() {
    return once(path_nf_, [&] { return t_.analyze_path_nf(); });
  }
  const TranslationAnalysis& mixer_iip3() {
    return once(mixer_iip3_, [&] { return t_.analyze_mixer_iip3(adaptive_); });
  }
  const TranslationAnalysis& mixer_p1db() {
    return once(mixer_p1db_, [&] { return t_.analyze_mixer_p1db(); });
  }
  const TranslationAnalysis& lpf_cutoff() {
    return once(lpf_cutoff_, [&] { return t_.analyze_lpf_cutoff(); });
  }
  const TranslationAnalysis& lo_freq_error() {
    return once(lo_freq_error_, [&] { return t_.analyze_lo_freq_error(); });
  }
  const TranslationAnalysis& amp_offset() {
    return once(amp_offset_, [&] { return t_.analyze_amp_offset(); });
  }
  const TranslationAnalysis& adc_offset() {
    return once(adc_offset_, [&] { return t_.analyze_adc_offset(); });
  }
  // LO isolation and amp HD3 read the same forward of the linear-drive probe.
  const TranslationAnalysis& mixer_lo_isolation() {
    return once(lo_isolation_, [&] { return t_.analyze_mixer_lo_isolation(probe()); });
  }
  const TranslationAnalysis& amp_hd3() {
    return once(amp_hd3_, [&] { return t_.analyze_amp_hd3(probe()); });
  }

 private:
  template <class T, class Compute>
  static const T& once(std::optional<T>& slot, Compute compute) {
    if (!slot) slot.emplace(compute());
    return *slot;
  }
  const SignalAttributes& probe() {
    return once(probe_, [&] { return t_.linear_probe_response(); });
  }

  const Translator& t_;
  bool adaptive_;
  std::optional<SignalAttributes> probe_;
  std::optional<TranslationAnalysis> path_gain_, path_nf_, mixer_iip3_, mixer_p1db_,
      lpf_cutoff_, lo_freq_error_, amp_offset_, adc_offset_, lo_isolation_, amp_hd3_;
};

}  // namespace

ParameterStudy TestSynthesizer::study_mixer_p1db() const {
  return study_mixer_p1db(translator_.analyze_mixer_p1db());
}

ParameterStudy TestSynthesizer::study_mixer_iip3() const {
  return study_mixer_iip3(translator_.analyze_mixer_iip3(adaptive_));
}

ParameterStudy TestSynthesizer::study_lpf_cutoff() const {
  return study_lpf_cutoff(translator_.analyze_lpf_cutoff());
}

ParameterStudy TestSynthesizer::study_mixer_p1db(
    const TranslationAnalysis& analysis) const {
  obs::Span span("core.study_mixer_p1db");
  const auto* mixer = first_block(graph(), path::BlockKind::kMixer);
  MSTS_REQUIRE(mixer != nullptr, "study needs a mixer block");
  const auto& p = mixer->mixer.p1db_in_dbm;
  return threshold_study(
      "mixer.P1dB", "dBm", population_of(p),
      stats::SpecLimits::at_least(p.nominal - spec_sigmas_ * population_of(p).sigma),
      analysis.error);
}

ParameterStudy TestSynthesizer::study_mixer_iip3(
    const TranslationAnalysis& analysis) const {
  obs::Span span("core.study_mixer_iip3");
  const auto* mixer = first_block(graph(), path::BlockKind::kMixer);
  MSTS_REQUIRE(mixer != nullptr, "study needs a mixer block");
  const auto& p = mixer->mixer.iip3_dbm;
  return threshold_study(
      "mixer.IIP3", "dBm", population_of(p),
      stats::SpecLimits::at_least(p.nominal - spec_sigmas_ * population_of(p).sigma),
      analysis.error);
}

ParameterStudy TestSynthesizer::study_lpf_cutoff(
    const TranslationAnalysis& analysis) const {
  obs::Span span("core.study_lpf_cutoff");
  const auto* lpf = first_block(graph(), path::BlockKind::kLpf);
  MSTS_REQUIRE(lpf != nullptr, "study needs an LPF block");
  const auto& p = lpf->lpf.cutoff_hz;
  const double half = spec_sigmas_ * population_of(p).sigma;
  return threshold_study("lpf.f_c", "Hz", population_of(p),
                         stats::SpecLimits::window(p.nominal - half, p.nominal + half),
                         analysis.error);
}

std::vector<PlannedTest> TestSynthesizer::synthesize() const {
  obs::Span span("core.synthesize");
  obs::counter_add("core.synthesize.calls");
  PlanAnalyses analyses(translator_, adaptive_);
  std::vector<PlannedTest> plan;

  auto add = [&](const std::string& module, const std::string& parameter,
                 const std::string& unit, const TranslationAnalysis& a) {
    PlannedTest& t = plan.emplace_back();
    t.module = module;
    t.parameter = parameter;
    t.unit = unit;
    t.method = a.method;
    t.translatable = a.translatable;
    t.error = a.error;
    t.formula = a.formula;
    return plan.size() - 1;
  };

  // The plan walks the graph's block list in order, emitting each block's
  // Table 1 rows (on the canonical receiver: amp, mixer, lo, lpf, adc).
  // Repeated kinds are disambiguated with "#2", "#3"... suffixes, and the
  // threshold studies (which analyze the first block of their kind) attach
  // to the first occurrence only.
  const bool has_mixer = graph().index_of(path::BlockKind::kMixer).has_value();
  std::size_t seen[5] = {0, 0, 0, 0, 0};
  std::size_t lo_seen = 0;
  auto numbered = [](std::string name, std::size_t n) {
    if (n > 1) name += "#" + std::to_string(n);
    return name;
  };

  for (const path::BlockConfig& b : graph().blocks) {
    const std::size_t n = ++seen[static_cast<std::size_t>(b.kind)];
    const std::string m = numbered(path::to_string(b.kind), n);
    switch (b.kind) {
      case path::BlockKind::kAmp:
        // Amp rows other than the composed gain probe through the mixer; on
        // a mixerless graph they have no translated form.
        add(m, "Gain", "dB", analyses.path_gain());
        if (has_mixer) {
          add(m, "IIP3", "dBm", analyses.mixer_iip3());
          add(m, "DC offset", "V", analyses.amp_offset());
          add(m, "HD3", "dBc", analyses.amp_hd3());
        }
        break;

      case path::BlockKind::kMixer: {
        add(m, "Gain", "dB", analyses.path_gain());
        {
          const auto idx = add(m, "IIP3", "dBm", analyses.mixer_iip3());
          if (n == 1) {
            plan[idx].has_study = true;
            plan[idx].study = study_mixer_iip3(analyses.mixer_iip3());
          }
        }
        add(m, "LO isolation", "dB", analyses.mixer_lo_isolation());
        add(m, "NF", "dB", analyses.path_nf());
        {
          const auto idx = add(m, "P1dB", "dBm", analyses.mixer_p1db());
          if (n == 1) {
            plan[idx].has_study = true;
            plan[idx].study = study_mixer_p1db(analyses.mixer_p1db());
          }
        }

        // The mixer's LO is tested through the same block.
        const std::string lo_m = numbered("lo", ++lo_seen);
        add(lo_m, "Frequency error", "ppm", analyses.lo_freq_error());
        {
          // Phase noise: visible as the composed SNR skirt at the output.
          TranslationAnalysis a;
          a.method = TranslationMethod::kComposition;
          a.error = stats::Uncertain(0.0, 1.0, 0.33);
          a.formula = "phase-noise skirt folded into the composed SNR measurement";
          add(lo_m, "Phase noise", "dB", a);
        }
        break;
      }

      case path::BlockKind::kLpf: {
        add(m, "Passband gain", "dB", analyses.path_gain());
        {
          const auto idx = add(m, "f_c", "Hz", analyses.lpf_cutoff());
          if (n == 1) {
            plan[idx].has_study = true;
            plan[idx].study = study_lpf_cutoff(analyses.lpf_cutoff());
          }
        }
        {
          TranslationAnalysis a;
          a.method = TranslationMethod::kPropagation;
          a.error = graph().analog_flatness_db;
          a.formula = "stop-band gain from out-of-band tone vs pass-band reference";
          add(m, "Stopband gain", "dB", a);
        }
        add(m, "Dynamic range", "dB", analyses.path_nf());
        break;
      }

      case path::BlockKind::kAdc: {
        add(m, "Offset error", "V", analyses.adc_offset());
        {
          TranslationAnalysis a;
          a.method = TranslationMethod::kPropagation;
          a.error = stats::Uncertain(0.0, 0.3, 0.1);  // LSB
          a.formula = "INL/DNL from output-spectrum distortion of a propagated "
                      "near-full-scale tone";
          add(m, "INL/DNL", "LSB", a);
        }
        add(m, "NF / DR", "dB", analyses.path_nf());
        break;
      }

      case path::BlockKind::kFir:
        // Deterministic digital block: nothing to test analogically (the
        // paper's "no added noise" observation); covered by scan/BIST.
        break;
    }
  }

  // The service caches the plan as returned: drop the growth slack.
  plan.shrink_to_fit();
  return plan;
}

std::string format_plan(const std::vector<PlannedTest>& plan) {
  std::ostringstream os;
  os << std::left << std::setw(7) << "module" << std::setw(17) << "parameter"
     << std::setw(14) << "method" << std::setw(14) << "error(wc)" << "computation\n";
  os << std::string(96, '-') << "\n";
  for (const PlannedTest& t : plan) {
    std::ostringstream err;
    if (t.translatable) {
      err << std::setprecision(3) << t.error.wc << " " << t.unit;
    } else {
      err << "-";
    }
    os << std::left << std::setw(7) << t.module << std::setw(17) << t.parameter
       << std::setw(14) << to_string(t.method) << std::setw(14) << err.str()
       << t.formula << "\n";
  }
  return os.str();
}

std::string format_study(const ParameterStudy& study) {
  std::ostringstream os;
  os << study.parameter << " (" << study.unit << "): population N("
     << study.population.mean << ", " << study.population.sigma
     << "), err(wc) = " << study.error_wc << "\n";
  os << std::left << std::setw(10) << "Thr" << std::right << std::setw(10) << "FCL %"
     << std::setw(10) << "YL %" << "\n";
  for (const ThresholdRow& r : study.rows) {
    os << std::left << std::setw(10) << r.label << std::right << std::fixed
       << std::setprecision(2) << std::setw(10) << 100.0 * r.outcome.fault_coverage_loss
       << std::setw(10) << 100.0 * r.outcome.yield_loss << "\n";
    os.unsetf(std::ios::fixed);
  }
  return os.str();
}

}  // namespace msts::core
