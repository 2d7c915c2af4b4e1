// Tests for the end-to-end test-plan synthesizer (core/synthesizer.h).
#include "core/synthesizer.h"

#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "check/yield_quadrature.h"
#include "obs/config.h"
#include "obs/registry.h"

namespace msts::core {
namespace {

path::PathConfig cfg() { return path::reference_path_config(); }

TEST(TestSynthesizer, PlanCoversTableOneParameterSet) {
  const TestSynthesizer synth(cfg());
  const auto plan = synth.synthesize();
  ASSERT_GE(plan.size(), 15u);

  auto find = [&](const std::string& module, const std::string& param) -> const PlannedTest* {
    for (const auto& t : plan) {
      if (t.module == module && t.parameter == param) return &t;
    }
    return nullptr;
  };
  // Table 1 rows.
  EXPECT_NE(find("amp", "Gain"), nullptr);
  EXPECT_NE(find("amp", "IIP3"), nullptr);
  EXPECT_NE(find("amp", "DC offset"), nullptr);
  EXPECT_NE(find("amp", "HD3"), nullptr);
  EXPECT_NE(find("mixer", "Gain"), nullptr);
  EXPECT_NE(find("mixer", "IIP3"), nullptr);
  EXPECT_NE(find("mixer", "LO isolation"), nullptr);
  EXPECT_NE(find("mixer", "NF"), nullptr);
  EXPECT_NE(find("mixer", "P1dB"), nullptr);
  EXPECT_NE(find("lo", "Frequency error"), nullptr);
  EXPECT_NE(find("lo", "Phase noise"), nullptr);
  EXPECT_NE(find("lpf", "Passband gain"), nullptr);
  EXPECT_NE(find("lpf", "f_c"), nullptr);
  EXPECT_NE(find("lpf", "Stopband gain"), nullptr);
  EXPECT_NE(find("lpf", "Dynamic range"), nullptr);
  EXPECT_NE(find("adc", "Offset error"), nullptr);
  EXPECT_NE(find("adc", "INL/DNL"), nullptr);
  EXPECT_NE(find("adc", "NF / DR"), nullptr);
}

TEST(TestSynthesizer, MostTestsTranslateWithoutDft) {
  // The abstract's claim: test translation yields a "precipitous reduction
  // in DFT requirements" — most parameters must not need test points.
  const TestSynthesizer synth(cfg());
  const auto plan = synth.synthesize();
  std::size_t translatable = 0;
  std::size_t dft = 0;
  for (const auto& t : plan) {
    (t.translatable ? translatable : dft) += 1;
  }
  EXPECT_GT(translatable, 2 * dft);
  EXPECT_GT(dft, 0u);  // and the analysis does find the real DFT cases
}

TEST(TestSynthesizer, StudiesAttachedToTableTwoParameters) {
  const TestSynthesizer synth(cfg());
  const auto plan = synth.synthesize();
  std::size_t with_study = 0;
  for (const auto& t : plan) {
    if (t.has_study) {
      ++with_study;
      ASSERT_EQ(t.study.rows.size(), 3u);
    }
  }
  EXPECT_EQ(with_study, 3u);  // IIP3, P1dB, f_c
}

TEST(TestSynthesizer, AdaptiveShrinksIip3Study) {
  const TestSynthesizer adaptive(cfg(), true);
  const TestSynthesizer nominal(cfg(), false);
  const auto sa = adaptive.study_mixer_iip3();
  const auto sn = nominal.study_mixer_iip3();
  EXPECT_LT(sa.error_wc, sn.error_wc);
  // Smaller error -> smaller losses at the Tol threshold.
  EXPECT_LE(sa.row("Tol").outcome.fault_coverage_loss,
            sn.row("Tol").outcome.fault_coverage_loss);
}

TEST(TestSynthesizer, TableTwoRowsFollowThePattern) {
  const TestSynthesizer synth(cfg());
  for (const auto& study : {synth.study_mixer_p1db(), synth.study_mixer_iip3(),
                            synth.study_lpf_cutoff()}) {
    const auto& tol = study.row("Tol").outcome;
    const auto& loose = study.row("Tol-Err").outcome;
    const auto& tight = study.row("Tol+Err").outcome;
    EXPECT_NEAR(loose.yield_loss, 0.0, 1e-9) << study.parameter;
    EXPECT_NEAR(tight.fault_coverage_loss, 0.0, 1e-9) << study.parameter;
    EXPECT_GE(loose.fault_coverage_loss, tol.fault_coverage_loss) << study.parameter;
    EXPECT_GE(tight.yield_loss, tol.yield_loss) << study.parameter;
  }
}

TEST(TestSynthesizer, TableTwoLossesArePinned) {
  // EXPERIMENTS.md Table 2: FCL / YL of the adaptive reference-path studies
  // (uniform worst-case error). evaluate_test is exact, so these can only
  // move on purpose. Each literal also agrees with the 200001-point
  // quadrature reference and rounds to the one-decimal percentage printed
  // in the table (x 10, e.g. 441 for 44.1 %).
  struct Pin {
    const char* parameter;
    const char* label;
    double fcl;
    double yl;
    long fcl_permille;
    long yl_permille;
  };
  const Pin pins[] = {
      {"mixer.P1dB", "Tol", 0.44075960436592648, 0.18385737062934532, 441, 184},
      {"mixer.P1dB", "Tol-Err", 0.94075943923447014, 0.0, 941, 0},
      {"mixer.P1dB", "Tol+Err", 0.0, 0.6737704751022946, 0, 674},
      {"mixer.IIP3", "Tol", 0.41118694380569865, 0.09615646549109505, 411, 96},
      {"mixer.IIP3", "Tol-Err", 0.91113915930618583, 0.0, 911, 0},
      {"mixer.IIP3", "Tol+Err", 0.0, 0.51184593189668148, 0, 512},
      {"lpf.f_c", "Tol", 0.34801256277699083, 0.073815146000168003, 348, 74},
      {"lpf.f_c", "Tol-Err", 0.84465720527114863, 0.0, 845, 0},
      {"lpf.f_c", "Tol+Err", 0.0, 0.49609314867787446, 0, 496},
  };
  const TestSynthesizer synth(cfg(), true);
  const ParameterStudy studies[] = {synth.study_mixer_p1db(), synth.study_mixer_iip3(),
                                    synth.study_lpf_cutoff()};
  for (const Pin& pin : pins) {
    const ParameterStudy* study = nullptr;
    for (const ParameterStudy& s : studies) {
      if (s.parameter == pin.parameter) study = &s;
    }
    ASSERT_NE(study, nullptr) << pin.parameter;
    const ThresholdRow& row = study->row(pin.label);
    SCOPED_TRACE(std::string(pin.parameter) + " " + pin.label);
    EXPECT_NEAR(row.outcome.fault_coverage_loss, pin.fcl, 1e-9);
    EXPECT_NEAR(row.outcome.yield_loss, pin.yl, 1e-9);

    const stats::TestOutcome ref = check::evaluate_test_quadrature(
        study->population, study->spec, row.threshold,
        stats::ErrorModel::uniform(study->error_wc), 200001);
    EXPECT_NEAR(pin.fcl, ref.fault_coverage_loss, 5e-8);
    EXPECT_NEAR(pin.yl, ref.yield_loss, 5e-8);
    EXPECT_EQ(std::lround(1000.0 * pin.fcl), pin.fcl_permille);
    EXPECT_EQ(std::lround(1000.0 * pin.yl), pin.yl_permille);
  }
}

TEST(TestSynthesizer, LossesStayExactForSpecsFarInTheTail) {
  // Specs 9 sigma from the nominals: the faulty parts sit in a ~1e-19 tail
  // right below the limit, and Thr = Tol-Err lets the error disguise most
  // of them. An integration window truncated at 8 sigma sees no faulty
  // mass here at all.
  const TestSynthesizer synth(cfg(), true, 9.0);
  for (const auto& study : {synth.study_mixer_p1db(), synth.study_mixer_iip3(),
                            synth.study_lpf_cutoff()}) {
    EXPECT_GT(study.row("Tol").outcome.defect_rate, 0.0) << study.parameter;
    EXPECT_GT(study.row("Tol-Err").outcome.fault_coverage_loss, 0.5) << study.parameter;
  }
}

TEST(TestSynthesizer, CanonicalPlanPropagationCountIsPinned) {
  // The exact attribute-propagation work of one canonical adaptive plan:
  // every translator analysis runs once per synthesize(), and LO isolation
  // and amp HD3 share one forward of the linear-drive probe (recomputing
  // per row and per study would take 40).
  const obs::Config saved = obs::current_config();
  obs::Config config;
  config.metrics = true;
  obs::configure(config);
  const TestSynthesizer synth(cfg(), true);
  obs::Registry::instance().reset();
  (void)synth.synthesize();
  std::uint64_t forwards = 0;
  for (const obs::Metric& m : obs::Registry::instance().snapshot()) {
    if (m.name == "core.attr.block_forwards") forwards = m.count;
  }
  obs::Registry::instance().reset();
  obs::configure(saved);
  EXPECT_EQ(forwards, 22u);
}

TEST(TestSynthesizer, FormattersProduceReadableTables) {
  const TestSynthesizer synth(cfg());
  const auto plan = synth.synthesize();
  const std::string table = format_plan(plan);
  EXPECT_NE(table.find("module"), std::string::npos);
  EXPECT_NE(table.find("mixer"), std::string::npos);
  EXPECT_NE(table.find("DFT required"), std::string::npos);

  const std::string study = format_study(synth.study_mixer_iip3());
  EXPECT_NE(study.find("Tol-Err"), std::string::npos);
  EXPECT_NE(study.find("FCL"), std::string::npos);
}

}  // namespace
}  // namespace msts::core
