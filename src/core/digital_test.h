// Test synthesis for the digital filter through the analog path
// (the paper's secs. 4.1 and 5).
//
// The FIR filter is tested with a multi-tone sine propagated from the
// primary input through the (noisy, nonlinear) analog front end. Faults are
// detected by comparing each faulty output spectrum with the good-circuit
// spectrum within a noise-derived tolerance mask; bins near the stimulus
// tones (where the propagated-signal uncertainty is highest) and bins taken
// by the path's own known spurs are excluded from the comparison.
#pragma once

#include <cstdint>
#include <vector>

#include "core/attr_models.h"
#include "digital/fault_sim.h"
#include "digital/fir.h"
#include "dsp/spectrum.h"
#include "dsp/tonegen.h"
#include "path/path_graph.h"
#include "stats/rng.h"

namespace msts::core {

/// Knobs of the digital test synthesis.
struct DigitalTestOptions {
  std::size_t record = 512;           ///< Digital samples per pattern set.
  std::size_t num_tones = 2;          ///< Multi-tone stimulus order.
  double mask_margin_db = 12.0;       ///< Detection threshold above the mask base.
  double adc_fullscale_fraction = 0.7;///< Composite peak target at the ADC.
  /// Instrument dynamic range: the mask never reaches further than this
  /// below the stimulus tones. A mixed-signal tester digitises the response
  /// (paper sec. 5); spectral content 15+ bits below the carrier is not a
  /// usable fault signature on any real instrument.
  double tester_dynamic_range_db = 110.0;
  dsp::WindowType window = dsp::WindowType::kBlackmanHarris4;
};

/// A synthesised digital-filter test.
struct DigitalTestPlan {
  std::vector<double> if_freqs;        ///< Tone frequencies at the digital IF.
  std::vector<dsp::Tone> rf_tones;     ///< Stimulus at the primary RF input.
  double per_tone_adc_vpeak = 0.0;     ///< Per-tone amplitude at the ADC input.
  double expected_filter_in_snr_db = 0.0;  ///< From attribute propagation.
  double expected_filter_in_sfdr_db = 0.0; ///< Worst known spur vs tones.
  std::vector<double> mask_power_db;   ///< Per-bin detection threshold (dB).
  std::vector<bool> excluded;          ///< Per-bin exclusion flags.
  std::size_t record = 0;
  dsp::WindowType window = dsp::WindowType::kBlackmanHarris4;
};

/// Result of a fault-detection campaign on the filter netlist.
struct CampaignResult {
  std::size_t total = 0;
  std::size_t detected = 0;
  std::vector<bool> detected_flags;

  double coverage() const {
    return total == 0 ? 0.0 : static_cast<double>(detected) / static_cast<double>(total);
  }
};

/// Synthesises and executes digital-filter tests for a path graph. The
/// filter under test is the graph's FIR block; the stimulus sits at the
/// first mixer's LO frequency, inside the first LPF's pass-band.
class DigitalTester {
 public:
  explicit DigitalTester(const path::PathGraphConfig& graph);

  /// Chooses tone placement and amplitudes, propagates the stimulus through
  /// the attribute model, and derives the detection mask.
  DigitalTestPlan plan(const DigitalTestOptions& options) const;

  /// The gate-level device under test (explicit-branch netlist + fault set).
  const digital::FirCircuit& fir() const { return fir_; }
  const digital::Netlist& netlist() const { return expanded_; }
  const digital::Bus& input_bus() const { return input_; }
  const digital::Bus& output_bus() const { return output_; }
  const std::vector<digital::Fault>& faults() const { return faults_; }

  /// Ideal ADC code stimulus (exact tones, no analog impairments): the
  /// "exact inputs known" regime of sec. 5.
  std::vector<std::int64_t> ideal_codes(const DigitalTestPlan& plan) const;

  /// Realistic stimulus: the plan's RF tones run through a concrete path
  /// (noise, nonlinearity, INL, offset included); returns the ADC codes.
  std::vector<std::int64_t> path_codes(const DigitalTestPlan& plan,
                                       const path::PathGraph& path,
                                       stats::Rng& noise_rng) const;

  /// Exact-compare campaign (any output-bit mismatch counts as detection).
  CampaignResult exact_campaign(std::span<const std::int64_t> codes,
                                std::span<const digital::Fault> faults) const;

  /// Spectral campaign: every machine, good and faulty, driven by
  /// `stimulus_codes` (realistic stimulus); detection per the plan's mask.
  /// The good reference is the mask itself, which plan() built from a noisy
  /// run of the nominal path; `reference_codes` is only checked to span the
  /// plan's record. Also reports whether the fault-free circuit under the
  /// realistic stimulus stays inside the mask (a false positive there is
  /// digital-test yield loss).
  struct SpectralOutcome {
    CampaignResult result;
    bool good_circuit_flagged = false;  ///< Fault-free machine outside mask.
  };
  SpectralOutcome spectral_campaign(const DigitalTestPlan& plan,
                                    std::span<const std::int64_t> reference_codes,
                                    std::span<const std::int64_t> stimulus_codes,
                                    std::span<const digital::Fault> faults) const;

  /// Converts a filter-output stream to volts for spectral comparison.
  std::vector<double> output_volts(std::span<const std::int64_t> filter_out) const;

  /// Digital (post-decimation) sample rate of the path under test.
  double digital_fs() const { return graph().digital_fs(); }

 private:
  const path::PathGraphConfig& graph() const { return model_.graph(); }

  PathAttrModel model_;
  digital::FirCircuit fir_;
  digital::Netlist expanded_;
  digital::Bus input_;
  digital::Bus output_;
  std::vector<digital::Fault> faults_;
};

}  // namespace msts::core
