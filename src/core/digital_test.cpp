#include "core/digital_test.h"

#include <algorithm>
#include <cmath>

#include "base/require.h"
#include "base/units.h"
#include "dsp/fft.h"
#include "dsp/fir_design.h"
#include "dsp/metrics.h"

namespace msts::core {

namespace {

using path::BlockKind;

digital::FirCircuit build_path_fir(const path::PathGraphConfig& g) {
  const path::BlockConfig& fir = g.first(BlockKind::kFir);
  const auto h = dsp::design_lowpass(fir.fir_taps, fir.fir_cutoff_norm);
  const auto q = dsp::quantize_coefficients(h, fir.fir_coeff_frac_bits);
  return digital::build_fir(q, g.first(BlockKind::kAdc).adc.bits, fir.fir_coeff_frac_bits);
}

// Volts per ADC code.
double adc_lsb(const analog::AdcParams& adc) {
  return 2.0 * adc.vref / static_cast<double>(1ll << adc.bits);
}

}  // namespace

DigitalTester::DigitalTester(const path::PathGraphConfig& graph)
    : model_(graph),
      fir_(build_path_fir(model_.graph())),
      expanded_(fir_.netlist.with_explicit_branches()) {
  for (std::size_t i = 0; i < fir_.input.width(); ++i) {
    input_.bits.push_back(expanded_.inputs()[i]);
  }
  for (std::size_t i = 0; i < fir_.output.width(); ++i) {
    output_.bits.push_back(expanded_.outputs()[i]);
  }
  faults_ = digital::collapsed_faults(expanded_);
}

DigitalTestPlan DigitalTester::plan(const DigitalTestOptions& options) const {
  MSTS_REQUIRE(options.num_tones >= 1, "need at least one tone");
  MSTS_REQUIRE(dsp::is_power_of_two(options.record), "record must be a power of two");
  MSTS_REQUIRE(options.adc_fullscale_fraction > 0.0 &&
                   options.adc_fullscale_fraction <= 0.95,
               "full-scale fraction must be in (0, 0.95]");

  DigitalTestPlan plan;
  plan.record = options.record;
  plan.window = options.window;

  const path::PathGraphConfig& g = graph();
  const path::BlockConfig& fir = g.first(BlockKind::kFir);
  const std::size_t adc_index = g.first_index(BlockKind::kAdc);

  // Tones inside both the LPF pass-band and the FIR pass-band, product-clean.
  const double fs_d = g.digital_fs();
  const double band_hi = 0.8 * std::min(g.first(BlockKind::kLpf).lpf.cutoff_hz.nominal,
                                        fir.fir_cutoff_norm * fs_d);
  plan.if_freqs = dsp::place_test_tones(fs_d, options.record, 0.1 * band_hi, band_hi,
                                        options.num_tones);

  // Composite amplitude: high enough to exercise the sign bit and a wide
  // dynamic range (the paper's rule), below ADC full scale and below the
  // path's saturation boundary.
  plan.per_tone_adc_vpeak = options.adc_fullscale_fraction *
                            g.blocks[adc_index].adc.vref /
                            static_cast<double>(options.num_tones);

  // Refer the required ADC-input level back to the primary input through the
  // nominal gains (translation by propagation of the stimulus).
  plan.rf_tones.clear();
  for (double f_if : plan.if_freqs) {
    const double f_rf = g.first(BlockKind::kMixer).lo.freq_hz + f_if;
    const double pi_amp =
        model_.pi_amplitude_for(adc_index, f_rf, plan.per_tone_adc_vpeak);
    plan.rf_tones.push_back(dsp::Tone{f_rf, pi_amp, 0.0});
  }

  // Attribute propagation to the filter input: expected SNR / SFDR and the
  // known spur locations that must be excluded from detection.
  std::vector<ToneAttr> probe;
  for (const dsp::Tone& t : plan.rf_tones) {
    probe.push_back(ToneAttr{stats::Uncertain::exact(t.freq),
                             stats::Uncertain::exact(t.amplitude),
                             stats::Uncertain::exact(0.0)});
  }
  const SignalAttributes at_filter_in =
      model_.forward_upto(make_stimulus(g.analog_fs, probe), adc_index + 1);
  plan.expected_filter_in_snr_db = at_filter_in.snr_db();
  {
    double tone_amp = 0.0;
    for (const ToneAttr& t : at_filter_in.tones) {
      tone_amp = std::max(tone_amp, t.amplitude.nominal);
    }
    const double spur = std::max(at_filter_in.worst_spur_amplitude(), 1e-15);
    plan.expected_filter_in_sfdr_db = db_from_amplitude_ratio(tone_amp / spur);
  }

  // ---- Detection mask -----------------------------------------------------
  const std::size_t bins = options.record / 2 + 1;
  plan.mask_power_db.assign(bins, -300.0);
  plan.excluded.assign(bins, false);

  // Good-circuit reference spectrum: a full simulation of the *nominal*
  // path with an independent noise seed — the paper's "realistic model of
  // the analog blocks, including varying noise, INL, and offset" good-
  // circuit run. Everything deterministic that the healthy path produces
  // (quantisation texture, INL distortion forests, clock-spur
  // intermodulation, phase-noise skirts) is thereby part of the mask base
  // and is never mistaken for a fault signature.
  const path::PathGraph ref_path(g);
  stats::Rng ref_rng(0xD17E5EEDull ^ options.record);
  analog::Signal ref_rf;
  ref_rf.fs = g.analog_fs;
  ref_rf.samples = dsp::generate_tones(plan.rf_tones, 0.0, g.analog_fs,
                                       plan.record * g.adc_decimation());
  const auto ref_trace = ref_path.run(ref_rf, ref_rng);
  const dsp::Spectrum good(output_volts(ref_trace.filter_out), fs_d, options.window);

  // Per-bin noise estimate at the filter output: white noise at the filter
  // input shaped by |H|^2 (the "spectral analysis of the input patterns"
  // noise estimate of sec. 4.1).
  const double noise_in = at_filter_in.noise_power.nominal;
  const path::PathGraph::FirStage& fir_stage = ref_path.fir();
  const double enbw = dsp::equivalent_noise_bandwidth(options.window);

  const std::size_t lobe = dsp::main_lobe_half_width(options.window);
  auto exclude_around = [&](double freq) {
    const std::size_t k = good.nearest_bin(dsp::alias_frequency(freq, fs_d));
    const std::size_t lo = (k > lobe) ? k - lobe : 0;
    const std::size_t hi = std::min(k + lobe, bins - 1);
    for (std::size_t b = lo; b <= hi; ++b) plan.excluded[b] = true;
  };

  // Exclude: DC lobe, stimulus tone lobes (highest propagated uncertainty),
  // and every known path spur location from the attribute model.
  exclude_around(0.0);
  for (double f : plan.if_freqs) exclude_around(f);
  for (const SpurAttr& s : at_filter_in.spurs) exclude_around(s.freq);

  const double bin_w = fs_d / static_cast<double>(options.record);
  std::vector<double> noise_floor(bins, 0.0);
  for (std::size_t k = 0; k < bins; ++k) {
    const double f = good.freq_of_bin(k);
    // Evaluate |H| across the bin, not only at its centre: near a stop-band
    // null the response varies by tens of dB within one bin and the bin
    // integrates the slope, so the mask must use the bin's maximum.
    double hmag = 0.0;
    for (double df : {-0.5 * bin_w, 0.0, 0.5 * bin_w}) {
      hmag = std::max(hmag, std::abs(dsp::frequency_response_fixed(
                                fir_stage.coeffs, fir_stage.frac_bits, (f + df) / fs_d)));
    }
    double noise_bin =
        2.0 * noise_in * hmag * hmag * enbw / static_cast<double>(options.record);
    // Phase-noise skirts: each tone with a Lorentzian linewidth raises the
    // uncertainty near its own frequency — the reason the paper compares
    // spectra only "for the frequencies where the uncertainty level is
    // uniform". Budgeting the skirt keeps the mask valid everywhere else.
    for (const ToneAttr& t : at_filter_in.tones) {
      if (t.linewidth_hz <= 0.0) continue;
      const double p_tone = t.amplitude.nominal * t.amplitude.nominal / 2.0;
      const double df = f - t.freq.nominal;
      const double lorentz = (t.linewidth_hz / kPi) /
                             (t.linewidth_hz * t.linewidth_hz + df * df);
      // The skirt mass in one bin can never exceed the whole tone's power
      // (the Lorentzian density integrates to 1); without the cap the
      // tone's own bin would blow up when the linewidth is far narrower
      // than a bin.
      const double mass = std::min(1.0, lorentz * bin_w);
      noise_bin += p_tone * hmag * hmag * mass;
    }
    // The realistic good-circuit reference enters the floor *before*
    // dilation so its single-realisation dips are filled by neighbouring
    // bins instead of leaving fluctuation-vulnerable holes in the mask.
    noise_floor[k] = std::max(noise_bin, good.power(k));
  }

  // Tester dynamic-range floor: measured relative to the strongest stimulus
  // tone in the good-circuit spectrum.
  double strongest_tone_power = 1e-300;
  for (double f : plan.if_freqs) {
    strongest_tone_power =
        std::max(strongest_tone_power, dsp::measure_tone(good, f).power);
  }
  const double tester_floor =
      strongest_tone_power * power_ratio_from_db(-options.tester_dynamic_range_db);

  // Window leakage smears each bin's energy across the main lobe, so a deep
  // |H| null between two live bins still reads their level: dilate the
  // floor over the lobe width before applying the margin.
  for (std::size_t k = 0; k < bins; ++k) {
    double dilated = noise_floor[k];
    const std::size_t lo_k = (k > lobe) ? k - lobe : 0;
    const std::size_t hi_k = std::min(k + lobe, bins - 1);
    for (std::size_t j = lo_k; j <= hi_k; ++j) dilated = std::max(dilated, noise_floor[j]);
    const double base = std::max(dilated, tester_floor);
    plan.mask_power_db[k] =
        db_from_power_ratio(std::max(base, 1e-300)) + options.mask_margin_db;
  }
  return plan;
}

std::vector<std::int64_t> DigitalTester::ideal_codes(const DigitalTestPlan& plan) const {
  std::vector<dsp::Tone> tones;
  for (double f : plan.if_freqs) {
    tones.push_back(dsp::Tone{f, plan.per_tone_adc_vpeak, 0.0});
  }
  const auto wave = dsp::generate_tones(tones, 0.0, digital_fs(), plan.record);
  const analog::AdcParams& adc = graph().first(BlockKind::kAdc).adc;
  const double lsb = adc_lsb(adc);
  const std::int64_t cmax = (1ll << (adc.bits - 1)) - 1;
  const std::int64_t cmin = -(1ll << (adc.bits - 1));
  std::vector<std::int64_t> codes;
  codes.reserve(wave.size());
  for (double v : wave) {
    codes.push_back(std::clamp<std::int64_t>(std::llround(v / lsb), cmin, cmax));
  }
  return codes;
}

std::vector<std::int64_t> DigitalTester::path_codes(const DigitalTestPlan& plan,
                                                    const path::PathGraph& path,
                                                    stats::Rng& noise_rng) const {
  analog::Signal rf;
  rf.fs = graph().analog_fs;
  rf.samples = dsp::generate_tones(plan.rf_tones, 0.0, rf.fs,
                                   plan.record * graph().adc_decimation());
  const auto trace = path.run(rf, noise_rng);
  return trace.adc_codes;
}

CampaignResult DigitalTester::exact_campaign(std::span<const std::int64_t> codes,
                                             std::span<const digital::Fault> faults) const {
  const auto r = digital::simulate_faults(expanded_, input_, output_, codes, faults);
  CampaignResult out;
  out.total = faults.size();
  out.detected_flags = r.detected;
  out.detected = static_cast<std::size_t>(
      std::count(r.detected.begin(), r.detected.end(), true));
  return out;
}

std::vector<double> DigitalTester::output_volts(
    std::span<const std::int64_t> filter_out) const {
  const double scale =
      adc_lsb(graph().first(BlockKind::kAdc).adc) /
      static_cast<double>(1 << graph().first(BlockKind::kFir).fir_coeff_frac_bits);
  std::vector<double> out;
  out.reserve(filter_out.size());
  for (std::int64_t v : filter_out) out.push_back(static_cast<double>(v) * scale);
  return out;
}

DigitalTester::SpectralOutcome DigitalTester::spectral_campaign(
    const DigitalTestPlan& plan, std::span<const std::int64_t> reference_codes,
    std::span<const std::int64_t> stimulus_codes,
    std::span<const digital::Fault> faults) const {
  MSTS_REQUIRE(stimulus_codes.size() == plan.record, "stimulus length must match plan");
  MSTS_REQUIRE(reference_codes.size() == plan.record,
               "reference length must match plan");
  // The good-circuit spectrum is already baked into the plan's mask (plan()
  // ran the nominal path with its own noise seed), so the campaign only
  // compares each machine against the mask; `reference_codes` is not read
  // beyond its length.

  auto flagged = [&](std::span<const std::int64_t> waveform) {
    const dsp::Spectrum spec(output_volts(waveform), digital_fs(), plan.window);
    for (std::size_t k = 0; k < spec.num_bins(); ++k) {
      if (plan.excluded[k]) continue;
      if (spec.power_db(k) > plan.mask_power_db[k]) return true;
    }
    return false;
  };

  digital::FaultSimOptions opts;
  opts.capture_waveforms = true;
  const auto sim = digital::simulate_faults(expanded_, input_, output_, stimulus_codes,
                                            faults, opts);

  SpectralOutcome out;
  out.good_circuit_flagged = flagged(sim.good_waveform);
  out.result.total = faults.size();
  out.result.detected_flags.assign(faults.size(), false);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (flagged(sim.waveforms[i])) {
      out.result.detected_flags[i] = true;
      ++out.result.detected;
    }
  }
  return out;
}

}  // namespace msts::core
