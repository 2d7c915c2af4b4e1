#include "layer_probe.h"

#include <algorithm>

#include "core/synthesizer.h"
#include "core/translation.h"
#include "digital/fault_sim.h"
#include "dsp/spectrum.h"
#include "dsp/tonegen.h"
#include "obs/span.h"
#include "path/receiver_path.h"
#include "service/request.h"
#include "stats/yield.h"

namespace perfbench {

namespace {

namespace mo = msts::obs;

constexpr std::uint64_t kProbeTag = 0x70726f6265ull;

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

void probe_service(std::uint64_t seed) {
  for (std::uint64_t i = 0; i < 256; ++i) {
    const msts::service::SynthesisRequest req = serve_request(derive_seed(seed ^ kProbeTag, i));
    mo::Span span("service.content_key_us");
    (void)msts::service::content_key(req);
  }
}

void probe_core(std::uint64_t seed, const FaultState& st) {
  for (std::uint64_t i = 0; i < 16; ++i) {
    const msts::service::SynthesisRequest req =
        serve_request(derive_seed(seed ^ kProbeTag, 1000 + i));
    const msts::core::TestSynthesizer synth(msts::service::effective_graph(req),
                                           req.options.adaptive, req.options.spec_sigmas);
    {
      mo::Span span("core.synthesize_ms");
      (void)synth.synthesize();
    }
    mo::Span span("core.threshold_study_ms");
    (void)synth.study_mixer_p1db();
    (void)synth.study_mixer_iip3();
    (void)synth.study_lpf_cutoff();
  }
  for (int i = 0; i < 3; ++i) {
    mo::Span span("core.digital_plan_ms");
    msts::core::DigitalTestOptions options;
    options.record = st.plan_short.record;
    (void)st.tester->plan(options);
    options.record = st.plan_long.record;
    (void)st.tester->plan(options);
  }
}

void probe_stats(std::uint64_t seed) {
  const msts::core::ParameterStudy study = iip3_study(msts::path::reference_path_config());
  const auto error = msts::stats::ErrorModel::uniform(study.error_wc);
  for (int i = 0; i < 64; ++i) {
    const auto& row = study.rows[static_cast<std::size_t>(i) % study.rows.size()];
    mo::Span span("stats.evaluate_test_us");
    (void)msts::stats::evaluate_test(study.population, study.spec, row.threshold, error);
  }
  msts::stats::Rng rng(derive_seed(seed ^ kProbeTag, 2000));
  for (int i = 0; i < 8; ++i) {
    mo::Span span("stats.evaluate_test_mc_ms");
    (void)msts::stats::evaluate_test_mc(study.population, study.spec, study.rows[0].threshold,
                                        error, rng, 20000);
  }
}

void probe_sweep(std::uint64_t seed) {
  const std::vector<msts::sweep::Scenario> scenarios = sweep_scenarios();
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const std::vector<msts::sweep::Scenario> one{scenarios[i]};
    mo::Span span("sweep.scenario_max_ms");
    (void)msts::sweep::run_sweep(one, sweep_options(derive_seed(seed ^ kProbeTag, 3000 + i)));
  }
}

// The spectral verdict of DigitalTester::spectral_campaign for one captured
// waveform, rebuilt from public calls so its cost can be timed apart from
// the simulation.
bool spectral_verdict(const FaultState& st, const msts::core::DigitalTestPlan& plan,
                      const std::vector<std::int64_t>& waveform) {
  const msts::dsp::Spectrum spec(st.tester->output_volts(waveform), st.tester->digital_fs(),
                                 plan.window);
  for (std::size_t k = 0; k < spec.num_bins(); ++k) {
    if (plan.excluded[k]) continue;
    if (spec.power_db(k) > plan.mask_power_db[k]) return true;
  }
  return false;
}

// One fault_campaign op (slice 0) taken apart: the simulations and the
// spectral verdicts of DigitalTester's campaigns as separate calls.
void probe_digital(const FaultState& st, ProbeFacts& facts) {
  const msts::core::DigitalTester& t = *st.tester;
  const std::vector<msts::digital::Fault>& slice = st.slices[0];
  msts::digital::FaultSimOptions capture;
  capture.capture_waveforms = true;
  {
    mo::Span span("digital.exact_sim_ms");
    (void)msts::digital::simulate_faults(t.netlist(), t.input_bus(), t.output_bus(),
                                         st.ideal_short, slice);
  }
  msts::digital::FaultSimResult sim;
  {
    mo::Span span("digital.capture_sim_ms");
    sim = msts::digital::simulate_faults(t.netlist(), t.input_bus(), t.output_bus(),
                                         st.path_short, slice, capture);
  }
  std::vector<msts::digital::Fault> escapes;
  std::size_t detected = 0;
  {
    mo::Span span("dsp.verdict_ms");
    (void)spectral_verdict(st, st.plan_short, sim.good_waveform);
    for (std::size_t i = 0; i < slice.size(); ++i) {
      if (spectral_verdict(st, st.plan_short, sim.waveforms[i])) {
        ++detected;
      } else {
        escapes.push_back(slice[i]);
      }
    }
  }
  sim = {};
  {
    mo::Span span("digital.capture_sim_ms");
    sim = msts::digital::simulate_faults(t.netlist(), t.input_bus(), t.output_bus(),
                                         st.path_long, escapes, capture);
  }
  {
    mo::Span span("dsp.verdict_ms");
    (void)spectral_verdict(st, st.plan_long, sim.good_waveform);
    for (const std::vector<std::int64_t>& w : sim.waveforms) {
      detected += spectral_verdict(st, st.plan_long, w) ? 1u : 0u;
    }
  }
  const std::vector<double> volts = t.output_volts(sim.good_waveform);
  for (int i = 0; i < 32; ++i) {
    mo::Span span("dsp.spectrum_8192_us");
    const msts::dsp::Spectrum spectrum(volts, t.digital_fs(), st.plan_long.window);
    (void)spectrum.num_bins();
  }
  facts.detected = static_cast<double>(detected);
  facts.fault_patterns = static_cast<double>(slice.size() * 2 * st.plan_short.record +
                                             escapes.size() * st.plan_long.record);
  facts.waveform_mb = static_cast<double>(std::max(slice.size() * st.plan_short.record,
                                                   escapes.size() * st.plan_long.record)) *
                      8.0 / 1e6;
}

// The translated IIP3 measurement of translated_mc taken apart: device
// manufacture, the path transient, the analog blocks one record at a time.
void probe_path(std::uint64_t seed, ProbeFacts& facts) {
  const msts::path::PathConfig config = msts::path::reference_path_config();
  const msts::core::Translator translator(config);
  const msts::path::MeasureOptions options;
  const auto [f1, f2] = translator.test_two_tone(options);
  const double drive = translator.linear_drive_vpeak();
  const std::vector<msts::dsp::Tone> tones{{config.lo.freq_hz + f1, drive, 0.0},
                                           {config.lo.freq_hz + f2, drive, 0.0}};
  const std::size_t n = options.digital_record * config.adc_decimation;
  msts::analog::Signal rf;
  rf.fs = config.analog_fs;
  rf.samples = msts::dsp::generate_tones(tones, 0.0, config.analog_fs, n);
  facts.record_samples = static_cast<double>(n);

  msts::stats::Rng rng(derive_seed(seed ^ kProbeTag, 4000));
  std::vector<msts::path::ReceiverPath> devices;
  devices.reserve(64);
  for (int i = 0; i < 64; ++i) {
    mo::Span span("path.device_sample_us");
    devices.push_back(msts::path::ReceiverPath::sampled(config, rng));
  }
  for (int i = 0; i < 8; ++i) {
    mo::Span span("path.run_samples_per_s");
    (void)devices[static_cast<std::size_t>(i)].run(rf, rng);
  }
  for (int i = 0; i < 8; ++i) {
    mo::Span span("path.measure_iip3_ms");
    (void)translator.measure_mixer_iip3_dbm(devices[static_cast<std::size_t>(i)], rng,
                                            /*adaptive=*/true, options);
  }
  const msts::path::ReceiverPath& d = devices.front();
  for (int i = 0; i < 16; ++i) {
    msts::analog::Signal amp_out, lo_out, mix_out, lpf_out;
    {
      mo::Span span("analog.amp_us");
      amp_out = d.amp().process(rf, rng);
    }
    {
      mo::Span span("analog.lo_us");
      lo_out = d.lo().generate(config.analog_fs, n, rng);
    }
    {
      mo::Span span("analog.mixer_us");
      mix_out = d.mixer().process(amp_out, lo_out, rng);
    }
    {
      mo::Span span("analog.lpf_us");
      lpf_out = d.lpf().process(mix_out);
    }
    mo::Span span("analog.adc_us");
    (void)d.adc().digitize(lpf_out, config.adc_decimation);
  }
}

}  // namespace

ProbeFacts run_layer_probe(std::uint64_t seed) {
  ProbeFacts facts;
  const FaultState st = make_fault_state(seed);
  probe_service(seed);
  probe_core(seed, st);
  probe_stats(seed);
  probe_sweep(seed);
  probe_digital(st, facts);
  probe_path(seed, facts);
  return facts;
}

void probe_metrics(const SpanLog& log, const ProbeFacts& facts, std::vector<Metric>& out) {
  auto med = [&](const char* name, double scale) { return scale * median(log.durations(name)); };
  const double sim_s =
      sum(log.durations("digital.exact_sim_ms")) + sum(log.durations("digital.capture_sim_ms"));
  const std::vector<double>& scenarios = log.durations("sweep.scenario_max_ms");
  out.push_back({"service.content_key_us", med("service.content_key_us", 1e6), "us"});
  out.push_back({"core.synthesize_ms", med("core.synthesize_ms", 1e3), "ms"});
  out.push_back({"core.threshold_study_ms", med("core.threshold_study_ms", 1e3), "ms"});
  out.push_back({"core.digital_plan_ms", med("core.digital_plan_ms", 1e3), "ms"});
  out.push_back({"stats.evaluate_test_us", med("stats.evaluate_test_us", 1e6), "us"});
  out.push_back({"stats.evaluate_test_mc_ms", med("stats.evaluate_test_mc_ms", 1e3), "ms"});
  out.push_back({"sweep.scenario_max_ms",
                 scenarios.empty() ? 0.0 : 1e3 * *std::max_element(scenarios.begin(),
                                                                    scenarios.end()),
                 "ms"});
  out.push_back({"digital.exact_sim_ms", 1e3 * sum(log.durations("digital.exact_sim_ms")), "ms"});
  out.push_back(
      {"digital.capture_sim_ms", 1e3 * sum(log.durations("digital.capture_sim_ms")), "ms"});
  out.push_back({"digital.fault_patterns_per_s", facts.fault_patterns / sim_s, "1/s"});
  out.push_back({"digital.waveform_mb", facts.waveform_mb, "MB"});
  out.push_back({"digital.detected", facts.detected, "count"});
  out.push_back({"dsp.verdict_ms", 1e3 * sum(log.durations("dsp.verdict_ms")), "ms"});
  out.push_back({"dsp.spectrum_8192_us", med("dsp.spectrum_8192_us", 1e6), "us"});
  out.push_back({"path.device_sample_us", med("path.device_sample_us", 1e6), "us"});
  out.push_back({"path.run_samples_per_s",
                 facts.record_samples / median(log.durations("path.run_samples_per_s")), "1/s"});
  out.push_back({"path.measure_iip3_ms", med("path.measure_iip3_ms", 1e3), "ms"});
  for (const char* block : {"analog.amp_us", "analog.lo_us", "analog.mixer_us", "analog.lpf_us",
                            "analog.adc_us"}) {
    out.push_back({block, med(block, 1e6), "us"});
  }
}

}  // namespace perfbench
