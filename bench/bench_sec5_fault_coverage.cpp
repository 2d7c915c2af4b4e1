// Sec. 5 — the digital-filter experiment: two-tone coverage with exact
// inputs, then the translated (noisy-path) spectral test, then the
// second pass with a longer pattern set on the faults that escaped.
//
// Paper numbers for their 13-tap filter: 95.5 % exact two-tone coverage;
// propagated-stimulus spectral test ~80 % with the short pattern set;
// re-running the escapes with 8192 patterns detects 7.1 % of them, ending at
// 81.4 %. The periodic stimulus makes fault activation periodic, so longer
// records concentrate the effect into sharper spectral lines.
#include <cstdio>
#include <vector>

#include "bench_report.h"
#include "core/digital_test.h"
#include "path/receiver_path.h"
#include "stats/parallel.h"

using namespace msts;

int main() {
  std::printf("== Sec. 5: digital filter fault coverage through the analog path ==\n\n");
  benchtool::BenchReport report("sec5_fault_coverage");
  const int threads = stats::resolve_threads(0);
  std::printf("fault-simulation batches on %d thread%s (MSTS_THREADS overrides; "
              "coverage is thread-count invariant)\n\n",
              threads, threads == 1 ? "" : "s");
  const auto config = path::reference_path_config();
  const core::DigitalTester tester(config);

  // At reduced MSTS_BENCH_SCALE the universe is thinned by a stride (1 at
  // full scale, i.e. every collapsed fault).
  const std::size_t stride = benchtool::scaled_stride(1);
  std::vector<digital::Fault> faults;
  for (std::size_t i = 0; i < tester.faults().size(); i += stride) {
    faults.push_back(tester.faults()[i]);
  }
  std::printf("DUT: %zu-tap FIR (%d-bit input), %zu nets, %zu collapsed faults "
              "(%zu simulated)\n\n",
              config.fir_taps, config.adc.bits, tester.netlist().num_nets(),
              tester.faults().size(), faults.size());
  report.add_scalar("faults_simulated", static_cast<std::int64_t>(faults.size()));

  // ---- Stage 0: exact-inputs regime -------------------------------------
  core::DigitalTestOptions opt;
  opt.record = benchtool::scaled_record(512, 128);
  const auto plan = tester.plan(opt);
  std::printf("stimulus: two tones at %.0f / %.0f kHz IF, %.2f V per tone at ADC\n",
              plan.if_freqs[0] / 1e3, plan.if_freqs[1] / 1e3, plan.per_tone_adc_vpeak);
  std::printf("filter input (attribute model): SNR %.1f dB, SFDR %.1f dB "
              "(paper: SNR 7x dB, SFDR 6x dB)\n\n",
              plan.expected_filter_in_snr_db, plan.expected_filter_in_sfdr_db);

  report.phase_start("exact_campaign");
  const auto ideal = tester.ideal_codes(plan);
  const auto exact =
      tester.exact_campaign(ideal, std::span(faults.data(), faults.size()));
  report.phase_end();
  std::printf("[exact inputs, %4zu patterns] coverage %.2f %%   (paper: 95.5 %%)\n",
              plan.record, 100.0 * exact.coverage());
  report.add_scalar("coverage_exact_pct", 100.0 * exact.coverage());

  // ---- Stage 1: translated test, short record ----------------------------
  report.phase_start("translated_short");
  const path::ReceiverPath device(config);
  stats::Rng noise(2000);
  const auto noisy = tester.path_codes(plan, device, noise);
  const auto stage1 = tester.spectral_campaign(plan, ideal, noisy,
                                               std::span(faults.data(), faults.size()));
  report.phase_end();
  std::printf("[translated,   %4zu patterns] coverage %.2f %%   (paper: ~80 %%), "
              "good circuit flagged: %s\n",
              plan.record, 100.0 * stage1.result.coverage(),
              stage1.good_circuit_flagged ? "YES" : "no");
  report.add_scalar("coverage_translated_short_pct", 100.0 * stage1.result.coverage());

  // ---- Stage 2: rerun the escapes with a longer pattern set --------------
  std::vector<digital::Fault> remaining;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (!stage1.result.detected_flags[i]) remaining.push_back(faults[i]);
  }
  std::printf("\n%zu faults undetected by the short set; re-running them with a "
              "longer record...\n",
              remaining.size());

  report.phase_start("translated_long");
  core::DigitalTestOptions opt2 = opt;
  opt2.record = benchtool::scaled_record(8192, 1024);
  const auto plan2 = tester.plan(opt2);
  stats::Rng noise2(2001);
  const auto noisy2 = tester.path_codes(plan2, device, noise2);
  const auto ideal2 = tester.ideal_codes(plan2);
  const auto stage2 = tester.spectral_campaign(plan2, ideal2, noisy2,
                                               std::span(remaining.data(),
                                                         remaining.size()));
  report.phase_end();

  const double pct_of_remaining =
      remaining.empty() ? 0.0 : 100.0 * stage2.result.coverage();
  const std::size_t total_detected = stage1.result.detected + stage2.result.detected;
  const double final_coverage = 100.0 * static_cast<double>(total_detected) /
                                static_cast<double>(faults.size());
  std::printf("[translated,   %4zu patterns] detects %.1f %% of the escapes "
              "(paper: 7.1 %%)\n",
              plan2.record, pct_of_remaining);
  std::printf("\nfinal translated coverage: %.2f %%   (paper: 81.4 %%)\n",
              final_coverage);
  report.add_scalar("coverage_translated_final_pct", final_coverage);

  // ---- Escape analysis (paper: escapes cluster in the low-order bits) ----
  std::size_t low_bit_escapes = 0, escapes = 0;
  for (std::size_t i = 0; i < remaining.size(); ++i) {
    if (stage2.result.detected_flags[i]) continue;
    ++escapes;
    const auto& name = tester.netlist().gate(remaining[i].net).name;
    // Delay-line and datapath cells carry ".q<bit>" / ".fa<bit>" suffixes.
    const auto pos = name.find_last_not_of("0123456789");
    if (pos != std::string::npos && pos + 1 < name.size()) {
      const int bit = std::atoi(name.c_str() + pos + 1);
      if (bit < 5) ++low_bit_escapes;
    }
  }
  if (escapes > 0) {
    std::printf("escape analysis: %zu/%zu final escapes sit in bit positions 0-4\n"
                "(paper: \"undetected faults are scattered within the 5 least\n"
                "significant bits\")\n",
                low_bit_escapes, escapes);
  }
  report.add_scalar("final_escapes", static_cast<std::int64_t>(escapes));
  return 0;
}
