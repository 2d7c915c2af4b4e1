// Fig. 1 — "Response: Fault-free and with several Stuck-at Faults".
//
// Reproduces the paper's four spectra: a 16-tap low-pass FIR driven by a
// pure sine, fault-free and with stuck-at faults injected (a) in a tap-2
// multiplier, (b) in a tap-5 adder, (c) at the tap-7 delay output. Output is
// one row per spectral bin so the series can be plotted directly.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.h"
#include "digital/fault_sim.h"
#include "digital/fir.h"
#include "dsp/fir_design.h"
#include "dsp/metrics.h"
#include "dsp/spectrum.h"
#include "dsp/tonegen.h"

using namespace msts;

namespace {

// Highest-net detected fault whose instance name starts with `prefix`:
// later nets in a ripple structure sit on more significant bits, whose
// stuck-ats distort the waveform visibly (the point of Fig. 1).
digital::Fault pick_fault(const digital::Netlist& nl,
                          const std::vector<digital::Fault>& faults,
                          const std::vector<bool>& detected, const std::string& prefix) {
  digital::Fault best = faults.front();
  bool found = false;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (!detected[i]) continue;
    if (nl.gate(faults[i].net).name.rfind(prefix, 0) != 0) continue;
    if (!found || faults[i].net > best.net) best = faults[i];
    found = true;
  }
  return best;
}

}  // namespace

int main() {
  std::printf("== Fig. 1: output spectra of the 16-tap filter, pure sine input ==\n");
  benchtool::BenchReport report("fig1_fault_spectra");

  report.phase_start("build_fir");
  const std::size_t kTaps = 16;
  const int kBits = 12;
  const int kFrac = 10;
  const auto h = dsp::design_lowpass(kTaps, 0.25);
  const auto q = dsp::quantize_coefficients(h, kFrac);
  const auto fir = digital::build_fir(q, kBits, kFrac);
  const auto nl = fir.netlist.with_explicit_branches();
  digital::Bus in, out;
  for (std::size_t i = 0; i < fir.input.width(); ++i) in.bits.push_back(nl.inputs()[i]);
  for (std::size_t i = 0; i < fir.output.width(); ++i) out.bits.push_back(nl.outputs()[i]);
  report.phase_end();

  // Pure sine, bin-centred, ~60 % of full scale.
  const double fs = 4.0e6;
  const std::size_t n = benchtool::scaled_record(1024, 256);
  const double f0 = dsp::coherent_frequency(fs, n, 300e3);
  const dsp::Tone tone{f0, 0.6 * 2048.0, 0.0};
  const auto wave = dsp::generate_tones(std::span(&tone, 1), 0.0, fs, n);
  std::vector<std::int64_t> codes;
  for (double v : wave) codes.push_back(digital::clamp_to_width(std::llround(v), kBits));
  report.add_scalar("record", static_cast<std::int64_t>(n));

  report.phase_start("fault_presim");
  const auto all = digital::collapsed_faults(nl);
  const auto pre = digital::simulate_faults(nl, in, out, codes, all);
  report.phase_end();
  report.add_scalar("collapsed_faults", static_cast<std::int64_t>(all.size()));

  const digital::Fault faults[] = {
      pick_fault(nl, all, pre.detected, "tap2"),
      pick_fault(nl, all, pre.detected, "sum0_2"),
      pick_fault(nl, all, pre.detected, "z7"),
  };
  const char* labels[] = {"fault in tap2 multiplier", "fault in tap5-area adder",
                          "fault at tap7 delay output"};

  report.phase_start("faulty_waveforms");
  digital::FaultSimOptions opts;
  opts.capture_waveforms = true;
  const auto sim = digital::simulate_faults(nl, in, out, codes, faults, opts);
  report.phase_end();

  report.phase_start("spectra");
  auto spectrum_of = [&](std::span<const std::int64_t> w) {
    std::vector<double> v(w.begin(), w.end());
    return dsp::Spectrum(v, fs, dsp::WindowType::kBlackmanHarris4);
  };
  const auto s_good = spectrum_of(sim.good_waveform);
  std::vector<dsp::Spectrum> s_bad;
  for (int i = 0; i < 3; ++i) s_bad.push_back(spectrum_of(sim.waveforms[i]));
  report.phase_end();

  std::printf("# stimulus: pure sine at %.0f kHz, %zu samples\n", f0 / 1e3, n);
  for (int i = 0; i < 3; ++i) {
    std::printf("# series %d: %s (%s)\n", i + 1, labels[i],
                digital::describe(nl, faults[i]).c_str());
  }
  // Print each series relative to its own fundamental (dBc) so the four
  // plots are directly comparable, as in the figure.
  const double ref_good = dsp::measure_tone(s_good, f0).power_db;
  double refs[3];
  for (int i = 0; i < 3; ++i) refs[i] = dsp::measure_tone(s_bad[i], f0).power_db;
  std::printf("%8s %12s %12s %12s %12s   (dBc)\n", "kHz", "fault-free", "series1",
              "series2", "series3");
  for (std::size_t k = 0; k < s_good.num_bins(); ++k) {
    std::printf("%8.1f %12.1f %12.1f %12.1f %12.1f\n", s_good.freq_of_bin(k) / 1e3,
                s_good.power_db(k) - ref_good, s_bad[0].power_db(k) - refs[0],
                s_bad[1].power_db(k) - refs[1], s_bad[2].power_db(k) - refs[2]);
  }

  // Summary: the qualitative claim of Fig. 1 — faults raise harmonics/spurs.
  dsp::AnalysisOptions ao;
  ao.fundamentals = {f0};
  const auto rep_good = dsp::analyze_spectrum(s_good, ao);
  std::printf("\n%-28s %10s %10s\n", "circuit", "SFDR dB", "THD dB");
  std::printf("%-28s %10.1f %10.1f\n", "fault-free", rep_good.sfdr_db, rep_good.thd_db);
  report.add_scalar("sfdr_good_db", rep_good.sfdr_db);
  report.add_scalar("thd_good_db", rep_good.thd_db);
  for (int i = 0; i < 3; ++i) {
    const auto rep = dsp::analyze_spectrum(s_bad[i], ao);
    std::printf("%-28s %10.1f %10.1f\n", labels[i], rep.sfdr_db, rep.thd_db);
    report.add_scalar("sfdr_series" + std::to_string(i + 1) + "_db", rep.sfdr_db);
  }
  return 0;
}
