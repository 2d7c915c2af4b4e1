// Performance microbenchmarks of the toolkit's kernels (google-benchmark):
// FFT, spectral analysis, gate-level fault simulation, path transient
// simulation and its Gaussian noise, attribute propagation, test-plan
// synthesis and the FCL/YL evaluation. These bound how long a full test
// synthesis + evaluation run takes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench_report.h"
#include "core/attr_models.h"
#include "core/digital_test.h"
#include "core/synthesizer.h"
#include "dsp/fft.h"
#include "dsp/metrics.h"
#include "dsp/spectrum.h"
#include "dsp/tonegen.h"
#include "path/lanes.h"
#include "path/measurements.h"
#include "path/path_graph.h"
#include "service/request.h"
#include "stats/parallel.h"
#include "stats/rng.h"
#include "stats/yield.h"

using namespace msts;

static void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::complex<double>> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = {std::sin(0.1 * i), 0.0};
  for (auto _ : state) {
    auto y = x;
    dsp::fft_inplace(y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fft)->Arg(512)->Arg(4096)->Arg(32768);

static void BM_SpectrumAnalysis(benchmark::State& state) {
  const double fs = 4e6;
  const std::size_t n = 4096;
  const dsp::Tone t{dsp::coherent_frequency(fs, n, 300e3), 0.5, 0.0};
  const auto x = dsp::generate_tones(std::span(&t, 1), 0.0, fs, n);
  dsp::AnalysisOptions ao;
  ao.fundamentals = {t.freq};
  for (auto _ : state) {
    const dsp::Spectrum s(x, fs, dsp::WindowType::kBlackmanHarris4);
    auto rep = dsp::analyze_spectrum(s, ao);
    benchmark::DoNotOptimize(rep.snr_db);
  }
}
BENCHMARK(BM_SpectrumAnalysis);

static void BM_SpectrumConstruct(benchmark::State& state) {
  // Spectrum construction alone (window + rfft + calibration), the inner
  // loop of every translated-test evaluation.
  const double fs = 4e6;
  const std::size_t n = 4096;
  const dsp::Tone t{dsp::coherent_frequency(fs, n, 300e3), 0.5, 0.0};
  const auto x = dsp::generate_tones(std::span(&t, 1), 0.0, fs, n);
  for (auto _ : state) {
    const dsp::Spectrum s(x, fs, dsp::WindowType::kBlackmanHarris4);
    benchmark::DoNotOptimize(s.bin(1));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SpectrumConstruct);

static void BM_ToneGen(benchmark::State& state) {
  // Two-tone stimulus synthesis at the analog rate: the front half of every
  // transient evaluation.
  const double fs = 32e6;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const dsp::Tone tones[] = {{10.4e6, 1e-3, 0.0}, {10.6e6, 1e-3, 0.3}};
  for (auto _ : state) {
    auto x = dsp::generate_tones(tones, 0.0, fs, n);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ToneGen)->Arg(8192)->Arg(32768);

static void BM_SingleBinDft(benchmark::State& state) {
  // Arbitrary-frequency correlation used by tone measurement and frequency
  // estimation (not restricted to power-of-two records).
  const double fs = 4e6;
  const std::size_t n = 12000;
  const dsp::Tone t{311e3, 0.5, 0.2};
  const auto x = dsp::generate_tones(std::span(&t, 1), 0.0, fs, n);
  for (auto _ : state) {
    auto c = dsp::single_bin_dft(x, t.freq, fs);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SingleBinDft);

static void BM_FaultSimBatch(benchmark::State& state) {
  const auto config = path::reference_path_config();
  static const core::DigitalTester tester(config);
  core::DigitalTestOptions opt;
  opt.record = 256;
  const auto plan = tester.plan(opt);
  const auto codes = tester.ideal_codes(plan);
  // A campaign wide enough to fill one 512-way simulator pass (8 x 64-bit
  // words, 511 fault machines + good machine). The 64-way backend needs
  // eight passes over the same list, so the word-parallel win is visible.
  const std::size_t nfaults = std::min<std::size_t>(tester.faults().size(), 504);
  const std::span<const digital::Fault> batch(tester.faults().data(), nfaults);
  for (auto _ : state) {
    auto r = tester.exact_campaign(codes, batch);
    benchmark::DoNotOptimize(r.detected);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(nfaults) *
                          static_cast<std::int64_t>(tester.netlist().num_nets()) * 256);
}
BENCHMARK(BM_FaultSimBatch);

static void BM_PathTransient(benchmark::State& state) {
  const auto config = path::reference_path_config();
  const path::PathGraph path(config);
  const dsp::Tone t{config.lo.freq_hz + 400e3, 1e-3, 0.0};
  analog::Signal rf;
  rf.fs = config.analog_fs;
  rf.samples = dsp::generate_tones(std::span(&t, 1), 0.0, config.analog_fs, 8192);
  stats::Rng rng(1);
  // Workspace reuse across iterations: the steady state of every measurement
  // sweep and Monte-Carlo loop.
  path::GraphWorkspace ws;
  for (auto _ : state) {
    const auto& trace = path.run(rf, rng, ws);
    benchmark::DoNotOptimize(const_cast<std::int64_t*>(trace.filter_out.data()));
  }
  state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_PathTransient);

// The same transient for path::kLanes devices side by side (path/lanes.h):
// one shared stimulus, each lane on its own noise stream. Items are
// lane-samples, so the rate compares directly with BM_PathTransient's.
static void BM_PathTransientLanes(benchmark::State& state) {
  const auto config = path::reference_path_config();
  const path::PathGraph path(config);
  const dsp::Tone t{config.lo.freq_hz + 400e3, 1e-3, 0.0};
  analog::Signal rf;
  rf.fs = config.analog_fs;
  rf.samples = dsp::generate_tones(std::span(&t, 1), 0.0, config.analog_fs, 8192);
  std::vector<stats::Rng> rngs = stats::make_streams(stats::Rng(1), path::kLanes);
  std::vector<const path::PathGraph*> devices(path::kLanes, &path);
  std::vector<stats::Rng*> streams;
  for (stats::Rng& r : rngs) streams.push_back(&r);
  path::LaneWorkspace ws;
  for (auto _ : state) {
    path::run_lanes(devices, rf, streams, ws);
    benchmark::DoNotOptimize(ws.traces[0].filter_out.data());
  }
  state.SetItemsProcessed(state.iterations() * 8192 *
                          static_cast<std::int64_t>(path::kLanes));
}
BENCHMARK(BM_PathTransientLanes);

// The Gaussian noise behind the amp, mixer and LO stages: one 32768-sample
// transient record of deviates per iteration, drawn one normal() call at a
// time and as one fill_normal() block. Both produce the same deviates.
constexpr std::int64_t kNoiseRecord = 32768;

static void BM_NormalPerCall(benchmark::State& state) {
  std::vector<double> out(kNoiseRecord);
  stats::Rng rng(1);
  for (auto _ : state) {
    for (double& x : out) x = rng.normal();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kNoiseRecord);
}
BENCHMARK(BM_NormalPerCall);

static void BM_FillNormal(benchmark::State& state) {
  std::vector<double> out(kNoiseRecord);
  stats::Rng rng(1);
  for (auto _ : state) {
    rng.fill_normal(out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kNoiseRecord);
}
BENCHMARK(BM_FillNormal);

static void BM_PathGainMeasure(benchmark::State& state) {
  // One full translated-test evaluation: stimulus synthesis, transient run
  // and spectral read-back. measure_path_p1db_dbm calls this ~24 times and
  // the Monte-Carlo analyses thousands of times.
  const auto config = path::reference_path_config();
  const path::PathGraph path(config);
  path::MeasureOptions opts;
  opts.digital_record = 1024;
  const double if_freq = path::coherent_if_freq(config, opts, 400e3);
  stats::Rng rng(7);
  for (auto _ : state) {
    const double g = path::measure_path_gain_db(path, if_freq, 10e-3, rng, opts);
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(opts.digital_record));
}
BENCHMARK(BM_PathGainMeasure);

static void BM_AttributePropagation(benchmark::State& state) {
  const auto config = path::reference_path_config();
  const core::PathAttrModel model(config);
  const auto probe = core::make_stimulus(
      config.analog_fs,
      {core::ToneAttr{stats::Uncertain::exact(10.4e6), stats::Uncertain::exact(1e-3),
                      stats::Uncertain::exact(0.0)},
       core::ToneAttr{stats::Uncertain::exact(10.6e6), stats::Uncertain::exact(1e-3),
                      stats::Uncertain::exact(0.0)}});
  for (auto _ : state) {
    auto out = model.forward(probe);
    benchmark::DoNotOptimize(out.noise_power.nominal);
  }
}
BENCHMARK(BM_AttributePropagation);

static void BM_TestPlanSynthesis(benchmark::State& state) {
  const auto config = path::reference_path_config();
  for (auto _ : state) {
    const core::TestSynthesizer synth(config);
    auto plan = synth.synthesize();
    benchmark::DoNotOptimize(plan.size());
  }
}
BENCHMARK(BM_TestPlanSynthesis);

// The two halves of a served request: the cache key every request pays,
// and the cold synthesis (plan plus measurement setup) a miss pays on top.
static void BM_ContentKey(benchmark::State& state) {
  service::SynthesisRequest request;
  request.config = path::reference_path_config();
  for (auto _ : state) {
    const std::string key = service::content_key(request);
    benchmark::DoNotOptimize(key.data());
  }
}
BENCHMARK(BM_ContentKey);

static void BM_SynthesizeDirect(benchmark::State& state) {
  service::SynthesisRequest request;
  request.config = path::reference_path_config();
  for (auto _ : state) {
    const service::SynthesisResult result = service::synthesize_direct(request);
    benchmark::DoNotOptimize(result.plan.size());
  }
}
BENCHMARK(BM_SynthesizeDirect);

// One Table 2 row (the IIP3 study at Thr=Tol: N(2, 0.5) dBm, spec >= 1 dBm,
// error +/-1.05 dB worst case or sigma 0.35 dB) under each error model: none
// and uniform take the piecewise-linear closed form, Gaussian the
// bivariate-normal rectangles, which no synthesis default reaches.
static void BM_EvaluateTest(benchmark::State& state, stats::ErrorModel error) {
  const stats::Normal population{2.0, 0.5};
  const auto spec = stats::SpecLimits::at_least(1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(error);
    const stats::TestOutcome out = stats::evaluate_test(population, spec, spec, error);
    benchmark::DoNotOptimize(out.fault_coverage_loss);
  }
}
BENCHMARK_CAPTURE(BM_EvaluateTest, none, stats::ErrorModel::none());
BENCHMARK_CAPTURE(BM_EvaluateTest, uniform, stats::ErrorModel::uniform(1.05));
BENCHMARK_CAPTURE(BM_EvaluateTest, gaussian, stats::ErrorModel::gaussian(0.35));

namespace {

// Chains to the standard console output while mirroring each run into the
// BenchReport, so BENCH_perf_kernels.json carries the per-kernel timings.
class ReportingReporter : public benchmark::ConsoleReporter {
 public:
  explicit ReportingReporter(benchtool::BenchReport* report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      std::string key = run.benchmark_name();
      for (char& c : key) {
        if (c == '/' || c == ':' || c == ' ') c = '_';
      }
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      report_->add_scalar(key + ".real_s_per_iter", run.real_accumulated_time / iters);
    }
  }

 private:
  benchtool::BenchReport* report_;
};

}  // namespace

int main(int argc, char** argv) {
  benchtool::BenchReport report("perf_kernels");

  std::vector<char*> args(argv, argv + argc);
  // Under MSTS_BENCH_SCALE < 1 (the bench_smoke profile) cut the per-kernel
  // measurement window, unless the caller already picked one explicitly.
  std::string min_time = "--benchmark_min_time=0.01";
  bool has_min_time = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_min_time", 20) == 0) has_min_time = true;
  }
  if (benchtool::bench_scale() < 1.0 && !has_min_time) args.push_back(min_time.data());

  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;

  ReportingReporter reporter(&report);
  report.phase_start("benchmarks");
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks(&reporter);
  report.phase_end();
  report.add_scalar("benchmarks_run", static_cast<std::int64_t>(ran));
  benchmark::Shutdown();
  return 0;
}
