#include "check/kernel_checks.h"

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "analog/adc.h"
#include "analog/lpf.h"
#include "base/polar_log.h"
#include "base/simd.h"
#include "base/units.h"
#include "check/generators.h"
#include "check/yield_quadrature.h"
#include "digital/fault_sim.h"
#include "digital/faults.h"
#include "digital/fir.h"
#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/oscillator.h"
#include "dsp/tonegen.h"
#include "dsp/window.h"
#include "path/lanes.h"
#include "path/path_graph.h"
#include "stats/yield.h"

namespace msts::check {

namespace {

// Interleaves re/im so complex outputs flow through the scalar comparator.
void push_complex(std::vector<double>& out, const std::complex<double>& v) {
  out.push_back(v.real());
  out.push_back(v.imag());
}

}  // namespace

// ---------------------------------------------------------------------------
// Planned real FFT vs naive O(N^2) DFT.
// ---------------------------------------------------------------------------

Report check_fft_plan_vs_naive_dft(const RunOptions& opts) {
  using Case = RecordCase;
  return differential<Case>(
      "fft_plan_vs_naive_dft",
      [](stats::Rng& rng) { return random_record(rng, /*min_log2=*/4, /*max_log2=*/10); },
      [](const Case& c, stats::Rng&) {
        std::vector<double> out;
        const auto bins = dsp::rfft(c.samples);
        out.reserve(2 * bins.size());
        for (const auto& b : bins) push_complex(out, b);
        return out;
      },
      [](const Case& c, stats::Rng&) {
        // One-sided naive DFT with exact library trig at every (n, k) angle.
        const std::size_t n = c.samples.size();
        std::vector<double> out;
        out.reserve(2 * (n / 2 + 1));
        for (std::size_t k = 0; k <= n / 2; ++k) {
          std::complex<double> acc(0.0, 0.0);
          for (std::size_t i = 0; i < n; ++i) {
            const double a = -kTwoPi * static_cast<double>(i) *
                             static_cast<double>(k) / static_cast<double>(n);
            acc += c.samples[i] * std::complex<double>(std::cos(a), std::sin(a));
          }
          push_complex(out, acc);
        }
        return out;
      },
      [](const Case& c, obs::json::Writer& w) { describe(c, w); },
      // Bin magnitudes reach N * sum(amplitudes); the abs bound absorbs
      // cancellation noise on near-empty bins, the ulp bound scales with the
      // loaded bins.
      Tolerance::abs_or_ulp(1e-6, 1e5), opts);
}

// ---------------------------------------------------------------------------
// Blockwise Goertzel single-bin DFT vs direct correlation.
// ---------------------------------------------------------------------------

namespace {

struct SingleBinCase {
  RecordCase rec;
  double freq = 0.0;
};

}  // namespace

Report check_goertzel_vs_direct_correlation(const RunOptions& opts) {
  using Case = SingleBinCase;
  return differential<Case>(
      "goertzel_vs_direct_correlation",
      [](stats::Rng& rng) {
        Case c;
        c.rec = random_record(rng, /*min_log2=*/6, /*max_log2=*/13);
        const double u = rng.uniform();
        if (u < 0.15) {
          c.freq = 0.0;  // DC branch
        } else if (u < 0.3) {
          c.freq = 0.5 * c.rec.fs;  // Nyquist branch
        } else if (u < 0.6) {
          // Bin-centred (the production use: coherent translated tests).
          c.freq = dsp::coherent_frequency(c.rec.fs, c.rec.samples.size(),
                                           rng.uniform(0.02, 0.45) * c.rec.fs);
        } else {
          // Arbitrary off-bin frequency.
          c.freq = rng.uniform(0.001, 0.499) * c.rec.fs;
        }
        return c;
      },
      [](const Case& c, stats::Rng&) {
        std::vector<double> out;
        push_complex(out, dsp::single_bin_dft(c.rec.samples, c.freq, c.rec.fs));
        return out;
      },
      [](const Case& c, stats::Rng&) {
        // Direct correlation with a libm cos/sin pair at every sample, with
        // the same one-sided 2/N (1/N at DC/Nyquist) scaling.
        const std::size_t n = c.rec.samples.size();
        std::complex<double> acc(0.0, 0.0);
        const double w = kTwoPi * c.freq / c.rec.fs;
        for (std::size_t i = 0; i < n; ++i) {
          const double a = -w * static_cast<double>(i);
          acc += c.rec.samples[i] * std::complex<double>(std::cos(a), std::sin(a));
        }
        const bool self_mirrored = (c.freq == 0.0) || (c.freq == 0.5 * c.rec.fs);
        acc *= (self_mirrored ? 1.0 : 2.0) / static_cast<double>(n);
        std::vector<double> out;
        push_complex(out, acc);
        return out;
      },
      [](const Case& c, obs::json::Writer& w) {
        w.kv("freq", c.freq);
        describe(c.rec, w);
      },
      Tolerance::abs_or_ulp(1e-8, 1e5), opts);
}

// ---------------------------------------------------------------------------
// Recurrence oscillator vs long-double libm trig.
// ---------------------------------------------------------------------------

namespace {

struct OscCase {
  double omega = 0.0;
  double phase = 0.0;
  double amp = 1.0;
  std::size_t n = 0;
};

}  // namespace

Report check_oscillator_vs_libm_trig(const RunOptions& opts) {
  using Case = OscCase;
  return differential<Case>(
      "oscillator_vs_libm_trig",
      [](stats::Rng& rng) {
        Case c;
        c.omega = rng.uniform(1e-4, 0.99 * kPi);
        c.phase = rng.uniform(0.0, kTwoPi);
        c.amp = rng.uniform(0.1, 2.0);
        c.n = std::size_t{1} << (10 + rng.uniform_int(5));  // 1k .. 16k
        return c;
      },
      [](const Case& c, stats::Rng&) {
        // Both generation paths: the 4-lane add_cosine used by tonegen, then
        // the single streaming phasor used by the LO.
        std::vector<double> out(c.n, 0.0);
        dsp::add_cosine(out.data(), c.n, c.omega, c.phase, c.amp);
        dsp::PhasorOscillator osc(c.omega, c.phase);
        out.reserve(2 * c.n);
        for (std::size_t i = 0; i < c.n; ++i) out.push_back(c.amp * osc.cos_next());
        return out;
      },
      [](const Case& c, stats::Rng&) {
        // Long-double golden model: the angle product omega * i is formed in
        // 80-bit precision, so its rounding stays far below the oscillators'
        // 1e-12 drift contract.
        std::vector<double> out;
        out.reserve(2 * c.n);
        for (int rep = 0; rep < 2; ++rep) {
          for (std::size_t i = 0; i < c.n; ++i) {
            const long double angle =
                static_cast<long double>(c.omega) * static_cast<long double>(i) +
                static_cast<long double>(c.phase);
            out.push_back(static_cast<double>(
                static_cast<long double>(c.amp) * std::cos(angle)));
          }
        }
        return out;
      },
      [](const Case& c, obs::json::Writer& w) {
        w.kv("omega", c.omega);
        w.kv("phase", c.phase);
        w.kv("amp", c.amp);
        w.kv("n", static_cast<std::uint64_t>(c.n));
      },
      Tolerance::abs_only(5e-12), opts);
}

// ---------------------------------------------------------------------------
// Workspace-reusing transient vs allocating transient.
// ---------------------------------------------------------------------------

namespace {

struct PathCase {
  path::PathConfig cfg;
  std::size_t digital_record = 256;
  std::vector<dsp::Tone> rf_tones;
};

PathCase random_path_case(stats::Rng& rng) {
  PathCase c;
  c.cfg = random_path_config(rng);
  c.digital_record = std::size_t{1} << (8 + rng.uniform_int(3));  // 256..1024
  const double digital_fs = c.cfg.digital_fs();
  const std::size_t ntones = 1 + static_cast<std::size_t>(rng.uniform_int(2));
  for (std::size_t t = 0; t < ntones; ++t) {
    dsp::Tone tone;
    const double if_freq = dsp::coherent_frequency(
        digital_fs, c.digital_record, rng.uniform(0.05, 0.3) * digital_fs);
    tone.freq = c.cfg.lo.freq_hz + if_freq;
    tone.amplitude = rng.uniform(0.001, 0.008);
    tone.phase = 0.0;
    c.rf_tones.push_back(tone);
  }
  return c;
}

void describe_path_case(const PathCase& c, obs::json::Writer& w) {
  describe(c.cfg, w);
  w.kv("digital_record", static_cast<std::uint64_t>(c.digital_record));
  w.key("rf_tones").begin_array();
  for (const dsp::Tone& t : c.rf_tones) {
    w.begin_object();
    w.kv("freq", t.freq);
    w.kv("amplitude", t.amplitude);
    w.end_object();
  }
  w.end_array();
}

// RF stimulus of a PathCase (deterministic; both sides build the same one).
analog::Signal make_case_rf(const PathCase& c) {
  analog::Signal rf;
  rf.fs = c.cfg.analog_fs;
  rf.samples = dsp::generate_tones(c.rf_tones, 0.0, c.cfg.analog_fs,
                                   c.digital_record * c.cfg.adc_decimation);
  return rf;
}

// Flattens the observable outputs of one transient: ADC codes, the
// full-precision FIR output, its volts conversion and the FIR response.
std::vector<double> flatten_trace(const path::PathGraph& p,
                                  const path::PathGraph::Trace& t,
                                  const std::vector<double>& volts) {
  std::vector<double> out;
  out.reserve(t.adc_codes.size() + t.filter_out.size() + volts.size() + 1);
  for (std::int64_t v : t.adc_codes) out.push_back(static_cast<double>(v));
  for (std::int64_t v : t.filter_out) out.push_back(static_cast<double>(v));
  out.insert(out.end(), volts.begin(), volts.end());
  out.push_back(p.fir_magnitude_at(0.1 * p.config().digital_fs()));
  return out;
}

}  // namespace

Report check_path_workspace_vs_allocating_run(const RunOptions& opts) {
  using Case = PathCase;
  // One workspace shared across every case: steady-state reuse across
  // different record lengths and configs is exactly the contract under test.
  auto ws = std::make_shared<path::GraphWorkspace>();
  return differential<Case>(
      "path_workspace_vs_allocating_run",
      [](stats::Rng& rng) { return random_path_case(rng); },
      [ws](const Case& c, stats::Rng& rng) {
        const path::PathGraph p = path::PathGraph::sampled(c.cfg, rng);
        const analog::Signal rf = make_case_rf(c);
        const auto& trace = p.run(rf, rng, *ws);
        p.output_volts_into(trace, ws->volts);
        return flatten_trace(p, trace, ws->volts);
      },
      [](const Case& c, stats::Rng& rng) {
        const path::PathGraph p = path::PathGraph::sampled(c.cfg, rng);
        const analog::Signal rf = make_case_rf(c);
        const path::PathGraph::Trace trace = p.run(rf, rng);
        return flatten_trace(p, trace, p.output_volts(trace));
      },
      [](const Case& c, obs::json::Writer& w) { describe_path_case(c, w); },
      Tolerance::bit_identical(), opts);
}

// ---------------------------------------------------------------------------
// Parallel Monte-Carlo evaluation vs the serial path.
// ---------------------------------------------------------------------------

namespace {

struct McCase {
  SpecTriple triple;
  int trials = 1000;
};

std::vector<double> flatten_outcome(const stats::TestOutcome& o) {
  return {o.yield, o.defect_rate, o.accept_rate, o.yield_loss,
          o.fault_coverage_loss};
}

// The fields the analytic pairs compare; defect_rate mirrors yield.
std::vector<double> loss_fields(const stats::TestOutcome& o) {
  return {o.yield, o.accept_rate, o.yield_loss, o.fault_coverage_loss};
}

}  // namespace

Report check_parallel_mc_vs_serial(const RunOptions& opts) {
  using Case = McCase;
  SpecTripleOptions triple_opts;
  triple_opts.always_guard_banded = false;  // thresholds at and off the spec
  return differential<Case>(
      "parallel_mc_vs_serial",
      [triple_opts](stats::Rng& rng) {
        Case c;
        c.triple = random_spec_triple(rng, triple_opts);
        c.trials = 1000 + static_cast<int>(rng.uniform_int(39001));
        return c;
      },
      [](const Case& c, stats::Rng& rng) {
        return flatten_outcome(stats::evaluate_test_mc(
            c.triple.param, c.triple.spec, c.triple.threshold, c.triple.error,
            rng, c.trials, /*threads=*/4));
      },
      [](const Case& c, stats::Rng& rng) {
        return flatten_outcome(stats::evaluate_test_mc(
            c.triple.param, c.triple.spec, c.triple.threshold, c.triple.error,
            rng, c.trials, /*threads=*/1));
      },
      [](const Case& c, obs::json::Writer& w) {
        describe(c.triple, w);
        w.kv("trials", c.trials);
      },
      Tolerance::bit_identical(), opts);
}

// ---------------------------------------------------------------------------
// Analytic guard-banded evaluation vs Monte Carlo.
// ---------------------------------------------------------------------------

Report check_guard_band_analytic_vs_mc(const RunOptions& opts) {
  using Case = SpecTriple;
  SpecTripleOptions triple_opts;
  triple_opts.always_guard_banded = true;
  triple_opts.sharp_errors_only = true;
  // 1.2M trials put ~4.5 sigma of Monte-Carlo sampling error at ~8e-3 even
  // for the conditional losses (the faulty population is >= ~7 % of trials by
  // construction of the generator). An analytic evaluation that misplaces
  // the acceptance step at a guard-banded threshold shifts probability mass
  // across it — amplified by the conditional denominators, that lands well
  // outside this band.
  constexpr int kTrials = 1200000;
  return differential<Case>(
      "guard_band_analytic_vs_mc",
      [triple_opts](stats::Rng& rng) { return random_spec_triple(rng, triple_opts); },
      [](const Case& c, stats::Rng&) {
        return loss_fields(stats::evaluate_test(c.param, c.spec, c.threshold, c.error));
      },
      [](const Case& c, stats::Rng& rng) {
        return loss_fields(
            stats::evaluate_test_mc(c.param, c.spec, c.threshold, c.error, rng, kTrials));
      },
      [](const Case& c, obs::json::Writer& w) { describe(c, w); },
      Tolerance::abs_only(8e-3), opts);
}

// ---------------------------------------------------------------------------
// Closed-form evaluate_test vs the midpoint quadrature.
// ---------------------------------------------------------------------------

Report check_closed_form_vs_quadrature(const RunOptions& opts) {
  using Case = SpecTriple;
  SpecTripleOptions triple_opts;
  triple_opts.always_guard_banded = false;  // thresholds at and off the spec
  // Over 300 generator triples a 200001-point grid stays within 6.6e-9 of a
  // 2000001-point one (worst on uniform-error FCL), so 5e-8 leaves a 7x
  // margin for the reference's own error while any misplaced breakpoint or
  // wrong segment moment in the closed form shows up far above it.
  constexpr int kGrid = 200001;
  return differential<Case>(
      "closed_form_vs_quadrature",
      [triple_opts](stats::Rng& rng) { return random_spec_triple(rng, triple_opts); },
      [](const Case& c, stats::Rng&) {
        return loss_fields(stats::evaluate_test(c.param, c.spec, c.threshold, c.error));
      },
      [](const Case& c, stats::Rng&) {
        return loss_fields(
            evaluate_test_quadrature(c.param, c.spec, c.threshold, c.error, kGrid));
      },
      [](const Case& c, obs::json::Writer& w) { describe(c, w); },
      Tolerance::abs_only(5e-8), opts);
}

// ---------------------------------------------------------------------------
// Block-drawn Gaussian deviates vs repeated normal().
// ---------------------------------------------------------------------------

namespace {

struct FillNormalCase {
  std::vector<std::size_t> lengths;
};

// Appends the two 32-bit halves of a 64-bit pattern as exact doubles, so the
// comparator's value equality is bit equality (it would let +0 match -0).
void push_bits(std::vector<double>& out, std::uint64_t bits) {
  out.push_back(static_cast<double>(bits >> 32));
  out.push_back(static_cast<double>(bits & 0xFFFFFFFFull));
}

void push_bits(std::vector<double>& out, double x) {
  push_bits(out, std::bit_cast<std::uint64_t>(x));
}

// Draws every length from both entry states (no cached deviate, one cached)
// with the fill or with repeated normal(), then a few normal() / next_u64()
// draws after the fill and again after a jump(): any difference in the end
// state, cached deviate included, shows up there.
std::vector<double> fill_normal_trace(const FillNormalCase& c, stats::Rng& rng,
                                      bool block) {
  std::vector<double> out;
  std::vector<double> deviates;
  for (const std::size_t n : c.lengths) {
    for (const bool cached : {false, true}) {
      rng.jump();  // drops any cached deviate
      if (cached) push_bits(out, rng.normal());
      deviates.assign(n, 0.0);
      if (block) {
        rng.fill_normal(deviates);
      } else {
        for (double& d : deviates) d = rng.normal();
      }
      for (const double d : deviates) push_bits(out, d);
      for (int round = 0; round < 2; ++round) {
        for (int k = 0; k < 3; ++k) push_bits(out, rng.normal());
        for (int k = 0; k < 2; ++k) push_bits(out, rng.next_u64());
        rng.jump();
      }
    }
  }
  return out;
}

}  // namespace

Report check_fill_normal_vs_normal(const RunOptions& opts) {
  using Case = FillNormalCase;
  constexpr std::size_t kBlock = stats::Rng::kFillBlock;
  return differential<Case>(
      "fill_normal_vs_normal",
      [](stats::Rng& rng) {
        // Empty, single, a random odd length, the block edges and one
        // transient record.
        const std::size_t odd = 3 + 2 * rng.uniform_int(2048);
        return Case{{0, 1, odd, kBlock - 1, kBlock, kBlock + 1, 32768}};
      },
      [](const Case& c, stats::Rng& rng) { return fill_normal_trace(c, rng, true); },
      [](const Case& c, stats::Rng& rng) { return fill_normal_trace(c, rng, false); },
      [](const Case& c, obs::json::Writer& w) {
        w.key("lengths").begin_array();
        for (const std::size_t n : c.lengths) w.value(static_cast<std::uint64_t>(n));
        w.end_array();
      },
      Tolerance::bit_identical(), opts);
}

// ---------------------------------------------------------------------------
// Lane walk vs one device at a time.
// ---------------------------------------------------------------------------

namespace {

struct LanesCase {
  path::PathConfig cfg;
  std::size_t lanes = 1;
  std::size_t digital_record = 64;
  std::vector<dsp::Tone> rf_tones;
  // Per lane: enter the transient with a cached deviate (relative to the
  // other lanes: one vs two extra normal() calls after manufacture), and
  // run a jitter-free LO.
  std::vector<bool> cached, quiet_lo;
  // An amp between the LPF and the ADC: the lanes' last analog record is
  // then compared whole, not only through the ADC's quantization.
  bool tail_amp = false;
};

LanesCase random_lanes_case(stats::Rng& rng) {
  LanesCase c;
  c.cfg = random_path_config(rng);
  // Large walk steps reach unit_phasor's libm branch.
  c.cfg.lo.phase_noise_rad =
      stats::Uncertain::from_tolerance(rng.uniform(1e-5, 2e-3), 1e-5);
  c.lanes = 1 + rng.uniform_int(path::kLanes);
  // Any digital length: the analog record is a multiple of the decimation
  // but rarely of the lane walk's draw block.
  c.digital_record = 24 + rng.uniform_int(600);
  const double digital_fs = c.cfg.digital_fs();
  for (std::size_t t = 0; t < 2; ++t) {
    const double if_freq = dsp::coherent_frequency(
        digital_fs, c.digital_record, rng.uniform(0.05, 0.3) * digital_fs);
    c.rf_tones.push_back({c.cfg.lo.freq_hz + if_freq, rng.uniform(0.001, 0.02), 0.0});
  }
  for (std::size_t l = 0; l < c.lanes; ++l) {
    c.cached.push_back(rng.uniform_int(2) == 1);
    c.quiet_lo.push_back(rng.uniform_int(3) == 0);
  }
  c.tail_amp = rng.uniform_int(2) == 1;
  return c;
}

// The devices of a case, each manufactured from its own stream, and the
// streams positioned where the transient starts.
struct LaneDevices {
  std::vector<path::PathGraph> devices;
  std::vector<stats::Rng> streams;
};

LaneDevices make_lane_devices(const LanesCase& c, stats::Rng& rng) {
  LaneDevices d;
  d.streams = stats::make_streams(rng, c.lanes);
  for (std::size_t l = 0; l < c.lanes; ++l) {
    path::PathConfig cfg = c.cfg;
    if (c.quiet_lo[l]) cfg.lo.phase_noise_rad = stats::Uncertain::exact(0.0);
    path::PathGraphConfig graph(cfg);
    if (c.tail_amp) {
      const auto adc = static_cast<std::ptrdiff_t>(graph.first_index(path::BlockKind::kAdc));
      graph.blocks.insert(graph.blocks.begin() + adc, path::BlockConfig::make_amp(cfg.amp));
    }
    d.devices.push_back(path::PathGraph::sampled(graph, d.streams[l]));
    // One extra draw leaves the cache in the opposite state to two.
    for (int k = c.cached[l] ? 1 : 2; k > 0; --k) (void)d.streams[l].normal();
  }
  return d;
}

// One lane's observables: codes, FIR output and the stream after the run
// (the next normal() returns a cached deviate if one was left).
void push_lane(std::vector<double>& out, const path::PathGraph::Trace& t,
               stats::Rng& stream) {
  for (std::int64_t v : t.adc_codes) out.push_back(static_cast<double>(v));
  for (std::int64_t v : t.filter_out) out.push_back(static_cast<double>(v));
  for (int k = 0; k < 3; ++k) push_bits(out, stream.normal());
  push_bits(out, stream.next_u64());
}

analog::Signal make_lanes_rf(const LanesCase& c) {
  analog::Signal rf;
  rf.fs = c.cfg.analog_fs;
  rf.samples = dsp::generate_tones(c.rf_tones, 0.0, c.cfg.analog_fs,
                                   c.digital_record * c.cfg.adc_decimation);
  return rf;
}

}  // namespace

Report check_path_lanes_vs_one_device(const RunOptions& opts) {
  using Case = LanesCase;
  // One workspace across every case, as a thread's measurements reuse it.
  auto ws = std::make_shared<path::LaneWorkspace>();
  return differential<Case>(
      "path_lanes_vs_one_device",
      [](stats::Rng& rng) { return random_lanes_case(rng); },
      [ws](const Case& c, stats::Rng& rng) {
        LaneDevices d = make_lane_devices(c, rng);
        std::vector<const path::PathGraph*> devices;
        std::vector<stats::Rng*> streams;
        for (std::size_t l = 0; l < c.lanes; ++l) {
          devices.push_back(&d.devices[l]);
          streams.push_back(&d.streams[l]);
        }
        const analog::Signal rf = make_lanes_rf(c);
        path::run_lanes(devices, rf, streams, *ws);
        std::vector<double> out;
        for (std::size_t l = 0; l < c.lanes; ++l) {
          push_lane(out, ws->traces[l], d.streams[l]);
          if (c.tail_amp) {
            for (std::size_t i = 0; i < rf.size(); ++i) {
              out.push_back(ws->wave[i * path::kLanes + l]);
            }
          }
        }
        return out;
      },
      [](const Case& c, stats::Rng& rng) {
        LaneDevices d = make_lane_devices(c, rng);
        const analog::Signal rf = make_lanes_rf(c);
        std::vector<double> out;
        for (std::size_t l = 0; l < c.lanes; ++l) {
          const path::PathGraph::Trace t = d.devices[l].run(rf, d.streams[l]);
          push_lane(out, t, d.streams[l]);
          if (c.tail_amp) {
            const std::vector<double>& last = t.analog_stages.back().samples;
            out.insert(out.end(), last.begin(), last.end());
          }
        }
        return out;
      },
      [](const Case& c, obs::json::Writer& w) {
        describe(c.cfg, w);
        w.kv("lanes", static_cast<std::uint64_t>(c.lanes));
        w.kv("digital_record", static_cast<std::uint64_t>(c.digital_record));
        w.key("cached").begin_array();
        for (const bool b : c.cached) w.value(static_cast<std::uint64_t>(b));
        w.end_array();
        w.key("quiet_lo").begin_array();
        for (const bool b : c.quiet_lo) w.value(static_cast<std::uint64_t>(b));
        w.end_array();
        w.kv("tail_amp", static_cast<std::uint64_t>(c.tail_amp));
      },
      Tolerance::bit_identical(), opts);
}

// ---------------------------------------------------------------------------
// SIMD backend vs forced-scalar pairs. Each reference closure re-runs the
// identical public API inside simd::ScopedIsa(kScalar); the fast side uses
// whatever backend the run dispatched to (see kernel_checks.h).
// ---------------------------------------------------------------------------

Report check_simd_window_vs_scalar(const RunOptions& opts) {
  using Case = RecordCase;
  return differential<Case>(
      "simd_window_vs_scalar",
      [](stats::Rng& rng) { return random_record(rng, /*min_log2=*/4, /*max_log2=*/12); },
      [](const Case& c, stats::Rng&) {
        const auto w = dsp::make_window(c.samples.size(), c.window);
        std::vector<double> out(c.samples.size());
        dsp::apply_window(c.samples.data(), w.data(), out.data(), out.size());
        return out;
      },
      [](const Case& c, stats::Rng&) {
        simd::ScopedIsa scalar(simd::Isa::kScalar);
        const auto w = dsp::make_window(c.samples.size(), c.window);
        std::vector<double> out(c.samples.size());
        dsp::apply_window(c.samples.data(), w.data(), out.data(), out.size());
        return out;
      },
      [](const Case& c, obs::json::Writer& w) { describe(c, w); },
      // Elementwise IEEE multiply: no contraction opportunity at any width.
      Tolerance::bit_identical(), opts);
}

Report check_simd_rfft_vs_scalar(const RunOptions& opts) {
  using Case = RecordCase;
  return differential<Case>(
      "simd_rfft_vs_scalar",
      [](stats::Rng& rng) { return random_record(rng, /*min_log2=*/4, /*max_log2=*/12); },
      [](const Case& c, stats::Rng&) {
        std::vector<double> out;
        const auto bins = dsp::rfft(c.samples);
        out.reserve(2 * bins.size());
        for (const auto& b : bins) push_complex(out, b);
        return out;
      },
      [](const Case& c, stats::Rng&) {
        simd::ScopedIsa scalar(simd::Isa::kScalar);
        std::vector<double> out;
        const auto bins = dsp::rfft(c.samples);
        out.reserve(2 * bins.size());
        for (const auto& b : bins) push_complex(out, b);
        return out;
      },
      [](const Case& c, obs::json::Writer& w) { describe(c, w); },
      // FMA contraction plus reassociated butterflies: a handful of ulps on
      // loaded bins, cancellation noise (absorbed by the abs bound) on empty
      // ones. Far tighter than the naive-DFT pair — same algorithm, same
      // twiddles, only the contraction pattern differs.
      Tolerance::abs_or_ulp(1e-9, 64), opts);
}

namespace {

struct BiquadCase {
  analog::LpfParams params;
  RecordCase rec;
};

}  // namespace

Report check_simd_biquad_vs_scalar(const RunOptions& opts) {
  using Case = BiquadCase;
  return differential<Case>(
      "simd_biquad_vs_scalar",
      [](stats::Rng& rng) {
        Case c;
        c.rec = random_record(rng, /*min_log2=*/8, /*max_log2=*/12);
        // A quarter of the records keep 1-3 samples (the feed-forward's
        // two-term first outputs), a quarter an odd length (a vector tail).
        const std::size_t n = c.rec.samples.size();
        const double shape = rng.uniform();
        if (shape < 0.25) {
          c.rec.samples.resize(1 + rng.uniform_int(3));
        } else if (shape < 0.5) {
          c.rec.samples.resize(n - 1 - 2 * rng.uniform_int(n / 4));
        }
        c.params.order = 2 * (1 + static_cast<int>(rng.uniform_int(8)));  // 2..16
        c.params.cutoff_hz =
            stats::Uncertain::exact(rng.uniform(0.05, 0.2) * c.rec.fs);
        c.params.clock_hz = 0.4 * c.rec.fs;
        return c;
      },
      [](const Case& c, stats::Rng& rng) {
        const auto f = analog::LowPassFilter::sampled(c.params, rng);
        analog::Signal in{c.rec.fs, c.rec.samples};
        return f.process(in).samples;
      },
      [](const Case& c, stats::Rng& rng) {
        simd::ScopedIsa scalar(simd::Isa::kScalar);
        const auto f = analog::LowPassFilter::sampled(c.params, rng);
        analog::Signal in{c.rec.fs, c.rec.samples};
        return f.process(in).samples;
      },
      [](const Case& c, obs::json::Writer& w) {
        w.kv("order", c.params.order);
        w.kv("cutoff_hz", c.params.cutoff_hz.nominal);
        describe(c.rec, w);
      },
      // The vector backends fuse the feed-forward taps; the recurrence keeps
      // reference order. Unit-scale records stay within ~1.5e-14 absolute
      // through cascades up to 16th order (1200 cases on three seeds); the
      // ulp distance is large only on outputs near zero.
      Tolerance::abs_or_ulp(1e-10, 1e3), opts);
}

Report check_simd_add_cosine_vs_scalar(const RunOptions& opts) {
  struct Case {
    double omega = 0.0;
    double phase = 0.0;
    double amp = 1.0;
    std::size_t n = 0;
  };
  return differential<Case>(
      "simd_add_cosine_vs_scalar",
      [](stats::Rng& rng) {
        Case c;
        c.omega = rng.uniform(1e-4, 0.99 * kPi);
        c.phase = rng.uniform(0.0, kTwoPi);
        c.amp = rng.uniform(0.1, 2.0);
        c.n = std::size_t{1} << (10 + rng.uniform_int(5));  // 1k .. 16k
        return c;
      },
      [](const Case& c, stats::Rng&) {
        std::vector<double> out(c.n, 0.0);
        dsp::add_cosine(out.data(), c.n, c.omega, c.phase, c.amp);
        return out;
      },
      [](const Case& c, stats::Rng&) {
        simd::ScopedIsa scalar(simd::Isa::kScalar);
        std::vector<double> out(c.n, 0.0);
        dsp::add_cosine(out.data(), c.n, c.omega, c.phase, c.amp);
        return out;
      },
      [](const Case& c, obs::json::Writer& w) {
        w.kv("omega", c.omega);
        w.kv("phase", c.phase);
        w.kv("amp", c.amp);
        w.kv("n", static_cast<std::uint64_t>(c.n));
      },
      // Every backend reseeds its phasors from the same double-double carrier
      // each kCosineResyncPeriod samples; between resyncs the lane recurrences
      // accumulate at most a couple of ulps relative to each other.
      Tolerance::abs_only(1e-12), opts);
}

namespace {

struct FaultSimCase {
  digital::Netlist nl;
  digital::Bus in;
  digital::Bus out;
  std::vector<std::int64_t> stimulus;
  std::vector<digital::Fault> faults;
};

// Random DAG of gates with a few DFFs, same shape as the randomized property
// tests (tests/test_random_circuits.cpp).
FaultSimCase random_fault_sim_case(stats::Rng& rng) {
  FaultSimCase c;
  const std::size_t inputs = 4 + rng.uniform_int(3);
  const std::size_t gates = 40 + rng.uniform_int(81);
  std::vector<digital::NetId> pool;
  for (std::size_t i = 0; i < inputs; ++i) {
    const digital::NetId n = c.nl.add_input("i" + std::to_string(i));
    c.in.bits.push_back(n);
    pool.push_back(n);
  }
  const digital::GateType kinds[] = {
      digital::GateType::kAnd, digital::GateType::kOr,  digital::GateType::kNand,
      digital::GateType::kNor, digital::GateType::kXor, digital::GateType::kXnor,
      digital::GateType::kNot, digital::GateType::kBuf};
  for (std::size_t g = 0; g < gates; ++g) {
    if (rng.uniform() < 0.12) {
      pool.push_back(c.nl.add_dff(pool[rng.uniform_int(pool.size())]));
      continue;
    }
    const digital::GateType t = kinds[rng.uniform_int(8)];
    const digital::NetId a = pool[rng.uniform_int(pool.size())];
    const digital::NetId b = pool[rng.uniform_int(pool.size())];
    pool.push_back(c.nl.add_gate(t, a, b));
  }
  for (std::size_t o = 0; o < 3; ++o) {
    const digital::NetId n = pool[pool.size() - 1 - o];
    c.nl.mark_output(n);
    c.out.bits.push_back(n);
  }
  const std::int64_t hi = 1ll << (inputs - 1);
  const std::size_t cycles = 24 + rng.uniform_int(41);
  for (std::size_t i = 0; i < cycles; ++i) {
    c.stimulus.push_back(static_cast<std::int64_t>(rng.uniform_int(2 * hi)) - hi);
  }
  c.faults = digital::collapsed_faults(c.nl);
  return c;
}

// Detection verdicts (0/1) followed by the good-machine waveform, so both
// the exact-compare logic and the captured stream are pinned.
std::vector<double> flatten_fault_sim(const digital::FaultSimResult& r) {
  std::vector<double> out;
  out.reserve(r.detected.size() + r.good_waveform.size());
  for (const bool d : r.detected) out.push_back(d ? 1.0 : 0.0);
  for (const std::int64_t v : r.good_waveform) out.push_back(static_cast<double>(v));
  return out;
}

}  // namespace

Report check_simd_fault_sim_wide_vs_64(const RunOptions& opts) {
  using Case = FaultSimCase;
  return differential<Case>(
      "simd_fault_sim_wide_vs_64",
      [](stats::Rng& rng) { return random_fault_sim_case(rng); },
      [](const Case& c, stats::Rng&) {
        digital::FaultSimOptions fo;
        fo.machine_words = 0;  // active backend width (8 words on AVX-512)
        fo.threads = 1;
        return flatten_fault_sim(
            digital::simulate_faults(c.nl, c.in, c.out, c.stimulus, c.faults, fo));
      },
      [](const Case& c, stats::Rng&) {
        digital::FaultSimOptions fo;
        fo.machine_words = 1;  // the classic 64-machine batches
        fo.threads = 1;
        return flatten_fault_sim(
            digital::simulate_faults(c.nl, c.in, c.out, c.stimulus, c.faults, fo));
      },
      [](const Case& c, obs::json::Writer& w) {
        w.kv("nets", static_cast<std::uint64_t>(c.nl.num_nets()));
        w.kv("faults", static_cast<std::uint64_t>(c.faults.size()));
        w.kv("cycles", static_cast<std::uint64_t>(c.stimulus.size()));
        w.kv("inputs", static_cast<std::uint64_t>(c.in.bits.size()));
      },
      // Exact logic: any width disagreement is a real bug, never drift.
      Tolerance::bit_identical(), opts);
}

namespace {

struct AdcFirCase {
  analog::AdcParams params;  ///< Exact offset and gain; the DNL seed is drawn.
  std::size_t stride = 1;    ///< 1, or kLanes as the lane walk reads.
  std::size_t decimation = 1;
  std::vector<double> samples;  ///< The converted points' inputs.
  bool ties = false;            ///< No INL, offset or gain: exact half-LSB ties.
  std::vector<std::int32_t> taps;
};

AdcFirCase random_adc_fir_case(stats::Rng& rng) {
  AdcFirCase c;
  c.params.bits = 4 + static_cast<int>(rng.uniform_int(17));
  c.params.vref = rng.uniform(0.25, 2.0);
  c.ties = rng.uniform_int(3) == 0;
  const auto exact = [](double v) { return stats::Uncertain::exact(v); };
  if (c.ties) {
    // lsb = 2 vref / 2^bits is then a power of two, so (k + 1/2) * lsb is
    // exact and converts to a code_f with fraction exactly one half.
    c.params.vref = 1.0;
    c.params.offset_error_v = exact(0.0);
    c.params.gain_error = exact(0.0);
    c.params.inl_peak_lsb = exact(0.0);
    c.params.dnl_sigma_lsb = exact(0.0);
  } else {
    c.params.offset_error_v = exact(rng.uniform(-0.05, 0.05));
    c.params.gain_error = exact(rng.uniform(-0.05, 0.05));
    c.params.inl_peak_lsb = exact(rng.uniform(-2.0, 2.0));
    c.params.dnl_sigma_lsb = exact(rng.uniform(0.0, 1.0));
  }
  c.stride = rng.uniform_int(2) == 0 ? 1 : path::kLanes;
  c.decimation = 1 + rng.uniform_int(16);
  const double lsb = 2.0 * c.params.vref / static_cast<double>(1ll << c.params.bits);
  const auto half_codes = static_cast<double>(1ll << (c.params.bits - 1));
  const std::size_t count = 1 + rng.uniform_int(300);
  for (std::size_t j = 0; j < count; ++j) {
    const double u = rng.uniform();
    double x;
    if (u < 0.1) {
      x = rng.uniform(1.0, 4.0) * c.params.vref;  // beyond the upper rail
    } else if (u < 0.2) {
      x = -rng.uniform(1.0, 4.0) * c.params.vref;  // beyond the lower rail
    } else if (u < 0.25) {
      x = rng.uniform_int(2) == 0 ? 1e300 : -1e300;  // v / lsb overflows
    } else if (u < 0.3) {
      x = rng.uniform_int(2) == 0 ? 0.0 : -0.0;
    } else if (c.ties || u < 0.4) {
      // A half-LSB point, k + 1/2 codes from zero, either sign.
      const double k = std::floor(rng.uniform(-half_codes - 1.0, half_codes + 1.0));
      x = (k + 0.5) * lsb;
    } else {
      x = rng.uniform(-1.1, 1.1) * c.params.vref;
    }
    c.samples.push_back(x);
  }
  // Now and then a non-finite point, which must throw on both sides.
  if (rng.uniform_int(6) == 0) {
    const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
    c.samples[rng.uniform_int(count)] = bad[rng.uniform_int(3)];
  }
  const std::size_t ntaps = 1 + rng.uniform_int(40);
  for (std::size_t k = 0; k < ntaps; ++k) {
    c.taps.push_back(static_cast<std::int32_t>(rng.uniform_int(1u << 17)) - (1 << 16));
  }
  return c;
}

// Converts the case's points, laid out at every decimation-th sample of a
// strided record whose other slots hold NaN (read one and the conversion
// throws), then filters the codes. A throw yields a marker and the codes
// left in the output.
std::vector<double> adc_fir_trace(const AdcFirCase& c, stats::Rng& rng) {
  const analog::Adc adc = analog::Adc::sampled(c.params, rng);
  const std::size_t n = (c.samples.size() - 1) * c.decimation + 1;
  std::vector<double> record(n * c.stride, std::numeric_limits<double>::quiet_NaN());
  for (std::size_t j = 0; j < c.samples.size(); ++j) {
    record[j * c.decimation * c.stride] = c.samples[j];
  }
  std::vector<std::int64_t> codes;
  std::vector<double> out;
  try {
    adc.digitize_strided(record.data(), n, c.stride, c.decimation, codes);
  } catch (const std::invalid_argument&) {
    out.push_back(-1.0);
    for (std::int64_t v : codes) out.push_back(static_cast<double>(v));
    return out;
  }
  std::vector<std::int64_t> filtered;
  digital::fir_block_into(c.taps, c.params.bits, codes, filtered);
  for (std::int64_t v : codes) out.push_back(static_cast<double>(v));
  for (std::int64_t v : filtered) out.push_back(static_cast<double>(v));
  return out;
}

}  // namespace

Report check_simd_adc_fir_vs_scalar(const RunOptions& opts) {
  using Case = AdcFirCase;
  return differential<Case>(
      "simd_adc_fir_vs_scalar",
      [](stats::Rng& rng) { return random_adc_fir_case(rng); },
      [](const Case& c, stats::Rng& rng) { return adc_fir_trace(c, rng); },
      [](const Case& c, stats::Rng& rng) {
        simd::ScopedIsa scalar(simd::Isa::kScalar);
        return adc_fir_trace(c, rng);
      },
      [](const Case& c, obs::json::Writer& w) {
        w.kv("bits", c.params.bits);
        w.kv("vref", c.params.vref);
        w.kv("offset_error_v", c.params.offset_error_v.nominal);
        w.kv("gain_error", c.params.gain_error.nominal);
        w.kv("ties", static_cast<std::uint64_t>(c.ties));
        w.kv("stride", static_cast<std::uint64_t>(c.stride));
        w.kv("decimation", static_cast<std::uint64_t>(c.decimation));
        w.kv("points", static_cast<std::uint64_t>(c.samples.size()));
        w.kv("taps", static_cast<std::uint64_t>(c.taps.size()));
      },
      // Exact arithmetic on both sides: codes and sums agree bit for bit.
      Tolerance::bit_identical(), opts);
}

// ---------------------------------------------------------------------------
// Polar scale kernel vs the scalar form.
// ---------------------------------------------------------------------------

namespace {

struct PolarScaleCase {
  std::vector<double> s, uv;  // uv: pair k's u and v at 2k and 2k + 1
  std::size_t stride = 1;
};

PolarScaleCase random_polar_scale_case(stats::Rng& rng) {
  // Up to two vectors and a tail at the widest backend's width (8).
  constexpr std::size_t kMaxPairs = 2 * 8 + 1;
  // The domain's ends, 0.9375 (the near-1 window's lower edge) and the
  // doubles either side of it.
  static constexpr double kEnds[] = {0x1.0p-104, 0x1.fffffffffffffp-1, 0x1.ep-1,
                                     0x1.dffffffffffffp-1, 0x1.e000000000001p-1};
  PolarScaleCase c;
  const std::size_t pairs = rng.uniform_int(kMaxPairs + 1);
  c.stride = rng.uniform_int(2) == 0 ? 1 : simd::kLanes;
  for (std::size_t k = 0; k < pairs; ++k) {
    double u, v, s;
    do {
      const double unit_u = rng.uniform();
      const double unit_v = rng.uniform();
      s = base::polar_candidate(unit_u, unit_v, u, v);
    } while (!(s < 1.0 && s != 0.0));
    // A quarter of the pairs take an s in the near-1 window, one in
    // sixteen one of the ends.
    const std::uint64_t pick = rng.uniform_int(16);
    if (pick < 4) s = rng.uniform(0.9375, 1.0);
    if (pick == 4) s = kEnds[rng.uniform_int(std::size(kEnds))];
    c.s.push_back(s);
    c.uv.push_back(u);
    c.uv.push_back(v);
  }
  return c;
}

}  // namespace

Report check_simd_polar_scale_vs_scalar(const RunOptions& opts) {
  using Case = PolarScaleCase;
  return differential<Case>(
      "simd_polar_scale_vs_scalar",
      [](stats::Rng& rng) { return random_polar_scale_case(rng); },
      [](const Case& c, stats::Rng&) {
        // Every compiled backend this machine runs: scale_pairs at the
        // case's stride, with the slots between a lane's deviates left
        // untouched, then polar_factor pair by pair.
        std::vector<double> out;
        for (const simd::Isa isa :
             {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512, simd::Isa::kNeon}) {
          if (!simd::isa_compiled(isa) || !simd::isa_supported(isa)) continue;
          const simd::Kernels& kern = simd::kernels_for(isa);
          std::vector<double> x(c.uv.size() * c.stride, -1.0);
          for (std::size_t j = 0; j < c.uv.size(); ++j) x[j * c.stride] = c.uv[j];
          kern.scale_pairs(c.s.data(), x.data(), c.s.size(), c.stride);
          for (std::size_t j = 0; j < c.uv.size(); ++j) push_bits(out, x[j * c.stride]);
          for (std::size_t j = 0; j < x.size(); ++j) {
            if (j % c.stride != 0 && x[j] != -1.0) push_bits(out, x[j]);
          }
          for (std::size_t k = 0; k < c.s.size(); ++k) {
            const double m = kern.polar_factor(c.s[k]);
            push_bits(out, c.uv[2 * k] * m);
            push_bits(out, c.uv[2 * k + 1] * m);
          }
        }
        return out;
      },
      [](const Case& c, stats::Rng&) {
        std::vector<double> out;
        for (const simd::Isa isa :
             {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512, simd::Isa::kNeon}) {
          if (!simd::isa_compiled(isa) || !simd::isa_supported(isa)) continue;
          for (int entry = 0; entry < 2; ++entry) {
            for (std::size_t k = 0; k < c.s.size(); ++k) {
              const double m = base::polar_factor(c.s[k]);
              push_bits(out, c.uv[2 * k] * m);
              push_bits(out, c.uv[2 * k + 1] * m);
            }
          }
        }
        return out;
      },
      [](const Case& c, obs::json::Writer& w) {
        w.kv("pairs", static_cast<std::uint64_t>(c.s.size()));
        w.kv("stride", static_cast<std::uint64_t>(c.stride));
        w.key("s").begin_array();
        for (const double s : c.s) w.value(s);
        w.end_array();
      },
      // One definition of the log behind both sides: bit for bit.
      Tolerance::bit_identical(), opts);
}

std::vector<Report> run_all_kernel_checks(const RunOptions& opts) {
  return {
      check_fft_plan_vs_naive_dft(opts),
      check_goertzel_vs_direct_correlation(opts),
      check_oscillator_vs_libm_trig(opts),
      check_path_workspace_vs_allocating_run(opts),
      check_parallel_mc_vs_serial(opts),
      check_guard_band_analytic_vs_mc(opts),
      check_closed_form_vs_quadrature(opts),
      check_fill_normal_vs_normal(opts),
      check_path_lanes_vs_one_device(opts),
      check_simd_window_vs_scalar(opts),
      check_simd_rfft_vs_scalar(opts),
      check_simd_biquad_vs_scalar(opts),
      check_simd_add_cosine_vs_scalar(opts),
      check_simd_fault_sim_wide_vs_64(opts),
      check_simd_adc_fir_vs_scalar(opts),
      check_simd_polar_scale_vs_scalar(opts),
  };
}

}  // namespace msts::check
