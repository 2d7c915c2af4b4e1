#include "sweep/sweep.h"

#include <algorithm>
#include <bit>
#include <exception>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "base/require.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "stats/parallel.h"
#include "stats/yield.h"

namespace msts::sweep {

namespace {

using path::BlockConfig;
using path::BlockKind;
using path::PathGraphConfig;

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a_mix(std::uint64_t h, const std::string& s) {
  h = fnv1a_mix(h, static_cast<std::uint64_t>(s.size()));
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a_mix(std::uint64_t h, double v) {
  return fnv1a_mix(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

PathGraphConfig make_topology(const std::string& name,
                              const path::PathConfig& base) {
  PathGraphConfig g;
  g.analog_fs = base.analog_fs;
  g.analog_flatness_db = base.analog_flatness_db;

  const BlockConfig amp = BlockConfig::make_amp(base.amp);
  const BlockConfig mixer = BlockConfig::make_mixer(base.mixer, base.lo);
  const BlockConfig lpf = BlockConfig::make_lpf(base.lpf);
  const BlockConfig adc = BlockConfig::make_adc(base.adc, base.adc_decimation);
  const BlockConfig fir = BlockConfig::make_fir(base.fir_taps, base.fir_cutoff_norm,
                                                base.fir_coeff_frac_bits);

  if (name == "canonical") {
    g.blocks = {amp, mixer, lpf, adc, fir};
  } else if (name == "if-amp") {
    g.blocks = {mixer, amp, lpf, adc, fir};
  } else if (name == "dual-lpf") {
    g.blocks = {amp, mixer, lpf, lpf, adc, fir};
  } else if (name == "no-amp") {
    g.blocks = {mixer, lpf, adc, fir};
  } else {
    MSTS_REQUIRE(false, "unknown topology name");
  }
  return g;
}

std::vector<Scenario> ScenarioMatrix::expand() const {
  MSTS_REQUIRE(!topologies.empty(), "scenario matrix needs topologies");
  MSTS_REQUIRE(!lpf_orders.empty(), "scenario matrix needs filter orders");

  // Empty optional axes contribute a single "keep the base value" choice.
  const std::vector<double> lo_axis =
      lo_freqs_hz.empty() ? std::vector<double>{base.lo.freq_hz} : lo_freqs_hz;
  const std::vector<std::size_t> taps_axis =
      fir_taps.empty() ? std::vector<std::size_t>{base.fir_taps} : fir_taps;
  const std::vector<std::size_t> record_axis =
      records.empty() ? std::vector<std::size_t>{path::MeasureOptions{}.digital_record}
                      : records;

  std::vector<Scenario> out;
  out.reserve(topologies.size() * lpf_orders.size() * lo_axis.size() *
              taps_axis.size() * record_axis.size());
  for (const std::string& topo : topologies) {
    for (const int order : lpf_orders) {
      for (const double lo_hz : lo_axis) {
        for (const std::size_t taps : taps_axis) {
          for (const std::size_t record : record_axis) {
            Scenario s;
            s.graph = make_topology(topo, base);
            for (BlockConfig& b : s.graph.blocks) {
              if (b.kind == BlockKind::kLpf) b.lpf.order = order;
              if (b.kind == BlockKind::kMixer) b.lo.freq_hz = lo_hz;
              if (b.kind == BlockKind::kFir) b.fir_taps = taps;
            }
            s.options.measure.digital_record = record;

            std::ostringstream name;
            name << topo << "/ord" << order;
            if (!lo_freqs_hz.empty()) {
              name << "/lo" << std::setprecision(4) << lo_hz / 1e6 << "M";
            }
            if (!fir_taps.empty()) name << "/taps" << taps;
            if (!records.empty()) name << "/rec" << record;
            s.name = name.str();

            path::validate(s.graph);
            out.push_back(std::move(s));
          }
        }
      }
    }
  }
  return out;
}

namespace {

ScenarioScore score_scenario(const Scenario& scenario, stats::Rng rng,
                             const SweepOptions& opts) {
  service::SynthesisRequest request;
  request.graph = scenario.graph;
  request.options = scenario.options;

  ScenarioScore score;
  score.name = scenario.name;
  score.content_hash = service::content_hash(request);

  const service::SynthesisResult result = service::synthesize_direct(request);
  score.plan_tests = result.plan.size();
  for (const core::PlannedTest& t : result.plan) {
    if (t.translatable) {
      ++score.translatable;
    } else {
      ++score.dft_required;
    }
    if (!t.has_study) continue;

    // Analytic Tol-row losses straight from the study, plus the MC
    // cross-check on this scenario's private stream. mc_threads governs the
    // inner evaluation: 1 keeps it serial inside this scenario task, while
    // 0 (or > 1) lets the MC blocks run as a nested task-set on the same
    // scheduler workers. Scores are bit-identical either way —
    // evaluate_test_mc partitions by trial count, never by thread count.
    const core::ThresholdRow& tol = t.study.row("Tol");
    score.total_yield_loss += tol.outcome.yield_loss;
    score.worst_fcl = std::max(score.worst_fcl, tol.outcome.fault_coverage_loss);

    const stats::TestOutcome mc = stats::evaluate_test_mc(
        t.study.population, t.study.spec, tol.threshold,
        stats::ErrorModel::uniform(t.study.error_wc), rng, opts.mc_trials,
        opts.mc_threads);
    score.mc_yield_loss += mc.yield_loss;
    score.mc_fcl = std::max(score.mc_fcl, mc.fault_coverage_loss);
  }
  score.testability =
      score.plan_tests == 0
          ? 0.0
          : static_cast<double>(score.translatable) /
                static_cast<double>(score.plan_tests);
  return score;
}

}  // namespace

SweepResult run_sweep(const std::vector<Scenario>& scenarios,
                      const SweepOptions& opts) {
  MSTS_REQUIRE(!scenarios.empty(), "sweep needs at least one scenario");
  obs::Span span("sweep.run");
  span.note("scenarios", static_cast<std::int64_t>(scenarios.size()));
  obs::counter_add("sweep.runs");
  obs::counter_add("sweep.scenarios", scenarios.size());

  // One RNG stream per scenario, derived from the base seed only — the
  // partitioning (and therefore every score) is independent of the thread
  // count; see the determinism contract in the header.
  const std::vector<stats::Rng> streams =
      stats::make_streams(stats::Rng(opts.seed), scenarios.size());

  // A failing scenario rethrows under its own name. The scheduler rethrows
  // the lowest failing index whatever the schedule (the serial path throws
  // the first), so the reported scenario does not depend on the thread count.
  std::vector<ScenarioScore> scores(scenarios.size());
  const obs::SpanId parent = span.id();
  const auto score_one = [&](std::size_t i) {
    obs::Span s("sweep.scenario", parent);
    try {
      scores[i] = score_scenario(scenarios[i], streams[i], opts);
    } catch (const std::exception& e) {
      throw std::runtime_error("sweep scenario '" + scenarios[i].name +
                               "' failed: " + e.what());
    } catch (...) {
      throw std::runtime_error("sweep scenario '" + scenarios[i].name +
                               "' failed: unknown error");
    }
    s.note("plan_tests", static_cast<std::int64_t>(scores[i].plan_tests));
    s.note("testability", scores[i].testability);
  };
  try {
    stats::parallel_for_index(scenarios.size(), opts.threads, score_one);
  } catch (...) {
    obs::counter_add("sweep.scenario_failures");
    throw;
  }

  // Serial, totally-ordered ranking: ties cannot depend on schedule.
  std::sort(scores.begin(), scores.end(),
            [](const ScenarioScore& a, const ScenarioScore& b) {
              if (a.testability != b.testability) return a.testability > b.testability;
              if (a.total_yield_loss != b.total_yield_loss) {
                return a.total_yield_loss < b.total_yield_loss;
              }
              if (a.worst_fcl != b.worst_fcl) return a.worst_fcl < b.worst_fcl;
              if (a.mc_yield_loss != b.mc_yield_loss) {
                return a.mc_yield_loss < b.mc_yield_loss;
              }
              return a.name < b.name;
            });

  SweepResult result;
  result.ranking = std::move(scores);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const ScenarioScore& s : result.ranking) {
    h = fnv1a_mix(h, s.name);
    h = fnv1a_mix(h, s.content_hash);
    h = fnv1a_mix(h, static_cast<std::uint64_t>(s.plan_tests));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(s.translatable));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(s.dft_required));
    h = fnv1a_mix(h, s.testability);
    h = fnv1a_mix(h, s.total_yield_loss);
    h = fnv1a_mix(h, s.worst_fcl);
    h = fnv1a_mix(h, s.mc_yield_loss);
    h = fnv1a_mix(h, s.mc_fcl);
  }
  result.fingerprint = h;
  span.note("fingerprint", static_cast<std::int64_t>(result.fingerprint));
  return result;
}

std::string format_ranking(const SweepResult& result) {
  std::ostringstream os;
  os << std::left << std::setw(24) << "scenario" << std::right << std::setw(6)
     << "tests" << std::setw(7) << "transl" << std::setw(5) << "DFT"
     << std::setw(9) << "test%" << std::setw(9) << "YL%" << std::setw(9)
     << "FCL%" << std::setw(9) << "mcYL%" << std::setw(9) << "mcFCL%" << "\n";
  os << std::string(87, '-') << "\n";
  for (const ScenarioScore& s : result.ranking) {
    os << std::left << std::setw(24) << s.name << std::right << std::setw(6)
       << s.plan_tests << std::setw(7) << s.translatable << std::setw(5)
       << s.dft_required << std::fixed << std::setprecision(1) << std::setw(9)
       << 100.0 * s.testability << std::setprecision(2) << std::setw(9)
       << 100.0 * s.total_yield_loss << std::setw(9) << 100.0 * s.worst_fcl
       << std::setw(9) << 100.0 * s.mc_yield_loss << std::setw(9)
       << 100.0 * s.mc_fcl << "\n";
    os.unsetf(std::ios::fixed);
  }
  return os.str();
}

}  // namespace msts::sweep
