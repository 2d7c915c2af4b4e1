// Tests for the scenario sweep engine (src/sweep): matrix expansion,
// deterministic parallel scoring (bit-identical rankings and fingerprints at
// 1, 2 and 8 threads — the acceptance contract), ranking order, and the MC
// cross-check columns. Runs under the `sweep` ctest label.
#include "sweep/sweep.h"

#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/translation.h"
#include "path/path_graph.h"

namespace msts::sweep {
namespace {

ScenarioMatrix default_matrix() {
  ScenarioMatrix m;
  m.base = path::reference_path_config();
  return m;
}

SweepOptions fast_opts(int threads = 0) {
  SweepOptions o;
  o.mc_trials = 4000;
  o.threads = threads;
  return o;
}

TEST(ScenarioMatrix, DefaultMatrixExpandsToTwelveUniqueValidScenarios) {
  const std::vector<Scenario> scenarios = default_matrix().expand();
  ASSERT_EQ(scenarios.size(), 12u);  // 4 topologies x 3 filter orders
  std::set<std::string> names;
  for (const Scenario& s : scenarios) {
    names.insert(s.name);
    EXPECT_NO_THROW(path::validate(s.graph)) << s.name;
  }
  EXPECT_EQ(names.size(), scenarios.size());
  EXPECT_TRUE(names.count("canonical/ord4")) << "canonical instance missing";
}

TEST(ScenarioMatrix, AxesCrossAndApplyToTheirBlocks) {
  ScenarioMatrix m = default_matrix();
  m.topologies = {"canonical", "dual-lpf"};
  m.lpf_orders = {2, 6};
  m.lo_freqs_hz = {9.0e6, 10.0e6};
  m.fir_taps = {9, 17};
  const std::vector<Scenario> scenarios = m.expand();
  ASSERT_EQ(scenarios.size(), 16u);  // 2 x 2 x 2 x 2

  for (const Scenario& s : scenarios) {
    for (const path::BlockConfig& b : s.graph.blocks) {
      if (b.kind == path::BlockKind::kLpf) {
        EXPECT_TRUE(b.lpf.order == 2 || b.lpf.order == 6) << s.name;
      }
      if (b.kind == path::BlockKind::kMixer) {
        EXPECT_TRUE(b.lo.freq_hz == 9.0e6 || b.lo.freq_hz == 10.0e6) << s.name;
      }
      if (b.kind == path::BlockKind::kFir) {
        EXPECT_TRUE(b.fir_taps == 9u || b.fir_taps == 17u) << s.name;
      }
    }
    // Axis values are part of the scenario name.
    EXPECT_NE(s.name.find("/lo"), std::string::npos) << s.name;
    EXPECT_NE(s.name.find("/taps"), std::string::npos) << s.name;
  }
  // dual-lpf applies the order to BOTH filter blocks.
  for (const Scenario& s : scenarios) {
    if (s.graph.count(path::BlockKind::kLpf) == 2) {
      const auto first = *s.graph.index_of(path::BlockKind::kLpf);
      EXPECT_EQ(s.graph.blocks[first].lpf.order,
                s.graph.blocks[first + 1].lpf.order)
          << s.name;
    }
  }
}

TEST(ScenarioMatrix, UnknownTopologyIsRejected) {
  EXPECT_THROW(make_topology("ring-vco", path::reference_path_config()),
               std::invalid_argument);
  ScenarioMatrix m = default_matrix();
  m.topologies = {"canonical", "typo"};
  EXPECT_THROW(m.expand(), std::invalid_argument);
}

TEST(Topologies, ExecutedPathGainFallsInsideModelBudget) {
  // Every sweep topology runs as a transient and is measured through its
  // primary ports. Nominal devices sit off the model's nominal by their
  // compression bias, so only the model's worst-case budget is asserted.
  const path::PathConfig base = path::reference_path_config();
  const path::MeasureOptions opts;
  std::map<std::string, double> measured;
  for (const std::string name : {"canonical", "if-amp", "dual-lpf", "no-amp"}) {
    const path::PathGraphConfig g = make_topology(name, base);
    const core::Translator tr(g);
    stats::Rng noise(31);
    measured[name] = tr.measure_path_gain_db(path::PathGraph(g), noise, opts);
    const double f_lo = g.first(path::BlockKind::kMixer).lo.freq_hz;
    const stats::Uncertain model = tr.model().path_gain_db(f_lo + tr.test_if_freq(opts));
    EXPECT_NEAR(measured[name], model.nominal, model.wc) << name;
  }
  // Dropping the amplifier removes exactly its gain.
  EXPECT_NEAR(measured["canonical"] - measured["no-amp"], base.amp.gain_db.nominal, 0.05);
}

TEST(Sweep, RejectsEmptyScenarioList) {
  EXPECT_THROW(run_sweep({}, fast_opts()), std::invalid_argument);
}

TEST(Sweep, ScoresAreSaneAndRankingIsOrdered) {
  const SweepResult r = run_sweep(default_matrix().expand(), fast_opts());
  ASSERT_EQ(r.ranking.size(), 12u);
  for (const ScenarioScore& s : r.ranking) {
    EXPECT_GT(s.plan_tests, 0u) << s.name;
    EXPECT_EQ(s.translatable + s.dft_required, s.plan_tests) << s.name;
    EXPECT_GE(s.testability, 0.0);
    EXPECT_LE(s.testability, 1.0);
    EXPECT_GE(s.total_yield_loss, 0.0);
    EXPECT_GE(s.worst_fcl, 0.0);
    EXPECT_NE(s.content_hash, 0u) << s.name;
    // The MC cross-check tracks the analytic columns. FCL gets a looser
    // band: its denominator is the small defect population (a few percent of
    // the 4000 trials), so its sampling noise is an order larger than YL's.
    EXPECT_NEAR(s.mc_yield_loss, s.total_yield_loss, 0.05) << s.name;
    EXPECT_NEAR(s.mc_fcl, s.worst_fcl, 0.2) << s.name;
  }
  // Best-first by the documented total ordering.
  for (std::size_t i = 1; i < r.ranking.size(); ++i) {
    const ScenarioScore& hi = r.ranking[i - 1];
    const ScenarioScore& lo = r.ranking[i];
    EXPECT_GE(hi.testability, lo.testability) << hi.name << " vs " << lo.name;
    if (hi.testability == lo.testability) {
      EXPECT_LE(hi.total_yield_loss, lo.total_yield_loss)
          << hi.name << " vs " << lo.name;
    }
  }
}

// The acceptance contract: the ranking (names, every score, the fingerprint)
// is bit-identical at 1, 2 and 8 threads.
TEST(SweepThreadCounts, RankingAndFingerprintBitIdenticalAcrossThreadCounts) {
  const std::vector<Scenario> scenarios = default_matrix().expand();
  ASSERT_GE(scenarios.size(), 12u);
  const SweepResult serial = run_sweep(scenarios, fast_opts(1));
  for (const int threads : {2, 8}) {
    const SweepResult parallel = run_sweep(scenarios, fast_opts(threads));
    EXPECT_EQ(parallel.fingerprint, serial.fingerprint) << threads;
    ASSERT_EQ(parallel.ranking.size(), serial.ranking.size()) << threads;
    for (std::size_t i = 0; i < serial.ranking.size(); ++i) {
      const ScenarioScore& a = serial.ranking[i];
      const ScenarioScore& b = parallel.ranking[i];
      EXPECT_EQ(a.name, b.name) << threads;
      EXPECT_EQ(a.content_hash, b.content_hash) << threads;
      EXPECT_EQ(a.plan_tests, b.plan_tests) << threads;
      // Bit-level double comparisons — no tolerance.
      EXPECT_EQ(a.testability, b.testability) << threads << " " << a.name;
      EXPECT_EQ(a.total_yield_loss, b.total_yield_loss) << threads << " " << a.name;
      EXPECT_EQ(a.worst_fcl, b.worst_fcl) << threads << " " << a.name;
      EXPECT_EQ(a.mc_yield_loss, b.mc_yield_loss) << threads << " " << a.name;
      EXPECT_EQ(a.mc_fcl, b.mc_fcl) << threads << " " << a.name;
    }
  }
}

// The nested-parallelism acceptance pin: inner MC threading on
// (mc_threads = 0 -> nested task-sets on the same scheduler workers) must
// not move a single bit of any ranking, score, or fingerprint relative to
// the fully serial inner evaluation, at 1, 2 and 8 outer threads.
TEST(SweepThreadCounts, NestedInnerMcBitIdenticalAcrossThreadCounts) {
  const std::vector<Scenario> scenarios = default_matrix().expand();
  const SweepResult serial = run_sweep(scenarios, fast_opts(1));
  for (const int threads : {1, 2, 8}) {
    SweepOptions opts = fast_opts(threads);
    opts.mc_threads = 0;  // nested: MC blocks fan out inside scenario tasks
    const SweepResult nested = run_sweep(scenarios, opts);
    EXPECT_EQ(nested.fingerprint, serial.fingerprint) << threads;
    ASSERT_EQ(nested.ranking.size(), serial.ranking.size()) << threads;
    for (std::size_t i = 0; i < serial.ranking.size(); ++i) {
      EXPECT_EQ(serial.ranking[i].name, nested.ranking[i].name) << threads;
      EXPECT_EQ(serial.ranking[i].mc_yield_loss, nested.ranking[i].mc_yield_loss)
          << threads << " " << serial.ranking[i].name;
      EXPECT_EQ(serial.ranking[i].mc_fcl, nested.ranking[i].mc_fcl)
          << threads << " " << serial.ranking[i].name;
    }
  }
}

// A scenario whose synthesis throws fails the sweep with the scenario name
// in the message, and when several could fail the lowest-indexed failure
// wins at any thread count.
TEST(Sweep, PoisonedScenarioFailsTheSweepWithItsName) {
  std::vector<Scenario> scenarios = default_matrix().expand();
  scenarios.resize(6);
  // Poison one scenario mid-list: an empty graph fails synthesis validation.
  scenarios[3].name = "poisoned/mid";
  scenarios[3].graph.blocks.clear();
  for (const int threads : {1, 2, 8}) {
    try {
      (void)run_sweep(scenarios, fast_opts(threads));
      FAIL() << "expected std::runtime_error at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("poisoned/mid"), std::string::npos)
          << "threads=" << threads << " what()=" << e.what();
    }
  }

  // Two poisoned scenarios: the lowest index is the one reported.
  scenarios[5].name = "poisoned/late";
  scenarios[5].graph.blocks.clear();
  for (const int threads : {1, 8}) {
    try {
      (void)run_sweep(scenarios, fast_opts(threads));
      FAIL() << "expected std::runtime_error at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("poisoned/mid"), std::string::npos)
          << "threads=" << threads << " what()=" << e.what();
      EXPECT_EQ(std::string(e.what()).find("poisoned/late"), std::string::npos)
          << "threads=" << threads << " what()=" << e.what();
    }
  }
}

TEST(Sweep, SeedChangesMcColumnsButNotThePlan) {
  std::vector<Scenario> scenarios = default_matrix().expand();
  scenarios.resize(2);
  SweepOptions a = fast_opts();
  SweepOptions b = fast_opts();
  b.seed = a.seed + 1;
  const SweepResult ra = run_sweep(scenarios, a);
  const SweepResult rb = run_sweep(scenarios, b);
  // Plans are RNG-free; only the MC cross-check columns may move.
  bool mc_moved = false;
  for (std::size_t i = 0; i < ra.ranking.size(); ++i) {
    EXPECT_EQ(ra.ranking[i].content_hash, rb.ranking[i].content_hash);
    EXPECT_EQ(ra.ranking[i].total_yield_loss, rb.ranking[i].total_yield_loss);
    mc_moved |= (ra.ranking[i].mc_yield_loss != rb.ranking[i].mc_yield_loss);
  }
  EXPECT_TRUE(mc_moved);
}

TEST(Sweep, FormatRankingListsEveryScenario) {
  std::vector<Scenario> scenarios = default_matrix().expand();
  scenarios.resize(3);
  const SweepResult r = run_sweep(scenarios, fast_opts());
  const std::string table = format_ranking(r);
  for (const ScenarioScore& s : r.ranking) {
    EXPECT_NE(table.find(s.name), std::string::npos) << s.name;
  }
}

}  // namespace
}  // namespace msts::sweep
