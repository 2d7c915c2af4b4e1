// Tests for the composable path-graph layer (path/path_graph.h): the
// centralized construction-time validation rules, canonical graph
// derivation, composition of non-canonical topologies, the runtime
// contracts (workspace identity, volts conversion, first-of-kind accessors),
// the pinned bits of one sampled transient and the compiler-independent
// draw order of sampled devices.
#include "path/path_graph.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analog/sigma_delta.h"
#include "core/translation.h"
#include "dsp/tonegen.h"
#include "obs/config.h"
#include "obs/registry.h"
#include "path/lanes.h"
#include "path/receiver_path.h"
#include "stats/monte_carlo.h"

namespace msts::path {
namespace {

analog::Signal rf_tone(const PathGraphConfig& g, double freq, double amp,
                       std::size_t digital_n) {
  const dsp::Tone t{freq, amp, 0.0};
  analog::Signal s;
  s.fs = g.analog_fs;
  s.samples =
      dsp::generate_tones(std::span(&t, 1), 0.0, g.analog_fs,
                          digital_n * g.adc_decimation());
  return s;
}

// ---------------------------------------------------------------------------
// Flat PathConfig validation (centralized construction-time rules)
// ---------------------------------------------------------------------------

TEST(PathConfigValidation, ReferenceConfigIsValid) {
  EXPECT_NO_THROW(validate(reference_path_config()));
}

TEST(PathConfigValidation, RejectsNonPositiveOrNonFiniteAnalogFs) {
  for (const double bad : {0.0, -1.0e6, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    PathConfig c = reference_path_config();
    c.analog_fs = bad;
    EXPECT_THROW(validate(c), std::invalid_argument) << bad;
    EXPECT_THROW(ReceiverPath{c}, std::invalid_argument) << bad;
  }
}

TEST(PathConfigValidation, RejectsZeroDecimation) {
  PathConfig c = reference_path_config();
  c.adc_decimation = 0;
  EXPECT_THROW(validate(c), std::invalid_argument);
}

TEST(PathConfigValidation, RejectsEvenZeroOrTooShortFirTaps) {
  for (const std::size_t bad : {std::size_t{0}, std::size_t{1}, std::size_t{8},
                                std::size_t{16}}) {
    PathConfig c = reference_path_config();
    c.fir_taps = bad;
    EXPECT_THROW(validate(c), std::invalid_argument) << bad;
    EXPECT_THROW(ReceiverPath{c}, std::invalid_argument) << bad;
  }
}

TEST(PathConfigValidation, RejectsFirCutoffOutsideOpenInterval) {
  for (const double bad : {0.0, -0.1, 0.5, 0.7}) {
    PathConfig c = reference_path_config();
    c.fir_cutoff_norm = bad;
    EXPECT_THROW(validate(c), std::invalid_argument) << bad;
  }
}

TEST(PathConfigValidation, RejectsFracBitsOutsideInt32Budget) {
  for (const int bad : {0, -3, 31, 64}) {
    PathConfig c = reference_path_config();
    c.fir_coeff_frac_bits = bad;
    EXPECT_THROW(validate(c), std::invalid_argument) << bad;
  }
}

TEST(PathConfigValidation, RejectsAdcBitsOutsideFilterBudget) {
  for (const int bad : {0, 1, 25, 40}) {
    PathConfig c = reference_path_config();
    c.adc.bits = bad;
    EXPECT_THROW(validate(c), std::invalid_argument) << bad;
  }
}

TEST(PathConfigValidation, RejectsOddOrNonPositiveLpfOrder) {
  for (const int bad : {0, -2, 3, 5}) {
    PathConfig c = reference_path_config();
    c.lpf.order = bad;
    EXPECT_THROW(validate(c), std::invalid_argument) << bad;
  }
}

// ---------------------------------------------------------------------------
// Structural graph validation
// ---------------------------------------------------------------------------

PathGraphConfig canonical_graph() {
  return PathGraphConfig(reference_path_config());
}

TEST(PathGraphValidation, CanonicalGraphIsValidAndOrdered) {
  const PathGraphConfig g = canonical_graph();
  EXPECT_NO_THROW(validate(g));
  ASSERT_EQ(g.blocks.size(), 5u);
  EXPECT_EQ(g.blocks[0].kind, BlockKind::kAmp);
  EXPECT_EQ(g.blocks[1].kind, BlockKind::kMixer);
  EXPECT_EQ(g.blocks[2].kind, BlockKind::kLpf);
  EXPECT_EQ(g.blocks[3].kind, BlockKind::kAdc);
  EXPECT_EQ(g.blocks[4].kind, BlockKind::kFir);
  EXPECT_EQ(g.index_of(BlockKind::kAdc), std::optional<std::size_t>{3});
  EXPECT_EQ(g.count(BlockKind::kLpf), 1u);
  EXPECT_EQ(g.adc_decimation(), 8u);
  EXPECT_DOUBLE_EQ(g.digital_fs(), 4.0e6);
}

TEST(PathGraphValidation, RejectsEmptyGraph) {
  PathGraphConfig g = canonical_graph();
  g.blocks.clear();
  EXPECT_THROW(validate(g), std::invalid_argument);
}

TEST(PathGraphValidation, RequiresExactlyOneAdc) {
  PathGraphConfig none = canonical_graph();
  none.blocks.erase(none.blocks.begin() + 3);
  none.blocks.pop_back();  // the FIR would dangle without the ADC anyway
  EXPECT_THROW(validate(none), std::invalid_argument);

  PathGraphConfig two = canonical_graph();
  two.blocks.insert(two.blocks.begin() + 3, two.blocks[3]);
  EXPECT_THROW(validate(two), std::invalid_argument);
}

TEST(PathGraphValidation, RejectsAnalogBlocksBehindTheAdc) {
  PathGraphConfig g = canonical_graph();
  std::swap(g.blocks[2], g.blocks[3]);  // lpf behind the adc
  EXPECT_THROW(validate(g), std::invalid_argument);
}

TEST(PathGraphValidation, RejectsFirInFrontOfTheAdcOrRepeated) {
  PathGraphConfig front = canonical_graph();
  std::swap(front.blocks[3], front.blocks[4]);  // fir before the adc
  EXPECT_THROW(validate(front), std::invalid_argument);

  PathGraphConfig twice = canonical_graph();
  twice.blocks.push_back(twice.blocks[4]);
  EXPECT_THROW(validate(twice), std::invalid_argument);
}

TEST(PathGraphValidation, PerBlockRulesApplyInsideTheGraph) {
  PathGraphConfig g = canonical_graph();
  g.blocks[4].fir_taps = 12;  // even
  EXPECT_THROW(validate(g), std::invalid_argument);

  g = canonical_graph();
  g.blocks[3].adc_decimation = 0;
  EXPECT_THROW(validate(g), std::invalid_argument);

  for (const int order : {3, 0, 18}) {
    g = canonical_graph();
    g.blocks[2].lpf.order = order;
    EXPECT_THROW(validate(g), std::invalid_argument) << order;
  }
  g = canonical_graph();
  g.blocks[2].lpf.order = 16;
  EXPECT_NO_THROW(validate(g));

  g = canonical_graph();
  g.analog_fs = -1.0;
  EXPECT_THROW(validate(g), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Composition and runtime
// ---------------------------------------------------------------------------

TEST(PathGraph, NominalRunHasConsistentDimensions) {
  const PathGraphConfig cfg = canonical_graph();
  const PathGraph g(cfg);
  stats::Rng rng(1);
  const auto trace = g.run(rf_tone(cfg, 10.5e6, 1e-3, 1024), rng);
  ASSERT_EQ(trace.analog_stages.size(), 3u);  // amp, mixer, lpf outputs
  EXPECT_EQ(trace.analog_stages[0].size(), 1024u * cfg.adc_decimation());
  EXPECT_EQ(trace.adc_codes.size(), 1024u);
  EXPECT_EQ(trace.filter_out.size(), 1024u);
  EXPECT_DOUBLE_EQ(trace.digital_fs, 4.0e6);
}

TEST(PathGraph, NonCanonicalTopologiesComposeAndRun) {
  const PathConfig base = reference_path_config();
  // Amp at IF: same block multiset as canonical, different arrangement.
  PathGraphConfig if_amp;
  if_amp.analog_fs = base.analog_fs;
  if_amp.blocks = {BlockConfig::make_mixer(base.mixer, base.lo),
                   BlockConfig::make_amp(base.amp),
                   BlockConfig::make_lpf(base.lpf),
                   BlockConfig::make_adc(base.adc, base.adc_decimation),
                   BlockConfig::make_fir(base.fir_taps, base.fir_cutoff_norm,
                                         base.fir_coeff_frac_bits)};
  // Passive front end, no digital filter.
  PathGraphConfig no_amp;
  no_amp.analog_fs = base.analog_fs;
  no_amp.blocks = {BlockConfig::make_mixer(base.mixer, base.lo),
                   BlockConfig::make_lpf(base.lpf),
                   BlockConfig::make_adc(base.adc, base.adc_decimation)};

  for (const PathGraphConfig& cfg : {if_amp, no_amp}) {
    const PathGraph g(cfg);
    stats::Rng rng(2);
    const auto trace = g.run(rf_tone(cfg, 10.5e6, 1e-3, 512), rng);
    EXPECT_EQ(trace.adc_codes.size(), 512u);
    const auto volts = g.output_volts(trace);
    if (cfg.count(BlockKind::kFir) == 0) {
      EXPECT_TRUE(trace.filter_out.empty());
      EXPECT_EQ(volts.size(), trace.adc_codes.size());
      EXPECT_DOUBLE_EQ(g.fir_magnitude_at(0.4e6), 1.0);
    } else {
      EXPECT_EQ(volts.size(), trace.filter_out.size());
    }
    // The tone got through: some code is nonzero.
    bool nonzero = false;
    for (const std::int64_t c : trace.adc_codes) nonzero |= (c != 0);
    EXPECT_TRUE(nonzero);
  }
}

TEST(PathGraph, WorkspaceRunIsBitIdenticalToAllocatingRun) {
  const PathGraphConfig cfg = canonical_graph();
  const PathGraph g(cfg);
  const auto rf = rf_tone(cfg, 10.4e6, 1e-3, 512);

  stats::Rng rng_a(42);
  const auto fresh = g.run(rf, rng_a);

  GraphWorkspace ws;
  for (int round = 0; round < 3; ++round) {
    stats::Rng rng_b(42);
    const auto& reused = g.run(rf, rng_b, ws);
    ASSERT_EQ(reused.adc_codes, fresh.adc_codes) << "round " << round;
    ASSERT_EQ(reused.filter_out, fresh.filter_out) << "round " << round;
    for (std::size_t s = 0; s < fresh.analog_stages.size(); ++s) {
      ASSERT_EQ(reused.analog_stages[s].samples, fresh.analog_stages[s].samples)
          << "round " << round << " stage " << s;
    }
  }
}

TEST(PathGraph, OutputVoltsIntoMatchesValueForm) {
  const PathGraphConfig cfg = canonical_graph();
  const PathGraph g(cfg);
  stats::Rng rng(3);
  const auto trace = g.run(rf_tone(cfg, 10.4e6, 1e-3, 256), rng);
  const auto by_value = g.output_volts(trace);
  std::vector<double> into(7, -99.0);
  g.output_volts_into(trace, into);
  EXPECT_EQ(into, by_value);
}

TEST(PathGraph, SampledIsDeterministicPerSeed) {
  const PathGraphConfig cfg = canonical_graph();
  stats::Rng mc_a(9), mc_b(9), mc_c(10);
  const PathGraph a = PathGraph::sampled(cfg, mc_a);
  const PathGraph b = PathGraph::sampled(cfg, mc_b);
  const PathGraph c = PathGraph::sampled(cfg, mc_c);

  const auto rf = rf_tone(cfg, 10.4e6, 1e-3, 256);
  stats::Rng na(5), nb(5), nc(5);
  const auto ta = a.run(rf, na);
  const auto tb = b.run(rf, nb);
  const auto tc = c.run(rf, nc);
  EXPECT_EQ(ta.filter_out, tb.filter_out);
  EXPECT_NE(ta.filter_out, tc.filter_out);
}

// FNV-1a over the bytes of each code, least significant byte first.
std::uint64_t fnv1a(const std::vector<std::int64_t>& codes) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const std::int64_t c : codes) {
    const auto u = static_cast<std::uint64_t>(c);
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (u >> shift) & 0xFFu;
      h *= 0x100000001B3ull;
    }
  }
  return h;
}

TEST(PathGraph, SampledTransientIsPinned) {
  // The exact bits of one manufactured device's transient under the
  // translator's two-tone stimulus. A change in how the stages consume the
  // noise stream moves these hashes even where every statistical test
  // still passes.
  const PathConfig config = reference_path_config();
  const core::Translator translator(config);
  const MeasureOptions opts;
  const auto [f1, f2] = translator.test_two_tone(opts);
  const double amp = translator.linear_drive_vpeak();
  const dsp::Tone tones[] = {{config.lo.freq_hz + f1, amp, 0.0},
                             {config.lo.freq_hz + f2, amp, 0.0}};
  analog::Signal rf;
  rf.fs = config.analog_fs;
  rf.samples = dsp::generate_tones(tones, 0.0, config.analog_fs,
                                   opts.digital_record * config.adc_decimation);

  stats::Rng rng(5);
  const PathGraph device = PathGraph::sampled(config, rng);
  const auto trace = device.run(rf, rng);
  EXPECT_EQ(fnv1a(trace.adc_codes), 0xA04020C6E5B6932Aull);
  EXPECT_EQ(fnv1a(trace.filter_out), 0x240D85D9A6DB8D7Full);
}

TEST(PathGraph, ReceiverPathExposesItsGraph) {
  // ReceiverPath names the canonical graph; the named block accessors
  // resolve to the first block of each kind.
  const ReceiverPath p(reference_path_config());
  ASSERT_EQ(p.size(), 5u);
  EXPECT_EQ(p.kind_at(0), BlockKind::kAmp);
  EXPECT_EQ(p.kind_at(4), BlockKind::kFir);
  EXPECT_EQ(&p.amp(), &p.amp_at(0));
  EXPECT_EQ(&p.mixer(), &p.mixer_at(1).mixer);
  EXPECT_EQ(&p.lo(), &p.mixer_at(1).lo);
  EXPECT_EQ(&p.lpf(), &p.lpf_at(2));
  EXPECT_EQ(&p.adc(), &p.adc_at(3).adc);
  EXPECT_EQ(&p.fir(), &p.fir_at(4));

  PathGraphConfig no_amp = canonical_graph();
  no_amp.blocks.erase(no_amp.blocks.begin());
  const PathGraph g(no_amp);
  EXPECT_EQ(&g.lpf(), &g.lpf_at(1));
  try {
    (void)g.amp();
    ADD_FAILURE() << "amp() on a graph without an amplifier must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("path graph has no amp block"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Draw order of sampled devices: graph order, each block's fields in
// declaration order — never the compiler's argument-evaluation order.
// ---------------------------------------------------------------------------

// Every drawn parameter a block exposes. The ADC's INL curve carries its
// DNL sigma and pattern seed.
std::vector<double> params(const analog::Amplifier& a) {
  return {a.actual_gain_db(), a.actual_iip3_dbm(), a.actual_p1db_in_dbm(),
          a.actual_nf_db(), a.actual_dc_offset_v()};
}
std::vector<double> params(const analog::Mixer& m) {
  return {m.actual_conv_gain_db(), m.actual_iip3_dbm(), m.actual_p1db_in_dbm(),
          m.actual_lo_isolation_db(), m.actual_nf_db()};
}
std::vector<double> params(const analog::LocalOscillator& lo) {
  return {lo.actual_freq_error_ppm(), lo.actual_phase_noise_rad()};
}
std::vector<double> params(const analog::LowPassFilter& f) {
  return {f.actual_cutoff_hz(), f.actual_passband_gain_db(), f.actual_clock_spur_v()};
}
std::vector<double> params(const analog::Adc& a) {
  std::vector<double> v = {a.actual_offset_error_v(), a.actual_gain_error(),
                           a.actual_inl_peak_lsb()};
  for (const double u : {-0.9, -0.4, 0.1, 0.6}) v.push_back(a.inl_at(u));
  return v;
}

// Both streams sit at the same point, including a cached normal deviate.
void expect_same_stream(stats::Rng a, stats::Rng b) {
  EXPECT_EQ(a.normal(), b.normal());
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

// Samples each block of g's graph in graph order from `by_hand`, a copy of
// the stream g was drawn from, checks g holds the same blocks, and returns
// the stream where sampling g must have left it.
stats::Rng redraw_in_graph_order(const PathGraph& g, stats::Rng by_hand) {
  for (std::size_t i = 0; i < g.size(); ++i) {
    const BlockConfig& b = g.config().blocks[i];
    switch (b.kind) {
      case BlockKind::kAmp:
        EXPECT_EQ(params(g.amp_at(i)), params(analog::Amplifier::sampled(b.amp, by_hand)))
            << "block " << i;
        break;
      case BlockKind::kMixer: {
        const analog::Mixer mixer = analog::Mixer::sampled(b.mixer, by_hand);
        const auto lo = analog::LocalOscillator::sampled(b.lo, by_hand);
        EXPECT_EQ(params(g.mixer_at(i).mixer), params(mixer)) << "block " << i;
        EXPECT_EQ(params(g.mixer_at(i).lo), params(lo)) << "block " << i;
        break;
      }
      case BlockKind::kLpf:
        EXPECT_EQ(params(g.lpf_at(i)),
                  params(analog::LowPassFilter::sampled(b.lpf, by_hand)))
            << "block " << i;
        break;
      case BlockKind::kAdc:
        EXPECT_EQ(params(g.adc_at(i).adc), params(analog::Adc::sampled(b.adc, by_hand)))
            << "block " << i;
        break;
      case BlockKind::kFir:
        break;
    }
  }
  return by_hand;
}

TEST(DrawOrder, GraphSamplesBlocksInGraphOrder) {
  PathGraphConfig if_amp = canonical_graph();
  std::swap(if_amp.blocks[0], if_amp.blocks[1]);
  for (const PathGraphConfig& cfg : {canonical_graph(), if_amp}) {
    stats::Rng rng(42);
    const stats::Rng copy = rng;
    const PathGraph g = PathGraph::sampled(cfg, rng);
    expect_same_stream(rng, redraw_in_graph_order(g, copy));
  }
  // The flat spelling draws the canonical graph the same way.
  stats::Rng rng(42);
  const stats::Rng copy = rng;
  const ReceiverPath r = ReceiverPath::sampled(reference_path_config(), rng);
  expect_same_stream(rng, redraw_in_graph_order(r, copy));
}

TEST(DrawOrder, BlocksDrawFieldsInDeclarationOrder) {
  const PathConfig c = reference_path_config();
  {
    stats::Rng rng(7), by_hand(7);
    const auto a = analog::Amplifier::sampled(c.amp, rng);
    const double gain = stats::sample(c.amp.gain_db, by_hand);
    const double iip3 = stats::sample(c.amp.iip3_dbm, by_hand);
    (void)stats::sample(c.amp.iip2_dbm, by_hand);  // no accessor
    const double p1db = stats::sample(c.amp.p1db_in_dbm, by_hand);
    const double nf = std::max(0.0, stats::sample(c.amp.nf_db, by_hand));
    const double dc = stats::sample(c.amp.dc_offset_v, by_hand);
    EXPECT_EQ(params(a), (std::vector<double>{gain, iip3, p1db, nf, dc}));
    expect_same_stream(rng, by_hand);
  }
  {
    stats::Rng rng(7), by_hand(7);
    const auto m = analog::Mixer::sampled(c.mixer, rng);
    const double gain = stats::sample(c.mixer.conv_gain_db, by_hand);
    const double iip3 = stats::sample(c.mixer.iip3_dbm, by_hand);
    const double p1db = stats::sample(c.mixer.p1db_in_dbm, by_hand);
    const double iso = stats::sample(c.mixer.lo_isolation_db, by_hand);
    const double nf = std::max(0.0, stats::sample(c.mixer.nf_db, by_hand));
    EXPECT_EQ(params(m), (std::vector<double>{gain, iip3, p1db, iso, nf}));
    expect_same_stream(rng, by_hand);
  }
  {
    stats::Rng rng(7), by_hand(7);
    const auto lo = analog::LocalOscillator::sampled(c.lo, rng);
    const double ppm = stats::sample(c.lo.freq_error_ppm, by_hand);
    const double pn = std::max(0.0, stats::sample(c.lo.phase_noise_rad, by_hand));
    EXPECT_EQ(params(lo), (std::vector<double>{ppm, pn}));
    expect_same_stream(rng, by_hand);
  }
  {
    stats::Rng rng(7), by_hand(7);
    const auto f = analog::LowPassFilter::sampled(c.lpf, rng);
    const double fc = stats::sample(c.lpf.cutoff_hz, by_hand);
    const double gain = stats::sample(c.lpf.passband_gain_db, by_hand);
    const double spur = std::abs(stats::sample(c.lpf.clock_spur_v, by_hand));
    EXPECT_EQ(params(f), (std::vector<double>{fc, gain, spur}));
    expect_same_stream(rng, by_hand);
  }
  {
    // DNL sigma and the pattern seed (drawn last) shape only the INL table.
    stats::Rng rng(7), by_hand(7);
    const auto a = analog::Adc::sampled(c.adc, rng);
    EXPECT_EQ(a.actual_offset_error_v(), stats::sample(c.adc.offset_error_v, by_hand));
    EXPECT_EQ(a.actual_gain_error(), stats::sample(c.adc.gain_error, by_hand));
    EXPECT_EQ(a.actual_inl_peak_lsb(), stats::sample(c.adc.inl_peak_lsb, by_hand));
    (void)stats::sample(c.adc.dnl_sigma_lsb, by_hand);
    (void)by_hand.next_u64();
    expect_same_stream(rng, by_hand);
  }
  {
    const analog::SigmaDeltaParams p;
    stats::Rng rng(7), by_hand(7);
    const auto m = analog::SigmaDeltaModulator::sampled(p, rng);
    EXPECT_EQ(m.actual_integrator_gain(),
              1.0 + stats::sample(p.integrator_gain_error, by_hand));
    (void)stats::sample(p.integrator_leak, by_hand);  // no accessor
    EXPECT_EQ(m.actual_dac_mismatch_v(), stats::sample(p.dac_mismatch_v, by_hand));
    expect_same_stream(rng, by_hand);
  }
}

// ---------------------------------------------------------------------------
// Lane walk (path/lanes.h)
// ---------------------------------------------------------------------------

TEST(PathLanes, CountsKTimesOneDeviceSamples) {
  // path.run.analog_samples counts the analog samples a walk generates, so
  // a kLanes batch reads exactly kLanes one-device runs: any saving in a
  // traced run is then time at a work ratio of exactly 1.
  const obs::Config prior = obs::current_config();
  obs::Config cfg;
  cfg.metrics = true;
  obs::configure(cfg);
  const PathConfig config = reference_path_config();
  analog::Signal rf;
  rf.fs = config.analog_fs;
  rf.samples.assign(4096, 0.0);
  stats::Rng rng(3);
  std::vector<PathGraph> devices;
  for (std::size_t l = 0; l < kLanes; ++l) devices.push_back(PathGraph::sampled(config, rng));
  auto samples = [] {
    std::uint64_t n = 0, lane_spans = 0;
    for (const obs::Metric& m : obs::Registry::instance().snapshot()) {
      if (m.name == "path.run.analog_samples") n = m.count;
      if (m.name == "path.run_lanes") lane_spans = m.count;
    }
    return std::pair{n, lane_spans};
  };
  obs::Registry::instance().reset();
  (void)devices[0].run(rf, rng);
  const auto one = samples();
  obs::Registry::instance().reset();
  std::vector<const PathGraph*> ptrs;
  std::vector<stats::Rng> streams(kLanes, rng);
  std::vector<stats::Rng*> rngs;
  for (std::size_t l = 0; l < kLanes; ++l) {
    ptrs.push_back(&devices[l]);
    rngs.push_back(&streams[l]);
  }
  LaneWorkspace ws;
  run_lanes(ptrs, rf, rngs, ws);
  const auto lanes = samples();
  obs::Registry::instance().reset();
  obs::configure(prior);
  EXPECT_EQ(one.first, rf.size());
  EXPECT_EQ(lanes.first, kLanes * one.first);
  EXPECT_EQ(lanes.second, 1u);
}

TEST(PathLanes, RejectsMixedStructuresAndBadBatches) {
  const PathConfig config = reference_path_config();
  PathConfig order6 = config;
  order6.lpf.order = 6;
  stats::Rng rng(4);
  const PathGraph a = PathGraph::sampled(config, rng);
  const PathGraph b = PathGraph::sampled(order6, rng);
  analog::Signal rf;
  rf.fs = config.analog_fs;
  rf.samples.assign(256, 0.0);
  stats::Rng r0(1), r1(2);
  std::vector<stats::Rng*> two = {&r0, &r1};
  LaneWorkspace ws;
  const std::vector<const PathGraph*> mixed = {&a, &b};
  EXPECT_THROW(run_lanes(mixed, rf, two, ws), std::invalid_argument);
  const std::vector<const PathGraph*> one = {&a};
  EXPECT_THROW(run_lanes(one, rf, two, ws), std::invalid_argument);
  const std::vector<const PathGraph*> too_many(kLanes + 1, &a);
  std::vector<stats::Rng> streams(kLanes + 1, r0);
  std::vector<stats::Rng*> many;
  for (stats::Rng& r : streams) many.push_back(&r);
  EXPECT_THROW(run_lanes(too_many, rf, many, ws), std::invalid_argument);
}

TEST(PathLanes, TranslatedIip3MatchesOneDeviceAtATime) {
  // Six devices (a full batch and a partial one), adaptive and nominal:
  // each lane's measurement and its stream afterwards equal the one-device
  // call's, bit for bit.
  const PathConfig config = reference_path_config();
  const core::Translator translator(config);
  MeasureOptions opts;
  opts.digital_record = 512;
  for (const bool adaptive : {true, false}) {
    stats::Rng make(11);
    std::vector<PathGraph> devices;
    std::vector<stats::Rng> lane_rngs, one_rngs;
    for (int d = 0; d < 6; ++d) {
      stats::Rng r = make.split();
      devices.push_back(PathGraph::sampled(config, r));
      lane_rngs.push_back(r);
      one_rngs.push_back(r);
    }
    std::vector<const PathGraph*> ptrs;
    std::vector<stats::Rng*> rngs;
    for (int d = 0; d < 6; ++d) {
      ptrs.push_back(&devices[d]);
      rngs.push_back(&lane_rngs[d]);
    }
    std::vector<double> lanes(6);
    translator.measure_mixer_iip3_dbm(ptrs, rngs, adaptive, lanes, opts);
    for (int d = 0; d < 6; ++d) {
      const double one =
          translator.measure_mixer_iip3_dbm(devices[d], one_rngs[d], adaptive, opts);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(lanes[d]), std::bit_cast<std::uint64_t>(one))
          << "device " << d << (adaptive ? " adaptive" : " nominal");
      EXPECT_TRUE(lane_rngs[d] == one_rngs[d]) << "device " << d;
    }
  }
}

}  // namespace
}  // namespace msts::path
