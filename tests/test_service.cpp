// Tests for the synthesis service (src/service): canonical content keys,
// the result memo, the bounded-admission engine, and — the core contract —
// that a served result is bit-identical to a direct
// TestSynthesizer::synthesize() call, cache on or off, under any amount of
// submitter concurrency. The Service* suites also run under the TSan tier-1
// leg (see ROADMAP.md).
#include "service/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/memo.h"
// Counts allocations for ServiceEngine.ServedHitAllocationsArePinned.
#include "counting_new.h"
#include "obs/config.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "service/request.h"
#include "stats/rng.h"

namespace msts::service {
namespace {

SynthesisRequest make_request(int variant = 0) {
  SynthesisRequest req;
  req.config = path::reference_path_config();
  // Distinct-but-valid configs: shift a couple of nominals by a small,
  // index-dependent amount (tolerances untouched).
  req.config.amp.gain_db.nominal += 0.01 * static_cast<double>(variant % 17);
  req.config.mixer.conv_gain_db.nominal -= 0.005 * static_cast<double>(variant % 13);
  return req;
}

// ---------------------------------------------------------------------------
// Content keys and fingerprints
// ---------------------------------------------------------------------------

TEST(ServiceRequest, ContentKeyIsDeterministic) {
  const SynthesisRequest a = make_request(3);
  const SynthesisRequest b = make_request(3);
  EXPECT_EQ(content_key(a), content_key(b));
  EXPECT_EQ(content_hash(a), content_hash(b));
}

TEST(ServiceRequest, ContentKeyDistinguishesConfigsAndOptions) {
  const SynthesisRequest base = make_request();
  const std::string key = content_key(base);

  SynthesisRequest cfg = base;
  cfg.config.amp.gain_db.nominal += 1e-12;  // bit-level sensitivity
  EXPECT_NE(content_key(cfg), key);

  SynthesisRequest tol = base;
  tol.config.lpf.cutoff_hz.sigma *= 1.0000001;
  EXPECT_NE(content_key(tol), key);

  SynthesisRequest adaptive = base;
  adaptive.options.adaptive = false;
  EXPECT_NE(content_key(adaptive), key);

  SynthesisRequest sigmas = base;
  sigmas.options.spec_sigmas = 2.5;
  EXPECT_NE(content_key(sigmas), key);

  SynthesisRequest record = base;
  record.options.measure.digital_record *= 2;
  EXPECT_NE(content_key(record), key);

  // use_cache routes the request; it must NOT change the key.
  SynthesisRequest uncached = base;
  uncached.options.use_cache = false;
  EXPECT_EQ(content_key(uncached), key);
}

// The content key always serializes the *effective graph*, so the flat
// canonical request and its explicit-graph form are one cache entry.
TEST(ServiceRequest, FlatAndCanonicalGraphRequestsShareOneKey) {
  const SynthesisRequest flat = make_request();
  SynthesisRequest graphed = flat;
  graphed.graph = path::PathGraphConfig(flat.config);
  EXPECT_EQ(content_key(graphed), content_key(flat));
  EXPECT_EQ(content_hash(graphed), content_hash(flat));

  // ...and the served payloads are bit-identical too.
  EXPECT_EQ(result_content(synthesize_direct(graphed)),
            result_content(synthesize_direct(flat)));
}

// Key sensitivity over the graph description: block order and every
// per-block field must feed the key (mirror of the flat-config cases in
// ContentKeyDistinguishesConfigsAndOptions).
TEST(ServiceRequest, ContentKeyCoversGraphArrangementAndBlockFields) {
  SynthesisRequest base = make_request();
  base.graph = path::PathGraphConfig(base.config);
  const std::string key = content_key(base);

  // An explicit graph takes precedence: once set, the flat config is inert.
  {
    SynthesisRequest r = base;
    r.config.amp.gain_db.nominal += 1.0;
    EXPECT_EQ(content_key(r), key);
  }

  // Block arrangement: amp at RF vs amp at IF is a different path even
  // though the multiset of blocks is identical.
  {
    SynthesisRequest r = base;
    std::swap(r.graph->blocks[0], r.graph->blocks[1]);  // amp <-> mixer
    EXPECT_NE(content_key(r), key);
  }
  // A repeated block is a different path as well.
  {
    SynthesisRequest r = base;
    r.graph->blocks.insert(r.graph->blocks.begin() + 2, r.graph->blocks[2]);
    EXPECT_NE(content_key(r), key);
  }

  // Graph-level fields.
  {
    SynthesisRequest r = base;
    r.graph->analog_fs *= 1.0000001;
    EXPECT_NE(content_key(r), key);
  }
  {
    SynthesisRequest r = base;
    r.graph->analog_flatness_db.wc += 1e-9;
    EXPECT_NE(content_key(r), key);
  }

  // One representative field per block kind, bit-level deltas.
  {
    SynthesisRequest r = base;
    r.graph->blocks[0].amp.gain_db.nominal += 1e-12;
    EXPECT_NE(content_key(r), key);
  }
  {
    SynthesisRequest r = base;
    r.graph->blocks[1].mixer.iip3_dbm.sigma *= 1.0000001;
    EXPECT_NE(content_key(r), key);
  }
  {
    SynthesisRequest r = base;
    r.graph->blocks[1].lo.freq_hz += 1.0;
    EXPECT_NE(content_key(r), key);
  }
  {
    SynthesisRequest r = base;
    r.graph->blocks[2].lpf.order = 6;
    EXPECT_NE(content_key(r), key);
  }
  {
    SynthesisRequest r = base;
    r.graph->blocks[3].adc.bits = 10;
    EXPECT_NE(content_key(r), key);
  }
  {
    SynthesisRequest r = base;
    r.graph->blocks[3].adc_decimation = 4;
    EXPECT_NE(content_key(r), key);
  }
  {
    SynthesisRequest r = base;
    r.graph->blocks[4].fir_taps = 17;
    EXPECT_NE(content_key(r), key);
  }
  {
    SynthesisRequest r = base;
    r.graph->blocks[4].fir_coeff_frac_bits = 12;
    EXPECT_NE(content_key(r), key);
  }
}

TEST(ServiceRequest, MeasurementSetupIsCoherentAndDeterministic) {
  const auto config = path::reference_path_config();
  const MeasurementSetup a = make_measurement_setup(config);
  const MeasurementSetup b = make_measurement_setup(config);
  EXPECT_EQ(a.if_freq_hz, b.if_freq_hz);
  EXPECT_EQ(a.two_tone_f1_hz, b.two_tone_f1_hz);
  EXPECT_EQ(a.two_tone_f2_hz, b.two_tone_f2_hz);
  EXPECT_EQ(a.drive_vpeak, b.drive_vpeak);
  EXPECT_EQ(a.analog_fs_hz, config.analog_fs);
  EXPECT_DOUBLE_EQ(a.digital_fs_hz, config.digital_fs());
  EXPECT_GT(a.if_freq_hz, 0.0);
  EXPECT_LT(a.if_freq_hz, a.digital_fs_hz / 2.0);
  EXPECT_LT(a.two_tone_f1_hz, a.two_tone_f2_hz);
  EXPECT_GT(a.drive_vpeak, 0.0);
}

TEST(ServiceRequest, ResultFingerprintTracksContent) {
  const SynthesisResult r1 = synthesize_direct(make_request(1));
  const SynthesisResult r1b = synthesize_direct(make_request(1));
  const SynthesisResult r2 = synthesize_direct(make_request(2));
  EXPECT_EQ(result_content(r1), result_content(r1b));
  EXPECT_EQ(result_fingerprint(r1), result_fingerprint(r1b));
  EXPECT_NE(result_content(r1), result_content(r2));
}

// The four block arrangements of the scenario sweep over one config:
// canonical, if-amp, dual-lpf, no-amp.
path::PathGraphConfig pinned_topology(int topology, const path::PathConfig& c) {
  using path::BlockConfig;
  const BlockConfig amp = BlockConfig::make_amp(c.amp);
  const BlockConfig mixer = BlockConfig::make_mixer(c.mixer, c.lo);
  const BlockConfig lpf = BlockConfig::make_lpf(c.lpf);
  const BlockConfig adc = BlockConfig::make_adc(c.adc, c.adc_decimation);
  const BlockConfig fir =
      BlockConfig::make_fir(c.fir_taps, c.fir_cutoff_norm, c.fir_coeff_frac_bits);
  path::PathGraphConfig g;
  g.analog_fs = c.analog_fs;
  g.analog_flatness_db = c.analog_flatness_db;
  switch (topology) {
    case 0: g.blocks = {amp, mixer, lpf, adc, fir}; break;
    case 1: g.blocks = {mixer, amp, lpf, adc, fir}; break;
    case 2: g.blocks = {amp, mixer, lpf, lpf, adc, fir}; break;
    default: g.blocks = {mixer, lpf, adc, fir}; break;
  }
  return g;
}

// Every byte a served plan carries, pinned: one FNV-1a over the result
// fingerprint and the content hash of 400 seeded requests spanning the four
// topologies (the canonical one both flat and as an explicit graph), LPF
// orders 2/4/6, adaptive on and off, spec placements from 0.5 to 6 sigma and
// three record lengths. Synthesis consumes no randomness and touches no SIMD
// kernel, so the literal holds on every thread count and backend; it moves
// only when a plan's content does.
TEST(ServiceRequest, ResultFingerprintsArePinned) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  stats::Rng rng(20260417);
  const std::size_t records[] = {2048, 4096, 8192};
  for (int i = 0; i < 400; ++i) {
    SynthesisRequest req;
    path::PathConfig& c = req.config;
    c = path::reference_path_config();
    c.amp.gain_db.nominal += rng.uniform(-0.5, 0.5);
    c.amp.iip3_dbm.nominal += rng.uniform(-1.0, 1.0);
    c.mixer.conv_gain_db.nominal += rng.uniform(-0.5, 0.5);
    c.mixer.iip3_dbm.nominal += rng.uniform(-1.0, 1.0);
    c.mixer.p1db_in_dbm.nominal += rng.uniform(-0.5, 0.5);
    c.lpf.cutoff_hz.nominal *= 1.0 + rng.uniform(-0.05, 0.05);
    c.lpf.order = 2 + 2 * (i % 3);
    const int topology = (i / 3) % 4;
    if (topology != 0 || i % 2 == 1) req.graph = pinned_topology(topology, c);
    req.options.adaptive = (i / 12) % 2 == 0;
    req.options.spec_sigmas = rng.uniform(0.5, 6.0);
    req.options.measure.digital_record = records[(i / 24) % 3];
    fold(result_fingerprint(synthesize_direct(req)));
    fold(content_hash(req));
  }
  EXPECT_EQ(h, 0x843df19fe3b9bcaeull);
}

// ---------------------------------------------------------------------------
// The result memo (base/memo.h), instantiated as the engine holds it
// ---------------------------------------------------------------------------

TEST(ServiceCache, InsertLookupAndFirstWins) {
  Memo<std::string, SynthesisResult> cache;
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup("k"), nullptr);

  auto first = std::make_shared<const SynthesisResult>();
  auto second = std::make_shared<const SynthesisResult>();
  EXPECT_EQ(cache.insert("k", first), first);
  EXPECT_EQ(cache.size(), 1u);
  // Losing a publication race adopts the existing entry.
  EXPECT_EQ(cache.insert("k", second), first);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup("k"), first);
  EXPECT_EQ(cache.lookup("other"), nullptr);
}

// ---------------------------------------------------------------------------
// SynthesisEngine
// ---------------------------------------------------------------------------

TEST(ServiceEngine, ServedBitIdenticalToDirectWithCache) {
  SynthesisEngine engine;
  const SynthesisRequest request = make_request();
  const std::string direct = result_content(synthesize_direct(request));

  const Served miss = engine.submit(request).get();
  ASSERT_NE(miss.result, nullptr);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_EQ(result_content(*miss.result), direct);

  const Served hit = engine.submit(request).get();
  ASSERT_NE(hit.result, nullptr);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.result, miss.result);  // one shared immutable object
  EXPECT_EQ(result_content(*hit.result), direct);
  EXPECT_EQ(engine.cache_size(), 1u);
}

TEST(ServiceEngine, ServedBitIdenticalToDirectWithoutCache) {
  SynthesisEngine engine;
  SynthesisRequest request = make_request();
  request.options.use_cache = false;
  const std::string direct = result_content(synthesize_direct(request));

  const Served a = engine.submit(request).get();
  const Served b = engine.submit(request).get();
  EXPECT_FALSE(a.cache_hit);
  EXPECT_FALSE(b.cache_hit);
  EXPECT_NE(a.result, b.result);  // independent copies
  EXPECT_EQ(result_content(*a.result), direct);
  EXPECT_EQ(result_content(*b.result), direct);
  EXPECT_EQ(engine.cache_size(), 0u);
}

TEST(ServiceEngine, PerRequestCacheOptOut) {
  SynthesisEngine engine;
  SynthesisRequest request = make_request();
  (void)engine.submit(request).get();  // populate

  request.options.use_cache = false;
  const Served bypass = engine.submit(request).get();
  EXPECT_FALSE(bypass.cache_hit);
  EXPECT_EQ(result_content(*bypass.result),
            result_content(synthesize_direct(request)));
}

TEST(ServiceEngine, RunBatchPreservesRequestOrder) {
  SynthesisEngine engine;
  // Duplicates on purpose: 8 requests over 4 distinct configs.
  std::vector<SynthesisRequest> requests;
  std::vector<std::string> expected;
  for (int i = 0; i < 8; ++i) {
    requests.push_back(make_request(i % 4));
    expected.push_back(result_content(synthesize_direct(requests.back())));
  }

  const std::vector<Served> served = engine.run_batch(requests);
  ASSERT_EQ(served.size(), requests.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    ASSERT_NE(served[i].result, nullptr) << i;
    EXPECT_EQ(result_content(*served[i].result), expected[i]) << i;
  }
  EXPECT_EQ(engine.cache_size(), 4u);
  EXPECT_EQ(engine.in_flight(), 0u);
}

TEST(ServiceEngine, TrySubmitRefusesWhenQueueFull) {
  EngineOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  SynthesisEngine engine(options);
  EXPECT_EQ(engine.queue_capacity(), 2u);

  // Pump a burst of non-blocking submissions; with capacity 2 and a single
  // worker that needs ~hundreds of microseconds per miss, the burst must see
  // at least one refusal, and admissions never exceed the bound.
  std::vector<std::future<Served>> accepted;
  std::size_t rejected = 0;
  for (int i = 0; i < 64; ++i) {
    EXPECT_LE(engine.in_flight(), engine.queue_capacity());
    auto f = engine.try_submit(make_request(i));
    if (f.has_value()) {
      accepted.push_back(std::move(*f));
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GE(accepted.size(), 1u);
  for (auto& f : accepted) {
    EXPECT_NE(f.get().result, nullptr);
  }
}

TEST(ServiceEngine, SynthesisErrorPropagatesThroughFuture) {
  SynthesisEngine engine;
  SynthesisRequest bad = make_request();
  bad.options.spec_sigmas = -1.0;  // rejected by the synthesizer
  auto future = engine.submit(bad);
  EXPECT_THROW((void)future.get(), std::invalid_argument);
  // The engine stays usable after a failed request.
  EXPECT_NE(engine.submit(make_request()).get().result, nullptr);
  EXPECT_EQ(engine.in_flight(), 0u);
}

TEST(ServiceEngine, NonFiniteParameterFailsThroughFuture) {
  // A NaN nominal would reach evaluate_test through the P1dB threshold
  // study and serve a plan whose study reads yield NaN and FCL / YL 0; path
  // validation rejects it first, and the request fails.
  SynthesisRequest bad = make_request();
  bad.config.mixer.p1db_in_dbm.nominal = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)synthesize_direct(bad), std::invalid_argument);
  SynthesisEngine engine;
  auto future = engine.submit(bad);
  EXPECT_THROW((void)future.get(), std::invalid_argument);
  EXPECT_NE(engine.submit(make_request()).get().result, nullptr);
  EXPECT_EQ(engine.in_flight(), 0u);
}

// Each of these describes a test the transient or measurement code would
// refuse to run (or a spec nobody can place), so none may be served or
// cached: validation names the field before synthesis starts.
TEST(ServiceEngine, MalformedRequestsFailThroughFuture) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* name;
    std::function<void(SynthesisRequest&)> spoil;
  };
  const Case cases[] = {
      {"unknown window",
       [](SynthesisRequest& r) {
         r.options.measure.window = static_cast<dsp::WindowType>(99);
       }},
      {"LO at DC", [](SynthesisRequest& r) { r.config.lo.freq_hz = 0.0; }},
      {"negative LO", [](SynthesisRequest& r) { r.config.lo.freq_hz = -10e6; }},
      {"LO above Nyquist", [](SynthesisRequest& r) { r.config.lo.freq_hz = 20e6; }},
      {"silent LO", [](SynthesisRequest& r) { r.config.lo.amplitude = 0.0; }},
      {"NaN LPF clock", [](SynthesisRequest& r) { r.config.lpf.clock_hz = kNaN; }},
      {"NaN LO isolation",
       [](SynthesisRequest& r) { r.config.mixer.lo_isolation_db.nominal = kNaN; }},
      {"infinite ADC vref", [](SynthesisRequest& r) { r.config.adc.vref = kInf; }},
      {"NaN amp P1dB wc",
       [](SynthesisRequest& r) { r.config.amp.p1db_in_dbm.wc = kNaN; }},
      {"negative mixer P1dB sigma",
       [](SynthesisRequest& r) { r.config.mixer.p1db_in_dbm.sigma = -1.0; }},
      {"infinite spec placement",
       [](SynthesisRequest& r) { r.options.spec_sigmas = kInf; }},
      {"cutoff tolerance reaching DC",
       [](SynthesisRequest& r) { r.config.lpf.cutoff_hz.wc = 1.5e6; }},
      {"graph LO above Nyquist",
       [](SynthesisRequest& r) {
         r.graph = path::PathGraphConfig(r.config);
         r.graph->blocks[1].lo.freq_hz = 20e6;
       }},
  };
  SynthesisEngine engine;
  (void)engine.submit(make_request()).get();
  const std::size_t cached = engine.cache_size();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SynthesisRequest bad = make_request();
    c.spoil(bad);
    EXPECT_THROW((void)synthesize_direct(bad), std::invalid_argument);
    auto future = engine.submit(bad);
    EXPECT_THROW((void)future.get(), std::invalid_argument);
    EXPECT_EQ(engine.cache_size(), cached);
  }
  EXPECT_NE(engine.submit(make_request(1)).get().result, nullptr);
  EXPECT_EQ(engine.in_flight(), 0u);
}

// The stress half of the determinism contract: many producer threads racing
// hot and cold keys through one engine, every served result checked against
// the direct reference. Runs under TSan in the sanitizer leg.
TEST(ServiceEngine, ConcurrentSubmittersServeBitIdenticalResults) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 24;
  constexpr int kDistinct = 6;

  std::vector<std::string> expected(kDistinct);
  for (int v = 0; v < kDistinct; ++v) {
    expected[v] = result_content(synthesize_direct(make_request(v)));
  }

  EngineOptions options;
  options.workers = 3;
  options.queue_capacity = 16;
  SynthesisEngine engine(options);

  std::atomic<int> mismatches{0};
  std::atomic<int> served_count{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int v = (p + i) % kDistinct;
        const Served served = engine.submit(make_request(v)).get();
        if (served.result == nullptr ||
            result_content(*served.result) != expected[v]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        served_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : producers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(served_count.load(), kProducers * kPerProducer);
  EXPECT_EQ(engine.cache_size(), static_cast<std::size_t>(kDistinct));
  EXPECT_EQ(engine.in_flight(), 0u);
}

// Gaps shorter than kIdleSpin reach a polling worker, longer ones a parked
// worker that has to be woken; every request is served either way.
TEST(ServiceEngine, RunsRequestsSubmittedToPollingAndParkedWorkers) {
  EngineOptions options;
  options.workers = 2;
  SynthesisEngine engine(options);
  const SynthesisRequest request = make_request(7);
  const std::string direct = result_content(synthesize_direct(request));
  const std::chrono::microseconds gaps[] = {std::chrono::microseconds{0},
                                            SynthesisEngine::kIdleSpin / 5,
                                            SynthesisEngine::kIdleSpin * 20};
  std::vector<std::future<Served>> futures;
  for (int round = 0; round < 10; ++round) {
    for (const auto gap : gaps) {
      futures.push_back(engine.submit(request));
      std::this_thread::sleep_for(gap);
    }
  }
  for (std::future<Served>& f : futures) {
    const Served served = f.get();
    ASSERT_NE(served.result, nullptr);
    EXPECT_EQ(result_content(*served.result), direct);
  }
  EXPECT_EQ(engine.in_flight(), 0u);
}

// The destructor lets the workers drain the queue before it joins them:
// destroying an engine right after a burst it cannot have finished still
// fulfills every admitted request, with a result and not a broken promise.
TEST(ServiceEngine, DestructorServesEveryAdmittedRequest) {
  constexpr int kRequests = 32;
  std::vector<std::string> expected;
  std::vector<std::future<Served>> futures;
  {
    EngineOptions options;
    options.workers = 1;
    options.queue_capacity = kRequests;
    SynthesisEngine engine(options);
    for (int i = 0; i < kRequests; ++i) {
      SynthesisRequest request = make_request(i);
      request.options.use_cache = false;  // every request a cold synthesis
      expected.push_back(result_content(synthesize_direct(request)));
      futures.push_back(engine.submit(std::move(request)));
    }
  }
  for (int i = 0; i < kRequests; ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds{0}), std::future_status::ready);
    try {
      const Served served = futures[i].get();
      ASSERT_NE(served.result, nullptr);
      EXPECT_EQ(result_content(*served.result), expected[i]);
    } catch (const std::future_error& e) {
      ADD_FAILURE() << "future holds " << e.what();
    }
  }
}

// Heap allocations of served cache hits, submit to get, with obs off. Four
// per hit: the queued job, the promise's shared state and its result slot,
// and the content key; plus one block of the job queue per 64 requests.
// Counted over 64 sequential hits on a warmed 1-worker engine, so the total
// is exact.
TEST(ServiceEngine, ServedHitAllocationsArePinned) {
  const obs::Config saved = obs::current_config();
  obs::configure(obs::Config{});
  EngineOptions options;
  options.workers = 1;
  SynthesisEngine engine(options);
  const SynthesisRequest request = make_request(3);
  for (int i = 0; i < 8; ++i) (void)engine.submit(request).get();

  const std::uint64_t before = msts_test::g_alloc_count.load();
  int hits = 0;
  for (int i = 0; i < 64; ++i) hits += engine.submit(request).get().cache_hit ? 1 : 0;
  const std::uint64_t allocations = msts_test::g_alloc_count.load() - before;
  obs::configure(saved);
  EXPECT_EQ(hits, 64);
  EXPECT_EQ(allocations, 257u);
}

// ---------------------------------------------------------------------------
// Request span trees and slow-request reporting. The Service* suites run
// under the TSan tier-1 leg, so the span path is raced there too.
// ---------------------------------------------------------------------------

// Saves/restores the obs configuration and leaves the buffers drained.
class ObsGuard {
 public:
  ObsGuard() : saved_(obs::current_config()) {}
  ~ObsGuard() {
    obs::configure(saved_);
    (void)obs::spans_drain();
  }

 private:
  obs::Config saved_;
};

TEST(ServiceSpans, RequestSpanTreesReconcileExactlyWithTimers) {
  ObsGuard guard;
  obs::Config config;
  config.metrics = true;
  config.trace = true;
  obs::configure(config);
  obs::Registry::instance().reset();
  (void)obs::spans_drain();

  constexpr int kRequests = 8;
  std::vector<Served> served;
  {
    EngineOptions options;
    options.workers = 2;
    SynthesisEngine engine(options);
    std::vector<SynthesisRequest> requests;
    for (int i = 0; i < kRequests; ++i) requests.push_back(make_request(i));
    served = engine.run_batch(std::move(requests));
  }

  const auto spans = obs::spans_drain();
  std::vector<const obs::SpanRecord*> roots;
  std::uint64_t queue_wait_sum = 0;
  std::uint64_t probe_plus_exec_sum = 0;
  std::vector<obs::SpanId> exec_ids;
  std::size_t queue_waits = 0, probes = 0, execs = 0, fulfills = 0;
  std::size_t synthesizes = 0;
  for (const obs::SpanRecord& s : spans) {
    const std::string_view name(s.name);
    if (name == "service.request") {
      roots.push_back(&s);
      EXPECT_TRUE(s.async);
    } else if (name == "service.queue_wait") {
      ++queue_waits;
      queue_wait_sum += s.dur_ns;
      EXPECT_TRUE(s.async);
    } else if (name == "service.cache_probe") {
      ++probes;
      probe_plus_exec_sum += s.dur_ns;
    } else if (name == "service.execute") {
      ++execs;
      probe_plus_exec_sum += s.dur_ns;
      exec_ids.push_back(s.id);
    } else if (name == "service.fulfill") {
      ++fulfills;
    } else if (name == "core.synthesize") {
      ++synthesizes;
    }
  }
  ASSERT_EQ(roots.size(), static_cast<std::size_t>(kRequests));
  EXPECT_EQ(queue_waits, static_cast<std::size_t>(kRequests));
  EXPECT_EQ(probes, static_cast<std::size_t>(kRequests));
  EXPECT_EQ(execs, static_cast<std::size_t>(kRequests));
  EXPECT_EQ(fulfills, static_cast<std::size_t>(kRequests));
  // Distinct configs: every request synthesized (no cache hits).
  EXPECT_EQ(synthesizes, static_cast<std::size_t>(kRequests));

  // Stage children reference their request root, and core.synthesize nests
  // under the execute stage via the parent-scope cursor.
  std::vector<obs::SpanId> root_ids;
  for (const obs::SpanRecord* r : roots) root_ids.push_back(r->id);
  for (const obs::SpanRecord& s : spans) {
    const std::string_view name(s.name);
    if (name == "service.queue_wait" || name == "service.cache_probe" ||
        name == "service.execute" || name == "service.fulfill") {
      EXPECT_NE(std::find(root_ids.begin(), root_ids.end(), s.parent),
                root_ids.end())
          << name << " span not parented under a request root";
    } else if (name == "core.synthesize") {
      EXPECT_NE(std::find(exec_ids.begin(), exec_ids.end(), s.parent),
                exec_ids.end())
          << "core.synthesize not parented under an execute stage";
    }
  }

  // Exact reconciliation: the spans are built from the same steady_clock
  // time points as the Served timers, with the same clamp.
  std::uint64_t served_queue_sum = 0;
  std::uint64_t served_exec_sum = 0;
  std::uint64_t served_latency_sum = 0;
  for (const Served& s : served) {
    EXPECT_FALSE(s.cache_hit);
    served_queue_sum += s.queue_wait_ns;
    served_exec_sum += s.exec_ns;
    served_latency_sum += s.latency_ns();
  }
  EXPECT_EQ(queue_wait_sum, served_queue_sum);
  EXPECT_EQ(probe_plus_exec_sum, served_exec_sum);
  // Roots close after fulfillment, so they cover at least the full latency.
  std::uint64_t root_sum = 0;
  for (const obs::SpanRecord* r : roots) root_sum += r->dur_ns;
  EXPECT_GE(root_sum, served_latency_sum);

  // The stage timers are the same records seen by the registry, so they
  // reconcile exactly too.
  std::uint64_t queue_wait_timer = 0;
  std::uint64_t probe_plus_exec_timer = 0;
  for (const obs::Metric& m : obs::Registry::instance().snapshot()) {
    if (m.name == "service.queue_wait") {
      EXPECT_EQ(m.count, static_cast<std::uint64_t>(kRequests));
      queue_wait_timer = m.total_ns;
    } else if (m.name == "service.cache_probe" || m.name == "service.execute") {
      EXPECT_EQ(m.count, static_cast<std::uint64_t>(kRequests)) << m.name;
      probe_plus_exec_timer += m.total_ns;
    }
  }
  EXPECT_EQ(queue_wait_timer, served_queue_sum);
  EXPECT_EQ(probe_plus_exec_timer, served_exec_sum);
  obs::Registry::instance().reset();
}

TEST(ServiceSpans, SlowRequestThresholdCountsLogsAndTraces) {
  ObsGuard guard;
  obs::Config config;
  config.metrics = true;
  config.trace = true;
  obs::configure(config);
  obs::Registry::instance().reset();
  (void)obs::spans_drain();

  const SynthesisRequest request = make_request(5);
  const std::string expected_key = content_key(request);
  testing::internal::CaptureStderr();
  {
    EngineOptions options;
    options.workers = 1;
    // Everything with latency > 0 is slow. The engine reads the threshold
    // once, when it is constructed.
    EXPECT_EQ(::setenv("MSTS_SLOW_REQUEST_S", "0", 1), 0);
    SynthesisEngine engine(options);
    EXPECT_EQ(::unsetenv("MSTS_SLOW_REQUEST_S"), 0);
    (void)engine.submit(request).get();
  }
  const std::string log = testing::internal::GetCapturedStderr();

  std::uint64_t slow_count = 0;
  for (const obs::Metric& m : obs::Registry::instance().snapshot()) {
    if (m.name == "service.slow_requests") slow_count = m.count;
  }
  EXPECT_EQ(slow_count, 1u);

  // The request's root span carries the verdict.
  std::int64_t slow_note = -1;
  for (const obs::SpanRecord& s : obs::spans_drain()) {
    if (std::string_view(s.name) != "service.request") continue;
    for (std::uint8_t i = 0; i < s.note_count; ++i) {
      if (std::string_view(s.notes[i].key) == "slow") slow_note = s.notes[i].i;
    }
  }
  EXPECT_EQ(slow_note, 1);

  // The logged hex key replays to the exact request bytes.
  const std::string marker = "content_key=";
  const std::size_t at = log.find(marker);
  ASSERT_NE(at, std::string::npos) << log;
  const std::size_t begin = at + marker.size();
  const std::string key_hex = log.substr(begin, log.find('\n', begin) - begin);
  ASSERT_EQ(key_hex.size(), expected_key.size() * 2);
  std::string decoded;
  for (std::size_t i = 0; i < key_hex.size(); i += 2) {
    decoded.push_back(static_cast<char>(
        std::stoi(key_hex.substr(i, 2), nullptr, 16)));
  }
  EXPECT_EQ(decoded, expected_key);
  obs::Registry::instance().reset();
}

TEST(ServiceSpans, SlowRequestThresholdDisabledByDefaultAndEnvStrict) {
  ObsGuard guard;
  obs::Config config;
  config.metrics = true;
  obs::configure(config);
  obs::Registry::instance().reset();

  // MSTS_SLOW_REQUEST_S unset: reporting is off, even for instant requests.
  {
    EngineOptions options;
    options.workers = 1;
    SynthesisEngine engine(options);
    (void)engine.submit(make_request(1)).get();
  }
  for (const obs::Metric& m : obs::Registry::instance().snapshot()) {
    EXPECT_NE(m.name, "service.slow_requests");
  }

  // A malformed or out-of-range MSTS_SLOW_REQUEST_S fails engine
  // construction fast, with the same strict-env contract as MSTS_THREADS
  // and MSTS_BENCH_SCALE — never silently clamped or ignored.
  for (const char* bad : {"quick", "-2", "1e10", "nan"}) {
    ASSERT_EQ(::setenv("MSTS_SLOW_REQUEST_S", bad, 1), 0);
    EXPECT_THROW(SynthesisEngine{}, std::invalid_argument) << bad;
  }
  ASSERT_EQ(::unsetenv("MSTS_SLOW_REQUEST_S"), 0);
  obs::Registry::instance().reset();
}

}  // namespace
}  // namespace msts::service
