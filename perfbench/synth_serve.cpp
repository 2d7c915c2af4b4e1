// synth_serve: a closed loop of 4 client slots against a 2-worker
// SynthesisEngine whose cache holds a hot set of 2048 configs. 19 of every
// 20 requests hit the hot set; the 20th (at a seeded position) is a fresh
// config sent with use_cache=false, a cold synthesis that is never
// inserted, so memory does not grow with the number of requests served.
#include <array>
#include <future>
#include <limits>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "obs/config.h"
#include "service/engine.h"
#include "workloads.h"

namespace perfbench {

namespace ms = msts::service;

ms::SynthesisRequest serve_request(std::uint64_t key) {
  msts::stats::Rng rng(key);
  ms::SynthesisRequest req;
  req.config = msts::path::reference_path_config();
  auto& c = req.config;
  c.amp.gain_db.nominal += rng.uniform(-0.3, 0.3);
  c.amp.iip3_dbm.nominal += rng.uniform(-0.4, 0.4);
  c.mixer.conv_gain_db.nominal += rng.uniform(-0.3, 0.3);
  c.mixer.iip3_dbm.nominal += rng.uniform(-0.4, 0.4);
  c.mixer.p1db_in_dbm.nominal += rng.uniform(-0.3, 0.3);
  c.lpf.cutoff_hz.nominal *= 1.0 + rng.uniform(-0.01, 0.01);
  return req;
}

namespace {

constexpr std::size_t kSlots = 4;
constexpr std::uint64_t kMixBlock = 20;  // one cold request per block: 5 %
constexpr std::uint64_t kWarmupBase = std::uint64_t{1} << 40;
constexpr std::uint64_t kVerifyStride = 1009;
constexpr std::size_t kVerifyMax = 256;

// Stream tags of derive_seed, one per kind of generated input.
constexpr std::uint64_t kHotTag = 0x686f74ull;
constexpr std::uint64_t kPickTag = 0x7069636bull;
constexpr std::uint64_t kColdPosTag = 0x706f73ull;
constexpr std::uint64_t kColdTag = 0x636f6c64ull;

class SynthServe final : public Workload {
 public:
  SynthServe(std::uint64_t seed, std::size_t hot_set, std::size_t warmup_requests)
      : seed_(seed), warmup_requests_(warmup_requests) {
    std::unordered_set<std::string> keys;
    for (std::uint64_t j = 0; hot_.size() < hot_set; ++j) {
      ms::SynthesisRequest req = serve_request(derive_seed(seed ^ kHotTag, j));
      if (keys.insert(ms::content_key(req)).second) hot_.push_back(std::move(req));
    }
  }

  const char* item() const override { return "request"; }
  std::size_t block_ops() const override { return 1000; }

  void setup() override {
    engine_.reset();
    ms::EngineOptions options;
    options.workers = kThreads;
    options.queue_capacity = 64;
    engine_ = std::make_unique<ms::SynthesisEngine>(options);
    for (const ms::Served& s : engine_->run_batch(hot_)) {
      if (s.cache_hit) throw std::runtime_error("synth_serve: hot set is not distinct");
    }
    if (engine_->cache_size() != hot_.size()) {
      throw std::runtime_error("synth_serve: hot set did not populate the cache");
    }
    Ops warm(block_ops());
    next_ = kWarmupBase;
    loop(Clock::time_point::max(), warmup_requests_, warm);
    if (warm.failed() > 0) throw std::runtime_error("synth_serve: warm-up request failed");
    next_ = 0;
    requests_ = hits_ = cold_ = 0;
    verify_.clear();
    traced_ = {};
  }

  void run(Clock::time_point deadline, Ops& ops) override {
    loop(deadline, std::numeric_limits<std::size_t>::max(), ops);
  }

  CheckResult check() override {
    CheckResult r;
    for (const auto& [index, result] : verify_) {
      ++r.compared;
      if (result == nullptr ||
          ms::result_content(*result) != ms::result_content(ms::synthesize_direct(request_at(index)))) {
        ++r.mismatched;
      }
    }
    return r;
  }

  void traced_metrics(std::vector<Metric>& out) const override {
    out.push_back({"service.queue_wait_p50_ms", 1e-6 * median(traced_.queue_wait_ns), "ms"});
    out.push_back({"service.exec_hit_p50_us", 1e-3 * median(traced_.exec_hit_ns), "us"});
    out.push_back({"service.exec_cold_p50_ms", 1e-6 * median(traced_.exec_cold_ns), "ms"});
    out.push_back({"service.hit_ratio",
                   static_cast<double>(traced_.hits) / static_cast<double>(traced_.requests),
                   "ratio"});
    out.push_back({"service.failed", static_cast<double>(traced_.failed), "count"});
  }

  std::string summary() const override {
    return "requests " + std::to_string(requests_) + ", cache hits " + std::to_string(hits_) +
           ", cold " + std::to_string(cold_) + ", cache entries " +
           std::to_string(engine_ ? engine_->cache_size() : 0) + " (hot set " +
           std::to_string(hot_.size()) + "), verified " + std::to_string(verify_.size()) +
           " served results against synthesize_direct";
  }

 private:
  bool is_cold(std::uint64_t i) const {
    return i % kMixBlock == derive_seed(seed_ ^ kColdPosTag, i / kMixBlock) % kMixBlock;
  }

  ms::SynthesisRequest request_at(std::uint64_t i) const {
    if (is_cold(i)) {
      ms::SynthesisRequest req = serve_request(derive_seed(seed_ ^ kColdTag, i));
      req.options.use_cache = false;
      return req;
    }
    return hot_[derive_seed(seed_ ^ kPickTag, i) % hot_.size()];
  }

  // Closed loop: each slot sends its next request as soon as its own reply
  // is ready. New requests stop at the deadline (or after `limit`), but
  // only on a mix-block boundary, so every run serves whole blocks.
  void loop(Clock::time_point deadline, std::size_t limit, Ops& ops) {
    struct Slot {
      std::future<ms::Served> reply;
      Clock::time_point sent;
      std::uint64_t index = 0;
      bool busy = false;
    };
    std::array<Slot, kSlots> slots;
    std::size_t sent = 0, busy = 0;
    bool issuing = true;
    auto send = [&](Slot& s) {
      s.index = next_++;
      ms::SynthesisRequest req = request_at(s.index);
      s.sent = Clock::now();
      s.reply = engine_->submit(std::move(req));
      s.busy = true;
      ++sent;
      ++busy;
    };
    for (Slot& s : slots) send(s);
    const bool traced = msts::obs::trace_enabled();
    while (busy > 0) {
      bool progressed = false;
      for (Slot& s : slots) {
        if (!s.busy || s.reply.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          continue;
        }
        const double latency = seconds_since(s.sent);
        s.busy = false;
        --busy;
        progressed = true;
        record(s.index, s.reply, latency, traced, ops);
        if (issuing && (sent >= limit || Clock::now() >= deadline) &&
            next_ % kMixBlock == 0) {
          issuing = false;
        }
        if (issuing) send(s);
      }
      if (!progressed) std::this_thread::yield();
    }
  }

  void record(std::uint64_t index, std::future<ms::Served>& reply, double latency,
              bool traced, Ops& ops) {
    const bool cold = is_cold(index);
    ++requests_;
    if (traced) ++traced_.requests;
    ms::Served served;
    try {
      served = reply.get();
    } catch (const std::exception&) {
      ops.add_failed();
      if (traced) ++traced_.failed;
      return;
    }
    ops.add(latency, 1.0);
    hits_ += served.cache_hit ? 1u : 0u;
    cold_ += cold ? 1u : 0u;
    if (index < kWarmupBase && index % kVerifyStride == 0 && verify_.size() < kVerifyMax) {
      verify_.emplace_back(index, served.result);
    }
    if (!traced) return;
    traced_.hits += served.cache_hit ? 1u : 0u;
    traced_.queue_wait_ns.push_back(static_cast<double>(served.queue_wait_ns));
    (cold ? traced_.exec_cold_ns : traced_.exec_hit_ns)
        .push_back(static_cast<double>(served.exec_ns));
  }

  std::uint64_t seed_;
  std::size_t warmup_requests_;
  std::vector<ms::SynthesisRequest> hot_;
  std::unique_ptr<ms::SynthesisEngine> engine_;
  std::uint64_t next_ = 0;
  std::uint64_t requests_ = 0, hits_ = 0, cold_ = 0;
  std::vector<std::pair<std::uint64_t, std::shared_ptr<const ms::SynthesisResult>>> verify_;
  struct {
    std::uint64_t requests = 0, hits = 0, failed = 0;
    std::vector<double> queue_wait_ns, exec_hit_ns, exec_cold_ns;
  } traced_;
};

}  // namespace

std::unique_ptr<Workload> make_synth_serve(std::uint64_t seed, std::size_t hot_set,
                                           std::size_t warmup_requests) {
  return std::make_unique<SynthServe>(seed, hot_set, warmup_requests);
}

}  // namespace perfbench
