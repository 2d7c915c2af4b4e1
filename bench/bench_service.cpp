// Service throughput and latency: the synthesis engine serving a stream of
// requests against its plan/result cache.
//
// Three phases:
//   * populate — C distinct path configs through run_batch, all cache
//     misses (every plan synthesized once);
//   * serve — R requests round-robin over the same C configs, all cache
//     hits; per-request queue-wait / exec / end-to-end latencies are
//     sampled from the Served records;
//   * verify — a sample of served results checked byte-for-byte against
//     direct TestSynthesizer::synthesize() runs (bit_mismatches must be 0).
//
// Headline scalars: plans_per_sec for the serve phase, p50/p99 end-to-end
// latency plus p99 queue-wait and exec (ns), the cache hit rate, and the
// verification mismatch count. bench_compare gates the latency scalars on
// increase and plans_per_sec on decrease (see its header comment).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "bench_report.h"
#include "path/receiver_path.h"
#include "service/engine.h"
#include "service/request.h"

using namespace msts;

namespace {

// Distinct-but-valid configs: nudge a couple of nominals per index so every
// variant exercises the same synthesis path with a different cache key.
service::SynthesisRequest make_request(std::size_t variant) {
  service::SynthesisRequest req;
  req.config = path::reference_path_config();
  req.config.amp.gain_db.nominal += 0.01 * static_cast<double>(variant % 97);
  req.config.mixer.conv_gain_db.nominal -= 0.004 * static_cast<double>(variant % 89);
  return req;
}

double percentile_ns(std::vector<std::uint64_t> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const std::size_t idx = static_cast<std::size_t>(rank + 0.5);
  return static_cast<double>(samples[std::min(idx, samples.size() - 1)]);
}

}  // namespace

int main() {
  std::printf("== Service: batched synthesis with plan/result caching ==\n\n");
  benchtool::BenchReport report("service");

  const std::size_t distinct = benchtool::scaled_trials(64, 8);
  const std::size_t requests = benchtool::scaled_trials(20000, 500);

  service::EngineOptions options;
  options.queue_capacity = 256;
  service::SynthesisEngine engine(options);

  // Phase 1: cold cache — every distinct config synthesized once.
  report.phase_start("populate");
  std::vector<service::SynthesisRequest> cold;
  cold.reserve(distinct);
  for (std::size_t i = 0; i < distinct; ++i) cold.push_back(make_request(i));
  const auto populated = engine.run_batch(cold);
  report.phase_end();
  std::size_t populate_hits = 0;
  for (const auto& s : populated) populate_hits += s.cache_hit ? 1u : 0u;
  const double populate_wall = report.last_phase_wall_s();
  std::printf("populate: %zu distinct configs in %.3fs (%.0f plans/s cold)\n",
              distinct, populate_wall,
              static_cast<double>(distinct) / std::max(populate_wall, 1e-9));

  // Phase 2: warm serve — the headline steady-state service numbers.
  report.phase_start("serve");
  std::vector<std::uint64_t> latency_ns, queue_wait_ns, exec_ns;
  latency_ns.reserve(requests);
  queue_wait_ns.reserve(requests);
  exec_ns.reserve(requests);
  std::size_t hits = 0;
  double serve_wall = 0.0;
  {
    std::vector<std::future<service::Served>> futures;
    futures.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
      futures.push_back(engine.submit(make_request(i % distinct)));
    }
    for (auto& f : futures) {
      const service::Served served = f.get();
      latency_ns.push_back(served.latency_ns());
      queue_wait_ns.push_back(served.queue_wait_ns);
      exec_ns.push_back(served.exec_ns);
      hits += served.cache_hit ? 1u : 0u;
    }
  }
  report.phase_end();
  serve_wall = report.last_phase_wall_s();

  const double plans_per_sec =
      static_cast<double>(requests) / std::max(serve_wall, 1e-9);
  const double hit_rate =
      static_cast<double>(hits) / static_cast<double>(requests);
  std::printf("serve: %zu requests over %zu configs in %.3fs\n", requests,
              distinct, serve_wall);
  std::printf("  %.0f plans/s, cache hit rate %.4f\n", plans_per_sec, hit_rate);
  std::printf("  latency p50 %.1fus p99 %.1fus (queue p99 %.1fus, exec p99 %.1fus)\n",
              1e-3 * percentile_ns(latency_ns, 50.0),
              1e-3 * percentile_ns(latency_ns, 99.0),
              1e-3 * percentile_ns(queue_wait_ns, 99.0),
              1e-3 * percentile_ns(exec_ns, 99.0));

  // Phase 3: served results are bit-identical to direct synthesis.
  report.phase_start("verify");
  const std::size_t verify_n = std::min<std::size_t>(distinct, 16);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < verify_n; ++i) {
    const service::SynthesisRequest request = make_request(i);
    const service::Served served = engine.submit(request).get();
    if (service::result_content(*served.result) !=
        service::result_content(service::synthesize_direct(request))) {
      ++mismatches;
    }
  }
  report.phase_end();
  std::printf("verify: %zu served results vs direct synthesis, %zu mismatch(es)\n\n",
              verify_n, mismatches);

  report.add_scalar("distinct_configs", static_cast<std::int64_t>(distinct));
  report.add_scalar("requests", static_cast<std::int64_t>(requests));
  report.add_scalar("plans_per_sec", plans_per_sec);
  report.add_scalar("cache_hit_rate", hit_rate);
  report.add_scalar("populate_hits", static_cast<std::int64_t>(populate_hits));
  report.add_scalar("cache_entries", static_cast<std::int64_t>(engine.cache_size()));
  report.add_scalar("latency_p50_ns", percentile_ns(latency_ns, 50.0));
  report.add_scalar("latency_p99_ns", percentile_ns(latency_ns, 99.0));
  report.add_scalar("queue_wait_p99_ns", percentile_ns(queue_wait_ns, 99.0));
  report.add_scalar("exec_p99_ns", percentile_ns(exec_ns, 99.0));
  report.add_scalar("bit_mismatches", static_cast<std::int64_t>(mismatches));
  return mismatches == 0 ? 0 : 1;
}
