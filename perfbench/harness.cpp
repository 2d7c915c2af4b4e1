#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <limits>
#include <thread>
#include <unordered_map>

#include "obs/config.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace perfbench {

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

HostWarmup warm_host(int threads, double min_s, double max_s, double max_steal) {
  constexpr double kStepS = 0.25;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sink{0};
  auto spin = [&] {
    std::uint64_t x = 0x2545F4914F6CDD1Dull;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 4096; ++i) x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(spin);

  // Steal is judged over a sliding window of the last min_s seconds.
  const auto t0 = Clock::now();
  const std::size_t window = static_cast<std::size_t>(std::ceil(min_s / kStepS));
  std::vector<CpuTicks> ticks{cpu_ticks()};
  HostWarmup out;
  while (true) {
    const auto step_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(kStepS));
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    while (Clock::now() < step_end) {
      for (int i = 0; i < 4096; ++i) x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
    sink.fetch_add(x, std::memory_order_relaxed);
    ticks.push_back(cpu_ticks());
    out.seconds = seconds_since(t0);
    if (ticks.size() <= window) continue;
    out.steal = steal_share(ticks[ticks.size() - 1 - window], ticks.back());
    if (!(out.steal > max_steal) || out.seconds >= max_s) break;
  }
  stop.store(true);
  for (std::thread& t : pool) t.join();
  return out;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

CpuTicks cpu_ticks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};  // user nice system idle iowait irq softirq steal
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2], &v[3],
                  &v[4], &v[5], &v[6], &v[7]) == 8) {
    t.busy = static_cast<double>(v[0] + v[1] + v[2] + v[5] + v[6]);
    t.steal = static_cast<double>(v[7]);
    t.total = t.busy + t.steal + static_cast<double>(v[3] + v[4]);
  }
  std::fclose(f);
  return t;
}

double steal_share(const CpuTicks& from, const CpuTicks& to) {
  const double total = to.total - from.total;
  if (!(total > 0.0)) return std::numeric_limits<double>::quiet_NaN();
  return (to.steal - from.steal) / total;
}

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

Ops::Ops(std::size_t block_ops) : block_ops_(block_ops) {
  cur_.latency.reserve(block_ops);
  begin();
}

void Ops::begin() { last_ = Clock::now(); }

void Ops::add(double latency_s, double op_items) {
  if (cur_.latency.size() == block_ops_) {
    if (!prev_.latency.empty()) done_.push_back(summarize(std::move(prev_)));
    prev_ = std::move(cur_);
    cur_ = Block{};
    cur_.latency.reserve(block_ops_);
  }
  const auto now = Clock::now();
  ++attempted_;
  items_ += op_items;
  if (first_.size() < kFirstKept) first_.push_back(latency_s);
  cur_.latency.push_back(latency_s);
  cur_.items += op_items;
  cur_.span_s += std::chrono::duration<double>(now - last_).count();
  last_ = now;
}

void Ops::add_failed() {
  add(std::numeric_limits<double>::infinity(), 0.0);
  ++failed_;
}

Ops::Summary Ops::summarize(Block block) {
  constexpr std::size_t kBeyond = 10;
  std::vector<double>& v = block.latency;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  Summary s;
  s.p50 = median(v);
  s.tail = s.p50;
  if (n >= 2 * kBeyond + 1) {
    const std::size_t k = n - 1 - kBeyond;
    s.tail = v[k];
    s.pct = 100.0 * static_cast<double>(k) / static_cast<double>(n - 1);
  }
  s.rate = block.items / block.span_s;
  return s;
}

Ops::Stats Ops::stats() const {
  std::vector<Summary> all = done_;
  if (cur_.latency.size() == block_ops_ || prev_.latency.empty()) {
    if (!prev_.latency.empty()) all.push_back(summarize(prev_));
    if (!cur_.latency.empty()) all.push_back(summarize(cur_));
  } else {  // the partial last block joins the one before it
    Block last = prev_;
    last.latency.insert(last.latency.end(), cur_.latency.begin(), cur_.latency.end());
    last.items += cur_.items;
    last.span_s += cur_.span_s;
    all.push_back(summarize(std::move(last)));
  }

  std::vector<double> p50, tail, rate;
  double pct = 0.0;
  for (const Summary& s : all) {
    p50.push_back(s.p50);
    tail.push_back(s.tail);
    rate.push_back(s.rate);
    pct += s.pct;
  }
  Stats st;
  st.blocks = all.size();
  st.p50_s = median(p50);
  st.tail_s = median(tail);
  st.rate = median(rate);
  st.tail_pct = all.empty() ? 0.0 : pct / static_cast<double>(all.size());
  return st;
}

std::vector<double> Ops::first_latencies() const { return first_; }

std::string format_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + format_number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::size_t SpanLog::drain() {
  dropped_ += msts::obs::spans_dropped();
  const std::vector<msts::obs::SpanRecord> batch = msts::obs::spans_drain();
  (void)msts::obs::trace_take();
  spans_ += batch.size();

  std::unordered_map<msts::obs::SpanId, std::size_t> index;
  index.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) index.emplace(batch[i].id, i);

  // Children intervals per parent, clipped to the parent, for self time.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(batch.size());
  for (const msts::obs::SpanRecord& r : batch) {
    const auto it = index.find(r.parent);
    if (r.parent == 0 || it == index.end()) continue;
    const msts::obs::SpanRecord& p = batch[it->second];
    const std::uint64_t lo = std::max(r.start_ns, p.start_ns);
    const std::uint64_t hi = std::min(r.start_ns + r.dur_ns, p.start_ns + p.dur_ns);
    if (hi > lo) kids[it->second].emplace_back(lo, hi);
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const msts::obs::SpanRecord& r = batch[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, end = 0;
    for (const auto& [lo, hi] : iv) {
      const std::uint64_t from = std::max(lo, end);
      if (hi > from) covered += hi - from;
      end = std::max(end, hi);
    }
    const std::string name(r.name);
    // Layers are the toolkit's modules; the scheduler's spans belong to stats.
    std::string module = name.substr(0, name.find('.'));
    if (module == "sched") module = "stats";
    LayerSelf& layer = layers_[module];
    ++layer.spans;
    layer.self_s += 1e-9 * static_cast<double>(r.dur_ns - std::min(covered, r.dur_ns));
    durations_[name].push_back(1e-9 * static_cast<double>(r.dur_ns));
  }
  return batch.size();
}

const std::vector<double>& SpanLog::durations(const std::string& name) const {
  static const std::vector<double> kNone;
  const auto it = durations_.find(name);
  return it == durations_.end() ? kNone : it->second;
}

void CounterLog::drain() {
  for (const msts::obs::Metric& m : msts::obs::Registry::instance().drain()) {
    if (m.kind == msts::obs::Metric::Kind::kCounter) {
      totals_[m.name] += static_cast<double>(m.count);
    }
  }
}

double CounterLog::get(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second;
}

double CounterLog::sum(const std::string& prefix, const std::string& suffix) const {
  double total = 0.0;
  for (const auto& [name, value] : totals_) {
    if (name.size() >= prefix.size() + suffix.size() && name.starts_with(prefix) &&
        name.ends_with(suffix)) {
      total += value;
    }
  }
  return total;
}

void set_collection(bool on) {
  msts::obs::Config config;
  config.metrics = on;
  config.trace = on;
  msts::obs::configure(config);
}

}  // namespace perfbench
