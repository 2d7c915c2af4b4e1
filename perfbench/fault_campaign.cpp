// fault_campaign: the sec. 5 flow of bench_sec5_fault_coverage, one eighth
// of the collapsed fault universe per op. Op k grades slice k mod 8 of a
// seeded partition: an exact campaign on 512 ideal patterns, a spectral
// campaign on 512 patterns driven through the analog path, and a rerun of
// that campaign's escapes at 8192 patterns.
#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <stdexcept>

#include "workloads.h"

namespace perfbench {

namespace mc = msts::core;

FaultState make_fault_state(std::uint64_t seed) {
  FaultState st;
  const msts::path::PathConfig config = msts::path::reference_path_config();
  st.tester = std::make_unique<mc::DigitalTester>(config);
  mc::DigitalTestOptions options;
  options.record = 512;
  st.plan_short = st.tester->plan(options);
  options.record = 8192;
  st.plan_long = st.tester->plan(options);
  st.ideal_short = st.tester->ideal_codes(st.plan_short);
  st.ideal_long = st.tester->ideal_codes(st.plan_long);
  const msts::path::ReceiverPath device(config);
  msts::stats::Rng noise_short(derive_seed(seed, 1));
  msts::stats::Rng noise_long(derive_seed(seed, 2));
  st.path_short = st.tester->path_codes(st.plan_short, device, noise_short);
  st.path_long = st.tester->path_codes(st.plan_long, device, noise_long);

  // Seeded partition: shuffle the universe, deal it into the slices, and
  // keep each slice in netlist order.
  const std::vector<msts::digital::Fault>& faults = st.tester->faults();
  std::vector<std::size_t> order(faults.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  msts::stats::Rng shuffle(derive_seed(seed, 3));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[shuffle.uniform_int(i)]);
  }
  std::vector<std::vector<std::size_t>> picks(FaultState::kFaultSlices);
  for (std::size_t i = 0; i < order.size(); ++i) {
    picks[i % FaultState::kFaultSlices].push_back(order[i]);
  }
  for (std::vector<std::size_t>& p : picks) {
    std::sort(p.begin(), p.end());
    std::vector<msts::digital::Fault> slice;
    for (std::size_t i : p) slice.push_back(faults[i]);
    st.slices.push_back(std::move(slice));
  }
  return st;
}

namespace {

// Everything one op decides, for the repeat and 1-thread comparisons.
struct Flow {
  std::vector<bool> exact, short_flags, long_flags;
  bool good_flagged = false;
  std::size_t escapes = 0;
  double items = 0.0;

  bool operator==(const Flow&) const = default;
  std::size_t detected() const {
    return static_cast<std::size_t>(std::count(short_flags.begin(), short_flags.end(), true) +
                                    std::count(long_flags.begin(), long_flags.end(), true));
  }
};

Flow run_flow(const FaultState& st, const std::vector<msts::digital::Fault>& slice) {
  const mc::DigitalTester& t = *st.tester;
  Flow f;
  f.exact = t.exact_campaign(st.ideal_short, slice).detected_flags;
  const auto first = t.spectral_campaign(st.plan_short, st.ideal_short, st.path_short, slice);
  f.short_flags = first.result.detected_flags;
  f.good_flagged = first.good_circuit_flagged;
  std::vector<msts::digital::Fault> escapes;
  for (std::size_t i = 0; i < slice.size(); ++i) {
    if (!f.short_flags[i]) escapes.push_back(slice[i]);
  }
  f.escapes = escapes.size();
  f.long_flags =
      t.spectral_campaign(st.plan_long, st.ideal_long, st.path_long, escapes).result.detected_flags;
  f.items = static_cast<double>(slice.size() * (st.plan_short.record + st.plan_short.record) +
                                escapes.size() * st.plan_long.record);
  return f;
}

class FaultCampaign final : public Workload {
 public:
  explicit FaultCampaign(std::uint64_t seed) : seed_(seed) {}

  const char* item() const override { return "fault x pattern"; }
  std::size_t block_ops() const override { return 1; }

  void setup() override {
    state_ = make_fault_state(seed_);
    (void)run_flow(state_, state_.slices.back());  // warm-up op
    next_ = 0;
    first_.assign(FaultState::kFaultSlices, Flow{});
    graded_.assign(FaultState::kFaultSlices, false);
    repeat_compared_ = repeat_mismatched_ = 0;
  }

  void run(Clock::time_point deadline, Ops& ops) override {
    while (Clock::now() < deadline) {
      const std::size_t slice = next_++ % FaultState::kFaultSlices;
      const auto t0 = Clock::now();
      Flow f;
      try {
        f = run_flow(state_, state_.slices[slice]);
      } catch (const std::exception&) {
        ops.add_failed();
        continue;
      }
      ops.add(seconds_since(t0), f.items);
      // A slice graded again must reproduce its first verdicts exactly.
      if (!graded_[slice]) {
        first_[slice] = std::move(f);
        graded_[slice] = true;
      } else {
        ++repeat_compared_;
        if (!(f == first_[slice])) ++repeat_mismatched_;
      }
    }
  }

  CheckResult check() override {
    CheckResult r{repeat_compared_, repeat_mismatched_};
    if (!graded_[0]) return r;
    // The first op again on one thread: the campaigns partition faults into
    // batches independently of the thread count, so the verdicts must match.
    const char* threads = std::getenv("MSTS_THREADS");
    const std::string saved = threads != nullptr ? threads : "";
    setenv("MSTS_THREADS", "1", 1);
    const Flow serial = run_flow(state_, state_.slices[0]);
    setenv("MSTS_THREADS", saved.c_str(), 1);
    ++r.compared;
    if (!(serial == first_[0])) ++r.mismatched;
    return r;
  }

  std::string summary() const override {
    if (!graded_[0]) return "no op completed";
    const Flow& f = first_[0];
    const std::size_t n = state_.slices[0].size();
    return "slice 0: " + std::to_string(n) + " faults, exact detected " +
           std::to_string(std::count(f.exact.begin(), f.exact.end(), true)) +
           ", translated detected " + std::to_string(f.detected()) + " (escapes rerun " +
           std::to_string(f.escapes) + "), good circuit flagged " +
           (f.good_flagged ? "yes" : "no") + "; " + std::to_string(repeat_compared_) +
           " repeated slices compared, 1-thread rerun of op 0";
  }

 private:
  std::uint64_t seed_;
  FaultState state_;
  std::size_t next_ = 0;
  std::vector<Flow> first_;
  std::vector<bool> graded_;
  std::size_t repeat_compared_ = 0, repeat_mismatched_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fault_campaign(std::uint64_t seed) {
  return std::make_unique<FaultCampaign>(seed);
}

}  // namespace perfbench
