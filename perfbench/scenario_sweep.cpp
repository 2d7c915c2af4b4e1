// scenario_sweep: sweep::run_sweep over bench_sweep's 24-scenario matrix
// with 20 000 MC trials per study and nested inner MC; every op ranks the
// whole matrix on its own seeded RNG streams.
#include "workloads.h"

namespace perfbench {

namespace msw = msts::sweep;

std::vector<msw::Scenario> sweep_scenarios() {
  msw::ScenarioMatrix matrix;
  matrix.base = msts::path::reference_path_config();
  matrix.lo_freqs_hz = {9.5e6, 10.0e6};
  return matrix.expand();
}

msw::SweepOptions sweep_options(std::uint64_t op_seed) {
  msw::SweepOptions options;
  options.mc_trials = 20000;
  options.mc_threads = 0;
  options.seed = op_seed;
  return options;
}

namespace {

constexpr std::size_t kWarmupOps = 24;
constexpr std::uint64_t kWarmupTag = 0x7761726dull;

class ScenarioSweep final : public Workload {
 public:
  explicit ScenarioSweep(std::uint64_t seed) : seed_(seed) {}

  const char* item() const override { return "scenario"; }
  std::size_t block_ops() const override { return 50; }

  void setup() override {
    scenarios_ = sweep_scenarios();
    for (std::size_t i = 0; i < kWarmupOps; ++i) {
      (void)msw::run_sweep(scenarios_, sweep_options(derive_seed(seed_ ^ kWarmupTag, i)));
    }
    next_ = 0;
    sampled_.clear();
  }

  void run(Clock::time_point deadline, Ops& ops) override {
    while (Clock::now() < deadline) {
      const std::uint64_t k = next_++;
      const auto t0 = Clock::now();
      msw::SweepResult result;
      try {
        result = msw::run_sweep(scenarios_, sweep_options(derive_seed(seed_, k)));
      } catch (const std::exception&) {
        ops.add_failed();
        continue;
      }
      ops.add(seconds_since(t0), static_cast<double>(result.ranking.size()));
      if (k % 64 == 0) {
        sampled_.emplace_back(k, result.fingerprint);
        best_ = result.ranking.front().name;
      }
    }
  }

  CheckResult check() override {
    // Sampled ops again with the scenario fan-out and the inner MC both
    // serial: the ranking fingerprint must not move a bit.
    CheckResult r;
    for (const auto& [k, fingerprint] : sampled_) {
      msw::SweepOptions serial = sweep_options(derive_seed(seed_, k));
      serial.threads = 1;
      serial.mc_threads = 1;
      ++r.compared;
      if (msw::run_sweep(scenarios_, serial).fingerprint != fingerprint) ++r.mismatched;
    }
    return r;
  }

  std::string summary() const override {
    return std::to_string(scenarios_.size()) + " scenarios per op, best of op 0 '" + best_ +
           "', " + std::to_string(sampled_.size()) +
           " sampled fingerprints checked against a 1-thread sweep";
  }

 private:
  std::uint64_t seed_;
  std::vector<msw::Scenario> scenarios_;
  std::uint64_t next_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sampled_;
  std::string best_;
};

}  // namespace

std::unique_ptr<Workload> make_scenario_sweep(std::uint64_t seed) {
  return std::make_unique<ScenarioSweep>(seed);
}

}  // namespace perfbench
