// translated_mc: core::validate_iip3_study_mc on the reference path with
// the adaptive strategy, 40 manufactured devices per op, each op on its own
// seeded RNG.
#include <cstring>

#include "core/mc_validation.h"
#include "core/synthesizer.h"
#include "workloads.h"

namespace perfbench {

namespace mc = msts::core;

mc::ParameterStudy iip3_study(const msts::path::PathConfig& config) {
  return mc::TestSynthesizer(config, /*adaptive=*/true).study_mixer_iip3();
}

namespace {

constexpr int kDevicesPerOp = 40;
constexpr std::size_t kWarmupOps = 8;
constexpr std::uint64_t kWarmupTag = 0x7761726dull;

bool same_bits(const mc::McValidation& a, const mc::McValidation& b) {
  const double x[] = {a.weight_good,   a.weight_faulty, a.fcl_measured,       a.yl_measured,
                      a.fcl_predicted, a.yl_predicted,  a.mean_abs_meas_error};
  const double y[] = {b.weight_good,   b.weight_faulty, b.fcl_measured,       b.yl_measured,
                      b.fcl_predicted, b.yl_predicted,  b.mean_abs_meas_error};
  return a.trials == b.trials && std::memcmp(x, y, sizeof(x)) == 0;
}

class TranslatedMc final : public Workload {
 public:
  explicit TranslatedMc(std::uint64_t seed) : seed_(seed) {}

  const char* item() const override { return "device"; }
  std::size_t block_ops() const override { return 50; }

  void setup() override {
    config_ = msts::path::reference_path_config();
    study_ = iip3_study(config_);
    for (std::size_t i = 0; i < kWarmupOps; ++i) (void)op(derive_seed(seed_ ^ kWarmupTag, i), 0);
    next_ = 0;
    sampled_.clear();
  }

  void run(Clock::time_point deadline, Ops& ops) override {
    while (Clock::now() < deadline) {
      const std::uint64_t k = next_++;
      const auto t0 = Clock::now();
      mc::McValidation v;
      try {
        v = op(derive_seed(seed_, k), 0);
      } catch (const std::exception&) {
        ops.add_failed();
        continue;
      }
      ops.add(seconds_since(t0), static_cast<double>(v.trials));
      if (k % 32 == 0) sampled_.emplace_back(k, v);
    }
  }

  CheckResult check() override {
    // Sampled ops again on one thread: per-trial streams and the serial
    // reduction make the validation bit-identical at any thread count.
    CheckResult r;
    for (const auto& [k, v] : sampled_) {
      ++r.compared;
      if (!same_bits(op(derive_seed(seed_, k), 1), v)) ++r.mismatched;
    }
    return r;
  }

  std::string summary() const override {
    if (sampled_.empty()) return "no op completed";
    const mc::McValidation& v = sampled_.front().second;
    return "op 0: " + std::to_string(v.trials) + " devices, FCL measured " +
           format_number(v.fcl_measured) + " vs predicted " + format_number(v.fcl_predicted) +
           ", YL measured " + format_number(v.yl_measured) + " vs predicted " +
           format_number(v.yl_predicted) + "; " + std::to_string(sampled_.size()) +
           " sampled ops checked against a 1-thread rerun";
  }

 private:
  mc::McValidation op(std::uint64_t key, int threads) const {
    msts::stats::Rng rng(key);
    return mc::validate_iip3_study_mc(config_, study_, kDevicesPerOp, rng, /*adaptive=*/true,
                                      {}, threads);
  }

  std::uint64_t seed_;
  msts::path::PathConfig config_;
  mc::ParameterStudy study_;
  std::uint64_t next_ = 0;
  std::vector<std::pair<std::uint64_t, mc::McValidation>> sampled_;
};

}  // namespace

std::unique_ptr<Workload> make_translated_mc(std::uint64_t seed) {
  return std::make_unique<TranslatedMc>(seed);
}

}  // namespace perfbench
