// Property tests for the spectral detection mask (core/digital_test.h):
// the invariants that keep the translated digital test sound.
#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/digital_test.h"
#include "digital/fir.h"
#include "path/receiver_path.h"
#include "sweep/sweep.h"

namespace msts::core {
namespace {

path::PathConfig cfg() { return path::reference_path_config(); }

// One record length on one sweep arrangement of the reference config.
struct MaskCase {
  std::size_t record;
  const char* topology;

  path::PathGraphConfig graph() const { return sweep::make_topology(topology, cfg()); }
};

// The canonical cases print as the bare record, e.g. "512"; the others add
// the arrangement, e.g. "512/no-amp".
void PrintTo(const MaskCase& c, std::ostream* os) {
  *os << c.record;
  if (std::string(c.topology) != "canonical") *os << '/' << c.topology;
}

class MaskInvariants : public ::testing::TestWithParam<MaskCase> {};

TEST_P(MaskInvariants, MaskIsFiniteAndAboveTesterFloor) {
  const DigitalTester tester(GetParam().graph());
  DigitalTestOptions opt;
  opt.record = GetParam().record;
  const auto plan = tester.plan(opt);

  // The strongest tone level bounds the tester floor from above.
  double strongest = -1e9;
  for (std::size_t k = 0; k < plan.mask_power_db.size(); ++k) {
    ASSERT_TRUE(std::isfinite(plan.mask_power_db[k])) << "bin " << k;
    strongest = std::max(strongest, plan.mask_power_db[k]);
  }
  // The tester floor anchors to the lobe-integrated tone power, which can
  // sit several dB above the single-bin mask maximum used as the proxy
  // here; allow that window-dependent slack.
  const double floor_db = strongest - opt.tester_dynamic_range_db - 8.0;
  for (std::size_t k = 0; k < plan.mask_power_db.size(); ++k) {
    EXPECT_GT(plan.mask_power_db[k], floor_db - opt.mask_margin_db) << "bin " << k;
  }
}

TEST_P(MaskInvariants, MarginShiftsTheMaskUniformly) {
  const DigitalTester tester(GetParam().graph());
  DigitalTestOptions a;
  a.record = GetParam().record;
  a.mask_margin_db = 10.0;
  DigitalTestOptions b = a;
  b.mask_margin_db = 16.0;
  const auto pa = tester.plan(a);
  const auto pb = tester.plan(b);
  for (std::size_t k = 0; k < pa.mask_power_db.size(); ++k) {
    EXPECT_NEAR(pb.mask_power_db[k] - pa.mask_power_db[k], 6.0, 1e-9) << k;
  }
}

TEST_P(MaskInvariants, GoodCircuitUnderIndependentNoisePassesTheMask) {
  // The headline soundness property at every record length: fresh noise
  // realisations of the healthy path never cross the mask.
  const path::PathGraphConfig graph = GetParam().graph();
  const DigitalTester tester(graph);
  DigitalTestOptions opt;
  opt.record = GetParam().record;
  const auto plan = tester.plan(opt);
  const path::PathGraph device(graph);
  const auto ideal = tester.ideal_codes(plan);
  for (int seed = 1; seed <= 3; ++seed) {
    stats::Rng rng(9000 + seed);
    const auto noisy = tester.path_codes(plan, device, rng);
    const auto out = tester.spectral_campaign(plan, ideal, noisy, {});
    EXPECT_FALSE(out.good_circuit_flagged)
        << "record " << GetParam().record << " on " << GetParam().topology << ", seed "
        << seed;
  }
}

std::vector<MaskCase> mask_cases() {
  std::vector<MaskCase> cases;
  for (const char* topology : {"canonical", "if-amp", "dual-lpf", "no-amp"}) {
    for (const std::size_t record : {256, 512, 2048}) cases.push_back({record, topology});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Records, MaskInvariants, ::testing::ValuesIn(mask_cases()));

TEST(MaskInvariants, ExclusionsNeverCoverEverything) {
  const DigitalTester tester(cfg());
  for (std::size_t tones : {1u, 2u, 3u}) {
    DigitalTestOptions opt;
    opt.num_tones = tones;
    const auto plan = tester.plan(opt);
    const auto active = static_cast<std::size_t>(
        std::count(plan.excluded.begin(), plan.excluded.end(), false));
    EXPECT_GT(active, plan.excluded.size() / 3) << tones << " tones";
  }
}

TEST(MaskInvariants, DetectionMonotoneInFaultSet) {
  // A subset of faults can never yield more detections than its superset
  // campaign restricted to the same faults (batching must not interact).
  const auto c = cfg();
  const DigitalTester tester(c);
  DigitalTestOptions opt;
  opt.record = 256;
  const auto plan = tester.plan(opt);
  const path::ReceiverPath device(c);
  stats::Rng rng(9100);
  const auto noisy = tester.path_codes(plan, device, rng);
  const auto ideal = tester.ideal_codes(plan);

  std::vector<digital::Fault> big;
  for (std::size_t i = 0; i < tester.faults().size(); i += 50) {
    big.push_back(tester.faults()[i]);
  }
  const std::vector<digital::Fault> small(big.begin(), big.begin() + big.size() / 2);

  const auto r_big = tester.spectral_campaign(plan, ideal, noisy, big);
  const auto r_small = tester.spectral_campaign(plan, ideal, noisy, small);
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(r_small.result.detected_flags[i], r_big.result.detected_flags[i]) << i;
  }
}

}  // namespace
}  // namespace msts::core
