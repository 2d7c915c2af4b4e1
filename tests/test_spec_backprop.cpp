// Tests for specification back-propagation (core/spec_backprop.h).
#include "core/spec_backprop.h"

#include <ios>

#include <gtest/gtest.h>

#include "base/units.h"
#include "sweep/sweep.h"

namespace msts::core {
namespace {

path::PathConfig cfg() { return path::reference_path_config(); }

SystemRequirements default_req() {
  SystemRequirements r;
  r.min_path_gain_db = 22.0;
  r.max_path_gain_db = 28.0;
  r.min_output_snr_db = 45.0;
  r.input_level_dbm = -40.0;
  return r;
}

TEST(SpecBackprop, BlockWindowsStackToTheSystemWindow) {
  const auto r = backpropagate_spec(cfg(), default_req());
  ASSERT_EQ(r.blocks.size(), 3u);
  EXPECT_TRUE(r.feasible);
  double lo_sum = 0.0, hi_sum = 0.0;
  for (const auto& b : r.blocks) {
    lo_sum += b.gain_window_db.lo;
    hi_sum += b.gain_window_db.hi;
    // Every block window contains its nominal.
    EXPECT_TRUE(b.gain_window_db.passes(b.nominal_gain_db)) << b.block;
  }
  // Worst-case stacks exactly fill the system window.
  EXPECT_NEAR(lo_sum, default_req().min_path_gain_db, 1e-9);
  EXPECT_NEAR(hi_sum, default_req().max_path_gain_db, 1e-9);
}

TEST(SpecBackprop, CanonicalBudgetsArePinned) {
  // The canonical chain's budgets, exact: the gain shares, the inverse-Friis
  // NF ceilings and the path NF budget.
  struct Pin {
    const char* block;
    double nominal_gain_db;
    double gain_lo_db;
    double gain_hi_db;
    double nf_max_db;
  };
  const Pin pins[] = {
      {"amp", 0x1.ep+3, 0x1.b99999999999ap+3, 0x1.0333333333333p+4,
       0x1.9f63058cc408cp+4},
      {"mixer", 0x1.4p+3, 0x1.199999999999ap+3, 0x1.6666666666666p+3,
       0x1.4788f17846241p+5},
      {"lpf", 0.0, -0x1.3333333333334p-1, 0x1.3333333333334p-1, 0x1.9f702d999c5p+4},
  };
  const auto r = backpropagate_spec(cfg(), default_req());
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.path_nf_max_db, 0x1.9f702d999c5p+4) << std::hexfloat << r.path_nf_max_db;
  ASSERT_EQ(r.blocks.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const BlockBudget& b = r.blocks[i];
    EXPECT_EQ(b.block, pins[i].block);
    EXPECT_EQ(b.nominal_gain_db, pins[i].nominal_gain_db)
        << b.block << ' ' << std::hexfloat << b.nominal_gain_db;
    EXPECT_EQ(b.gain_window_db.lo, pins[i].gain_lo_db)
        << b.block << ' ' << std::hexfloat << b.gain_window_db.lo;
    EXPECT_EQ(b.gain_window_db.hi, pins[i].gain_hi_db)
        << b.block << ' ' << std::hexfloat << b.gain_window_db.hi;
    EXPECT_EQ(b.nf_max_db, pins[i].nf_max_db)
        << b.block << ' ' << std::hexfloat << b.nf_max_db;
  }
}

TEST(SpecBackprop, WindowsScaleWithBlockTolerances) {
  // The amp (±1 dB tol) gets a larger share than the LPF (±0.5 dB).
  const auto r = backpropagate_spec(cfg(), default_req());
  const auto width = [](const BlockBudget& b) {
    return b.gain_window_db.hi - b.gain_window_db.lo;
  };
  const auto* amp = &r.blocks[0];
  const auto* lpf = &r.blocks[2];
  EXPECT_EQ(amp->block, "amp");
  EXPECT_EQ(lpf->block, "lpf");
  EXPECT_GT(width(*amp), width(*lpf));
}

TEST(SpecBackprop, NfBudgetsAreAchievableAndOrdered) {
  const auto r = backpropagate_spec(cfg(), default_req());
  // Every NF ceiling must sit above the block's nominal NF (else infeasible).
  EXPECT_GT(r.blocks[0].nf_max_db, cfg().amp.nf_db.nominal);
  EXPECT_GT(r.blocks[1].nf_max_db, cfg().mixer.nf_db.nominal);
  // The mixer NF budget is looser than the amp's (Friis: later stages are
  // divided by the front-end gain).
  EXPECT_GT(r.blocks[1].nf_max_db, r.blocks[0].nf_max_db);
}

TEST(SpecBackprop, InfeasibleGainWindowFlagged) {
  auto req = default_req();
  req.min_path_gain_db = 30.0;  // nominal cascade is 25 dB
  req.max_path_gain_db = 32.0;
  const auto r = backpropagate_spec(cfg(), req);
  EXPECT_FALSE(r.feasible);
  EXPECT_FALSE(r.note.empty());
}

TEST(SpecBackprop, InfeasibleSnrFlagged) {
  auto req = default_req();
  req.min_output_snr_db = 90.0;  // impossible at -40 dBm over 2 MHz
  const auto r = backpropagate_spec(cfg(), req);
  EXPECT_FALSE(r.feasible);
}

TEST(SpecBackprop, TighterSnrShrinksNfCeilings) {
  auto loose = default_req();
  loose.min_output_snr_db = 40.0;
  auto tight = default_req();
  tight.min_output_snr_db = 50.0;
  const auto rl = backpropagate_spec(cfg(), loose);
  const auto rt = backpropagate_spec(cfg(), tight);
  EXPECT_GT(rl.blocks[0].nf_max_db, rt.blocks[0].nf_max_db);
  EXPECT_GT(rl.path_nf_max_db, rt.path_nf_max_db);
}

TEST(SpecBackprop, RejectsEmptyGainWindow) {
  auto req = default_req();
  req.max_path_gain_db = req.min_path_gain_db;
  EXPECT_THROW(backpropagate_spec(cfg(), req), std::invalid_argument);
}

TEST(SpecBackprop, RejectsOtherArrangements) {
  // The Friis terms are written for one amp -> mixer -> lpf chain.
  EXPECT_NO_THROW(backpropagate_spec(sweep::make_topology("canonical", cfg()),
                                     default_req()));
  for (const char* topology : {"if-amp", "dual-lpf", "no-amp"}) {
    EXPECT_THROW(backpropagate_spec(sweep::make_topology(topology, cfg()), default_req()),
                 std::invalid_argument)
        << topology;
  }
}

TEST(SpecBackprop, FormatsReadably) {
  const auto text = format_backprop(backpropagate_spec(cfg(), default_req()));
  EXPECT_NE(text.find("amp"), std::string::npos);
  EXPECT_NE(text.find("NF"), std::string::npos);
  EXPECT_NE(text.find("feasible"), std::string::npos);
}

}  // namespace
}  // namespace msts::core
