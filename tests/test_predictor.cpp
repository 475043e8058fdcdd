// Unit tests: branch predictors (branch/predictor.hpp).
#include <gtest/gtest.h>

#include "branch/predictor.hpp"
#include "common/rng.hpp"

namespace smt::branch {
namespace {

PredictorConfig bimodal_cfg() {
  PredictorConfig cfg;
  cfg.kind = PredictorKind::kBimodal;
  cfg.pht_bits = 10;
  cfg.btb_entries = 64;
  cfg.max_threads = 4;
  return cfg;
}

TEST(Predictor, LearnsAlwaysTakenBranch) {
  Predictor p(bimodal_cfg());
  const std::uint64_t pc = 0x400;
  for (int i = 0; i < 4; ++i) {
    const bool pred = p.predict(0, pc);
    p.update(0, pc, true, 0x500, pred != true);
  }
  EXPECT_TRUE(p.predict(0, pc));
}

TEST(Predictor, LearnsAlwaysNotTakenBranch) {
  Predictor p(bimodal_cfg());
  const std::uint64_t pc = 0x404;
  for (int i = 0; i < 4; ++i) {
    const bool pred = p.predict(0, pc);
    p.update(0, pc, false, 0, pred != false);
  }
  EXPECT_FALSE(p.predict(0, pc));
}

TEST(Predictor, TwoBitHysteresisSurvivesOneFlip) {
  Predictor p(bimodal_cfg());
  const std::uint64_t pc = 0x408;
  for (int i = 0; i < 8; ++i) p.update(0, pc, true, 0x500, false);
  p.update(0, pc, false, 0, true);  // one anomaly
  EXPECT_TRUE(p.predict(0, pc)) << "2-bit counter must not flip on one miss";
}

TEST(Predictor, BiasedSiteAccuracyIsHigh) {
  Predictor p(bimodal_cfg());
  Rng rng(5);
  const std::uint64_t pc = 0x800;
  int correct = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const bool actual = rng.chance(0.95);
    const bool pred = p.predict(0, pc);
    if (pred == actual) ++correct;
    p.update(0, pc, actual, 0x900, pred != actual);
  }
  EXPECT_GT(static_cast<double>(correct) / n, 0.90);
}

TEST(Predictor, StatsTrackMispredicts) {
  Predictor p(bimodal_cfg());
  p.update(0, 0x10, true, 0x20, true);
  p.update(0, 0x10, true, 0x20, false);
  EXPECT_EQ(p.stats().lookups, 2u);
  EXPECT_EQ(p.stats().mispredicts, 1u);
  EXPECT_DOUBLE_EQ(p.stats().mispredict_rate(), 0.5);
  p.reset_stats();
  EXPECT_EQ(p.stats().lookups, 0u);
}

TEST(Predictor, BtbInstallsOnTaken) {
  Predictor p(bimodal_cfg());
  EXPECT_FALSE(p.btb_hit(0x40));
  p.update(0, 0x40, true, 0x99, false);
  EXPECT_TRUE(p.btb_hit(0x40));
}

TEST(Predictor, BtbNotInstalledOnNotTaken) {
  Predictor p(bimodal_cfg());
  p.update(0, 0x44, false, 0, false);
  EXPECT_FALSE(p.btb_hit(0x44));
}

TEST(Predictor, BtbConflictEvicts) {
  PredictorConfig cfg = bimodal_cfg();
  cfg.btb_entries = 4;
  Predictor p(cfg);
  p.update(0, 0x10, true, 1, false);
  // Same BTB slot: (pc>>2) % 4; 0x10>>2=4 → slot 0; 0x50>>2=20 → slot 0.
  p.update(0, 0x50, true, 2, false);
  EXPECT_TRUE(p.btb_hit(0x50));
  EXPECT_FALSE(p.btb_hit(0x10));
}

TEST(Predictor, GshareUsesPerThreadHistory) {
  PredictorConfig cfg = bimodal_cfg();
  cfg.kind = PredictorKind::kGshare;
  cfg.history_bits = 8;
  Predictor p(cfg);
  // Train thread 0 heavily taken at pc with an alternating history;
  // thread 1's view of the same pc must not be forced identical since its
  // history register differs. We only check that updates do not crash and
  // predictions remain boolean.
  for (int i = 0; i < 100; ++i) {
    p.update(0, 0x100, i % 2 == 0, 0x200, false);
    p.update(1, 0x100, true, 0x200, false);
  }
  (void)p.predict(0, 0x100);
  (void)p.predict(1, 0x100);
  EXPECT_EQ(p.stats().lookups, 200u);
}

TEST(Predictor, GshareLearnsAlternatingPatternEventually) {
  PredictorConfig cfg = bimodal_cfg();
  cfg.kind = PredictorKind::kGshare;
  cfg.history_bits = 4;
  Predictor p(cfg);
  const std::uint64_t pc = 0x240;
  // Strictly alternating outcomes: gshare separates the two history
  // contexts and predicts both correctly; bimodal cannot beat ~50%.
  int correct_late = 0;
  for (int i = 0; i < 400; ++i) {
    const bool actual = i % 2 == 0;
    const bool pred = p.predict(0, pc);
    if (i >= 200 && pred == actual) ++correct_late;
    p.update(0, pc, actual, 0x300, pred != actual);
  }
  EXPECT_GT(correct_late, 180);
}

TEST(Predictor, RejectsBadConfig) {
  PredictorConfig cfg = bimodal_cfg();
  cfg.pht_bits = 0;
  EXPECT_THROW(Predictor{cfg}, std::invalid_argument);
  cfg = bimodal_cfg();
  cfg.btb_entries = 0;
  EXPECT_THROW(Predictor{cfg}, std::invalid_argument);
  // 2^63 counters cannot be allocated: only a range check made before
  // the table is sized throws invalid_argument here.
  cfg = bimodal_cfg();
  cfg.pht_bits = 63;
  EXPECT_THROW(Predictor{cfg}, std::invalid_argument);
  // A mask of 64 history bits would shift past the word.
  cfg = bimodal_cfg();
  cfg.kind = PredictorKind::kGshare;
  cfg.history_bits = 64;
  EXPECT_THROW(Predictor{cfg}, std::invalid_argument);
  cfg.history_bits = 63;
  EXPECT_NO_THROW(Predictor{cfg});
}

TEST(Predictor, CopyIsIndependent) {
  Predictor a(bimodal_cfg());
  for (int i = 0; i < 8; ++i) a.update(0, 0x60, true, 0x70, false);
  Predictor b = a;
  for (int i = 0; i < 8; ++i) b.update(0, 0x60, false, 0, true);
  EXPECT_TRUE(a.predict(0, 0x60));
  EXPECT_FALSE(b.predict(0, 0x60));
}

}  // namespace
}  // namespace smt::branch
