#include <gtest/gtest.h>

#include "core/continuous_hh_tracker.h"
#include "core/continuous_matrix_tracker.h"
#include "data/synthetic_matrix.h"
#include "data/zipf.h"
#include "matrix/error.h"
#include "stream/router.h"

namespace dmt {
namespace {

TEST(MatrixTrackerFacadeTest, ProtocolNamesWireCorrectly) {
  for (const char* name : {"mp1", "mp2", "mp3wor", "mp3wr", "mp4"}) {
    MatrixTrackerConfig cfg;
    cfg.protocol = name;
    ContinuousMatrixTracker t(cfg);
    EXPECT_EQ(t.protocol_name(), name);
  }
}

TEST(MatrixTrackerFacadeTest, TracksRowsAndMeetsEpsilon) {
  MatrixTrackerConfig cfg;
  cfg.num_sites = 5;
  cfg.epsilon = 0.1;
  cfg.protocol = "mp2";
  ContinuousMatrixTracker tracker(cfg);

  data::SyntheticMatrixConfig gen_cfg;
  gen_cfg.dim = 10;
  gen_cfg.latent_rank = 3;
  gen_cfg.seed = 1;
  data::SyntheticMatrixGenerator gen(gen_cfg);
  stream::Router router(5, stream::RoutingPolicy::kUniform, 2);
  matrix::CovarianceTracker truth(10);

  for (int i = 0; i < 10000; ++i) {
    std::vector<double> row = gen.Next();
    truth.AddRow(row);
    tracker.Append(router.NextSite(), row);
  }
  EXPECT_EQ(tracker.rows_seen(), 10000u);
  EXPECT_LE(matrix::CovarianceError(truth, tracker.SketchGram()),
            cfg.epsilon + 1e-9);
  EXPECT_GT(tracker.comm_stats().total(), 0u);
  EXPECT_LT(tracker.comm_stats().total(), 10000u);
}

TEST(MatrixTrackerFacadeTest, SquaredNormAlongMatchesGram) {
  MatrixTrackerConfig cfg;
  cfg.num_sites = 3;
  cfg.protocol = "mp1";
  ContinuousMatrixTracker tracker(cfg);
  data::SyntheticMatrixConfig gen_cfg;
  gen_cfg.dim = 6;
  gen_cfg.seed = 3;
  data::SyntheticMatrixGenerator gen(gen_cfg);
  for (int i = 0; i < 500; ++i) tracker.Append(i % 3, gen.Next());

  std::vector<double> x(6, 0.0);
  x[0] = 0.6;
  x[2] = 0.8;
  linalg::Matrix sketch = tracker.Sketch();
  EXPECT_NEAR(tracker.SquaredNormAlong(x), sketch.SquaredNormAlong(x),
              1e-8 * sketch.SquaredFrobeniusNorm() + 1e-12);
}

TEST(HhTrackerFacadeTest, ProtocolNamesWireCorrectly) {
  for (const char* name : {"p1", "p2", "p3wor", "p3wr", "p4", "exact"}) {
    HhTrackerConfig cfg;
    cfg.protocol = name;
    ContinuousHeavyHitterTracker t(cfg);
    EXPECT_EQ(t.protocol_name(), name);
  }
}

TEST(HhTrackerFacadeTest, HeavyHittersMatchExactOracle) {
  HhTrackerConfig cfg;
  cfg.num_sites = 8;
  cfg.epsilon = 0.01;
  cfg.protocol = "p2";
  ContinuousHeavyHitterTracker tracker(cfg);

  data::ZipfianStream z(5000, 2.0, 100.0, 4);
  stream::Router router(8, stream::RoutingPolicy::kUniform, 5);
  data::ExactWeights truth;
  for (int i = 0; i < 40000; ++i) {
    data::WeightedItem item = z.Next();
    truth.Observe(item);
    tracker.Observe(router.NextSite(), item.element, item.weight);
  }
  EXPECT_EQ(tracker.items_seen(), 40000u);

  const double phi = 0.05;
  auto got = tracker.HeavyHitters(phi);
  for (uint64_t e : truth.HeavyHitters(phi)) {
    EXPECT_NE(std::find(got.begin(), got.end(), e), got.end());
  }
  EXPECT_NEAR(tracker.EstimateTotalWeight(), truth.total_weight(),
              cfg.epsilon * truth.total_weight());
}

TEST(TrackerFacadeDeathTest, NameTheFacadeCannotBuildAborts) {
  MatrixTrackerConfig matrix_cfg;
  matrix_cfg.protocol = "fd";  // needs a rank k
  EXPECT_DEATH(ContinuousMatrixTracker{matrix_cfg}, "DMT_CHECK");
  HhTrackerConfig hh_cfg;
  hh_cfg.protocol = "mp2";  // the other family
  EXPECT_DEATH(ContinuousHeavyHitterTracker{hh_cfg}, "DMT_CHECK");
}

TEST(HhTrackerFacadeDeathTest, OutOfRangeSiteAborts) {
  HhTrackerConfig cfg;
  cfg.num_sites = 2;
  ContinuousHeavyHitterTracker tracker(cfg);
  EXPECT_DEATH(tracker.Observe(2, 1, 1.0), "DMT_CHECK");
}

}  // namespace
}  // namespace dmt
