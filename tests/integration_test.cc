// End-to-end integration: all protocols side by side on the same streams,
// with continuous mid-stream checks — the setting of the paper's Section 6.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/continuous_hh_tracker.h"
#include "core/continuous_matrix_tracker.h"
#include "core/registry.h"
#include "data/synthetic_matrix.h"
#include "data/zipf.h"
#include "matrix/error.h"
#include "stream/router.h"

namespace dmt {
namespace {

TEST(IntegrationTest, AllMatrixProtocolsTrackTheSameStream) {
  const size_t m = 10;
  const double eps = 0.15;
  std::vector<std::unique_ptr<ContinuousMatrixTracker>> trackers;
  for (const char* proto : {"mp1", "mp2", "mp3wor", "mp3wr"}) {
    MatrixTrackerConfig cfg;
    cfg.num_sites = m;
    cfg.epsilon = eps;
    cfg.protocol = proto;
    cfg.seed = 33;
    trackers.push_back(std::make_unique<ContinuousMatrixTracker>(cfg));
  }

  data::SyntheticMatrixConfig gen_cfg;
  gen_cfg.dim = 12;
  gen_cfg.latent_rank = 4;
  gen_cfg.seed = 6;
  data::SyntheticMatrixGenerator gen(gen_cfg);
  stream::Router router(m, stream::RoutingPolicy::kUniform, 7);
  matrix::CovarianceTracker truth(12);

  const size_t n = 12000;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row = gen.Next();
    truth.AddRow(row);
    size_t site = router.NextSite();
    for (auto& t : trackers) t->Append(site, row);

    if ((i + 1) % 4000 == 0) {
      for (auto& t : trackers) {
        const double err =
            matrix::CovarianceError(truth, t->SketchGram());
        const double slack =
            FindProtocol(t->protocol_name())->deterministic ? 1.0 : 3.0;
        ASSERT_LE(err, slack * eps + 1e-9)
            << t->protocol_name() << " at prefix " << i + 1;
      }
    }
  }

  // Every protocol must use less communication than shipping all rows.
  for (auto& t : trackers) {
    EXPECT_LT(t->comm_stats().total(), n) << t->protocol_name();
  }
}

TEST(IntegrationTest, AllHhProtocolsTrackTheSameStream) {
  const size_t m = 10;
  const double eps = 0.02;
  std::vector<std::unique_ptr<ContinuousHeavyHitterTracker>> trackers;
  for (const char* proto : {"p1", "p2", "p3wor", "p4"}) {
    HhTrackerConfig cfg;
    cfg.num_sites = m;
    cfg.epsilon = eps;
    cfg.protocol = proto;
    cfg.seed = 44;
    trackers.push_back(std::make_unique<ContinuousHeavyHitterTracker>(cfg));
  }

  data::ZipfianStream z(10000, 2.0, 100.0, 8);
  stream::Router router(m, stream::RoutingPolicy::kUniform, 9);
  data::ExactWeights truth;
  const size_t n = 40000;
  for (size_t i = 0; i < n; ++i) {
    data::WeightedItem item = z.Next();
    truth.Observe(item);
    size_t site = router.NextSite();
    for (auto& t : trackers) t->Observe(site, item.element, item.weight);
  }

  const double w = truth.total_weight();
  const double phi = 0.05;
  auto truth_hh = truth.HeavyHitters(phi);
  ASSERT_FALSE(truth_hh.empty());
  for (auto& t : trackers) {
    // Perfect recall for every protocol (Figure 1a).
    auto got = t->HeavyHitters(phi);
    for (uint64_t e : truth_hh) {
      EXPECT_NE(std::find(got.begin(), got.end(), e), got.end())
          << t->protocol_name() << " missed " << e;
    }
    // Weight estimates of the true heavy hitters are accurate.
    for (uint64_t e : truth_hh) {
      const double slack =
          FindProtocol(t->protocol_name())->deterministic ? 1.0 : 3.0;
      EXPECT_NEAR(t->EstimateWeight(e), truth.Weight(e), slack * eps * w)
          << t->protocol_name();
    }
    EXPECT_LT(t->comm_stats().total(), n) << t->protocol_name();
  }
}

TEST(IntegrationTest, CommunicationOrderingMatchesPaperAtSmallEpsilon) {
  // Figure 1(d) / 2(b): at small eps, P2 (m/eps) uses fewer messages than
  // P1 (m/eps^2); both beat exact.
  const size_t m = 20;
  const double eps = 0.005;
  HhTrackerConfig c1, c2;
  c1.num_sites = c2.num_sites = m;
  c1.epsilon = c2.epsilon = eps;
  c1.protocol = "p1";
  c2.protocol = "p2";
  ContinuousHeavyHitterTracker p1(c1), p2(c2);

  data::ZipfianStream z(10000, 2.0, 100.0, 10);
  stream::Router router(m, stream::RoutingPolicy::kUniform, 11);
  const size_t n = 60000;
  for (size_t i = 0; i < n; ++i) {
    data::WeightedItem item = z.Next();
    size_t site = router.NextSite();
    p1.Observe(site, item.element, item.weight);
    p2.Observe(site, item.element, item.weight);
  }
  EXPECT_LT(p2.comm_stats().total(), p1.comm_stats().total());
}

}  // namespace
}  // namespace dmt
