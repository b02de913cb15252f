#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/zipf.h"
#include "hh/exact_tracker.h"
#include "hh/p1_batched_mg.h"
#include "hh/p2_threshold.h"
#include "hh/p3_sampling.h"
#include "hh/p4_randomized.h"
#include "stream/router.h"

namespace dmt {
namespace hh {
namespace {

struct RunResult {
  data::ExactWeights truth;
  stream::CommStats stats;
};

RunResult Drive(HeavyHitterProtocol* p, size_t m, size_t n, double beta,
                uint64_t seed) {
  data::ZipfianStream z(10000, 2.0, beta, seed);
  stream::Router router(m, stream::RoutingPolicy::kUniform, seed + 1);
  RunResult r;
  for (size_t i = 0; i < n; ++i) {
    data::WeightedItem item = z.Next();
    r.truth.Observe(item);
    p->Process(router.NextSite(), item.element, item.weight);
  }
  r.stats = p->comm_stats();
  return r;
}

TEST(ExactTrackerTest, PerfectEstimatesAtFullCost) {
  ExactTracker t(5);
  RunResult r = Drive(&t, 5, 20000, 100.0, 1);
  EXPECT_DOUBLE_EQ(t.EstimateTotalWeight(), r.truth.total_weight());
  for (uint64_t e : r.truth.HeavyHitters(0.01)) {
    EXPECT_DOUBLE_EQ(t.EstimateElementWeight(e), r.truth.Weight(e));
  }
  EXPECT_EQ(r.stats.total_up(), 20000u);
}

TEST(P1Test, DeterministicErrorBound) {
  const double eps = 0.01;
  const size_t m = 10;
  P1BatchedMG p(m, eps);
  RunResult r = Drive(&p, m, 50000, 100.0, 2);
  const double w = r.truth.total_weight();
  for (uint64_t e = 0; e < 50; ++e) {
    EXPECT_NEAR(p.EstimateElementWeight(e), r.truth.Weight(e), eps * w)
        << "element " << e;
  }
  // Total weight estimate within eps of truth.
  EXPECT_NEAR(p.EstimateTotalWeight(), w, eps * w);
}

TEST(P1Test, CommunicationFarBelowNaive) {
  const size_t n = 50000;
  P1BatchedMG p(10, 0.05);
  RunResult r = Drive(&p, 10, n, 100.0, 3);
  EXPECT_LT(r.stats.total(), n / 2);
}

TEST(P2Test, DeterministicErrorBound) {
  const double eps = 0.01;
  const size_t m = 10;
  P2Threshold p(m, eps);
  RunResult r = Drive(&p, m, 50000, 100.0, 4);
  const double w = r.truth.total_weight();
  for (uint64_t e = 0; e < 50; ++e) {
    EXPECT_NEAR(p.EstimateElementWeight(e), r.truth.Weight(e), eps * w);
  }
  EXPECT_NEAR(p.EstimateTotalWeight(), w, eps * w);
}

TEST(P2Test, FewerMessagesThanP1AtSmallEpsilon) {
  const double eps = 0.002;
  const size_t m = 20, n = 50000;
  P1BatchedMG p1(m, eps);
  P2Threshold p2(m, eps);
  stream::CommStats s1 = Drive(&p1, m, n, 100.0, 5).stats;
  stream::CommStats s2 = Drive(&p2, m, n, 100.0, 5).stats;
  // P1 is O(m/eps^2 log), P2 is O(m/eps log): P2 must win clearly here.
  EXPECT_LT(s2.total(), s1.total());
}

TEST(AdjustedSampleTest, EmptyAndSingletonYieldEmpty) {
  EXPECT_TRUE(AdjustedSample({}).empty());
  EXPECT_TRUE(AdjustedSample({{1, 2.0, 3.0}}).empty());
}

TEST(AdjustedSampleTest, DropsMinPriorityAndClampsWeights) {
  std::vector<PriorityEntry> in{
      {1, 5.0, 100.0}, {2, 0.5, 10.0}, {3, 2.0, 1.0}};
  auto out = AdjustedSample(in);
  ASSERT_EQ(out.size(), 2u);
  // Element 3 (priority 1.0) is the threshold item and is dropped;
  // tau = 1.0, so weights become max(w, 1.0).
  EXPECT_EQ(out[0].element, 1u);
  EXPECT_DOUBLE_EQ(out[0].weight, 5.0);
  EXPECT_EQ(out[1].element, 2u);
  EXPECT_DOUBLE_EQ(out[1].weight, 1.0);
}

TEST(P3WoRTest, EstimatesWithinEpsilonWhp) {
  const double eps = 0.05;
  const size_t m = 10;
  P3SamplingWoR p(m, eps, 42);
  RunResult r = Drive(&p, m, 50000, 100.0, 6);
  const double w = r.truth.total_weight();
  // Randomized guarantee: allow 2x the nominal bound for a fixed seed.
  for (uint64_t e = 0; e < 20; ++e) {
    EXPECT_NEAR(p.EstimateElementWeight(e), r.truth.Weight(e),
                2.0 * eps * w);
  }
  EXPECT_NEAR(p.EstimateTotalWeight(), w, 2.0 * eps * w);
}

TEST(P3WoRTest, ExactBeforeFirstRoundEnds) {
  // Huge sample size: tau never doubles, estimates are exact.
  P3SamplingWoR p(4, 0.1, 7, /*sample_size=*/1 << 20);
  RunResult r = Drive(&p, 4, 5000, 10.0, 7);
  EXPECT_DOUBLE_EQ(p.EstimateTotalWeight(), r.truth.total_weight());
  for (uint64_t e = 0; e < 10; ++e) {
    EXPECT_DOUBLE_EQ(p.EstimateElementWeight(e), r.truth.Weight(e));
  }
}

TEST(P3WoRTest, PoolStaysNearSampleSize) {
  P3SamplingWoR p(8, 0.1, 11, /*sample_size=*/100);
  Drive(&p, 8, 50000, 100.0, 8);
  // Pool = Q_cur + Q_next; Q_next < s by construction, Q_cur is bounded by
  // the items of one round (O(s) w.h.p.).
  EXPECT_LT(p.pool_size(), 100u * 8u);
  EXPECT_GT(p.threshold(), 1.0);  // rounds advanced
}

TEST(P3WRTest, EstimatesReasonable) {
  const double eps = 0.1;
  const size_t m = 10;
  P3SamplingWR p(m, eps, 13);
  RunResult r = Drive(&p, m, 30000, 100.0, 9);
  const double w = r.truth.total_weight();
  EXPECT_NEAR(p.EstimateTotalWeight(), w, 3.0 * eps * w);
  // The top Zipf element (~80% of occurrences) must dominate the sample.
  EXPECT_GT(p.EstimateElementWeight(0), 0.3 * w);
}

TEST(P4Test, EstimatesWithinEpsilonWhp) {
  const double eps = 0.05;
  const size_t m = 9;
  P4Randomized p(m, eps, 17);
  RunResult r = Drive(&p, m, 50000, 100.0, 10);
  const double w = r.truth.total_weight();
  for (uint64_t e = 0; e < 20; ++e) {
    EXPECT_NEAR(p.EstimateElementWeight(e), r.truth.Weight(e),
                2.0 * eps * w);
  }
}

TEST(P4Test, CommunicationFarBelowNaive) {
  const size_t n = 50000;
  P4Randomized p(25, 0.1, 19);
  RunResult r = Drive(&p, 25, n, 100.0, 11);
  EXPECT_LT(r.stats.total(), n / 4);
}

TEST(HeavyHittersQueryTest, PerfectRecallForDeterministicProtocols) {
  const double eps = 0.005, phi = 0.05;
  const size_t m = 10;
  P1BatchedMG p1(m, eps);
  P2Threshold p2(m, eps);
  RunResult r1 = Drive(&p1, m, 50000, 100.0, 12);
  RunResult r2 = Drive(&p2, m, 50000, 100.0, 12);
  const std::vector<std::pair<const data::ExactWeights*,
                              const HeavyHitterProtocol*>>
      cases{{&r1.truth, &p1}, {&r2.truth, &p2}};
  for (const auto& [truth, protocol] : cases) {
    auto truth_hh = truth->HeavyHitters(phi);
    auto got = protocol->HeavyHitters(phi, eps);
    for (uint64_t e : truth_hh) {
      EXPECT_NE(std::find(got.begin(), got.end(), e), got.end())
          << protocol->name() << " missed true heavy hitter " << e;
    }
    // Precision rule: nothing below (phi - eps) may be returned.
    for (uint64_t e : got) {
      EXPECT_GE(truth->Weight(e), (phi - eps) * truth->total_weight() * 0.95)
          << protocol->name() << " returned far-light element " << e;
    }
  }
}

}  // namespace
}  // namespace hh
}  // namespace dmt
