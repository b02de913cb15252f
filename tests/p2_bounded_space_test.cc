// Tests for the bounded-space site option of heavy-hitter protocol P2 and
// the median-of-copies option of P4 (the paper's space/confidence
// extensions).
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "data/zipf.h"
#include "hh/p2_threshold.h"
#include "hh/p4_randomized.h"
#include "stream/router.h"

namespace dmt {
namespace hh {
namespace {

struct StreamResult {
  data::ExactWeights truth;
};

StreamResult Drive(HeavyHitterProtocol* p, size_t m, size_t n,
                   uint64_t seed) {
  data::ZipfianStream z(5000, 2.0, 50.0, seed);
  stream::Router router(m, stream::RoutingPolicy::kUniform, seed + 1);
  StreamResult r;
  for (size_t i = 0; i < n; ++i) {
    data::WeightedItem item = z.Next();
    r.truth.Observe(item);
    p->Process(router.NextSite(), item.element, item.weight);
  }
  return r;
}

class P2BoundedSpaceTest
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(P2BoundedSpaceTest, ErrorStaysWithinCombinedBound) {
  auto [counters, eps] = GetParam();
  const size_t m = 8;
  P2Options opts;
  opts.site_counters = counters;
  P2Threshold p(m, eps, opts);
  StreamResult r = Drive(&p, m, 40000, 3);
  const double w = r.truth.total_weight();
  // The SpaceSaving sites add up to W_site/counters undercount on top of
  // the protocol's eps*W; with counters >= 4m/eps the combined error stays
  // within 2 eps W.
  for (uint64_t e = 0; e < 20; ++e) {
    EXPECT_NEAR(p.EstimateElementWeight(e), r.truth.Weight(e), 2.0 * eps * w)
        << "element " << e << " counters=" << counters << " eps=" << eps;
  }
  // The coordinator must never overcount (certain-part reporting).
  for (uint64_t e = 0; e < 50; ++e) {
    EXPECT_LE(p.EstimateElementWeight(e), r.truth.Weight(e) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, P2BoundedSpaceTest,
    ::testing::Combine(::testing::Values<size_t>(512, 2048),
                       ::testing::Values(0.05, 0.1)));

TEST(P2BoundedSpaceTest, RecallStillPerfect) {
  const size_t m = 8;
  const double eps = 0.02;
  P2Options opts;
  opts.site_counters = 1024;
  P2Threshold p(m, eps, opts);
  StreamResult r = Drive(&p, m, 40000, 5);
  auto got = p.HeavyHitters(0.05, eps);
  for (uint64_t e : r.truth.HeavyHitters(0.05)) {
    EXPECT_NE(std::find(got.begin(), got.end(), e), got.end())
        << "missed heavy hitter " << e;
  }
}

// Bounded space means O(counters) per site regardless of the element
// universe: a site may keep a reported-weight entry only for an element
// it reported, so its entry count never exceeds its message count. 10^5
// distinct unit-weight elements over 2 sites report only a few dozen.
TEST(P2BoundedSpaceTest, SiteEntriesOnlyForReportedElements) {
  const size_t m = 2;
  P2Options opts;
  opts.site_counters = 64;
  P2Threshold p(m, 0.1, opts);
  for (uint64_t e = 0; e < 100000; ++e) p.Process(e % m, e, 1.0);

  const std::vector<uint64_t> messages = p.per_site_messages();
  ASSERT_EQ(messages.size(), m);
  for (size_t s = 0; s < m; ++s) {
    EXPECT_GT(messages[s], 0u) << "site " << s;
    EXPECT_LE(p.site_reported_entries(s), messages[s]) << "site " << s;
  }
}

TEST(P4CopiesTest, MedianOfCopiesTightensEstimates) {
  const size_t m = 9;
  const double eps = 0.05;
  const size_t trials = 5;
  double err_single = 0.0, err_median = 0.0;
  for (size_t t = 0; t < trials; ++t) {
    P4Randomized single(m, eps, 100 + t, 1);
    P4Randomized median(m, eps, 200 + t, 5);
    StreamResult r1 = Drive(&single, m, 30000, 10 + t);
    P4Randomized* protocols[2] = {&single, &median};
    (void)protocols;
    StreamResult r2 = Drive(&median, m, 30000, 10 + t);
    const double w = r1.truth.total_weight();
    for (uint64_t e = 0; e < 10; ++e) {
      err_single +=
          std::abs(single.EstimateElementWeight(e) - r1.truth.Weight(e)) / w;
      err_median +=
          std::abs(median.EstimateElementWeight(e) - r2.truth.Weight(e)) / w;
    }
  }
  // Median over 5 copies should not be (meaningfully) worse on average.
  EXPECT_LE(err_median, err_single * 1.5 + 1e-9);
}

TEST(P4CopiesTest, CopiesMultiplyCommunication) {
  const size_t m = 9;
  const double eps = 0.1;
  P4Randomized one(m, eps, 7, 1);
  P4Randomized five(m, eps, 7, 5);
  Drive(&one, m, 20000, 21);
  Drive(&five, m, 20000, 21);
  // Element messages scale ~5x (total-weight tracking is shared).
  EXPECT_GT(five.comm_stats().element_up,
            3 * one.comm_stats().element_up);
  EXPECT_LT(five.comm_stats().element_up,
            8 * one.comm_stats().element_up);
}

TEST(P4CopiesTest, GuaranteeHoldsWithCopies) {
  const size_t m = 9;
  const double eps = 0.05;
  P4Randomized p(m, eps, 31, 7);
  StreamResult r = Drive(&p, m, 40000, 33);
  const double w = r.truth.total_weight();
  for (uint64_t e = 0; e < 20; ++e) {
    EXPECT_NEAR(p.EstimateElementWeight(e), r.truth.Weight(e),
                2.0 * eps * w);
  }
}

}  // namespace
}  // namespace hh
}  // namespace dmt
