// Property-style sweeps over (protocol, m, eps) asserting the paper's
// guarantees on Zipfian weighted streams.
#include <algorithm>
#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "data/zipf.h"
#include "stream/router.h"

namespace dmt {
namespace hh {
namespace {

constexpr size_t kStreamLen = 30000;
constexpr double kBeta = 100.0;

// The sweeps keep the paper's labels ("P1", "P3wor"), which name their
// CTest cases; a label's registry name is "p" + label.substr(1).
class HhProtocolPropertyTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, size_t, double>> {};

TEST_P(HhProtocolPropertyTest, ErrorRecallAndCommunication) {
  auto [name, m, eps] = GetParam();
  auto protocol = MakeHhProtocol("p" + name.substr(1), {m, eps, 42});
  ASSERT_NE(protocol, nullptr);

  data::ZipfianStream z(10000, 2.0, kBeta, 77);
  stream::Router router(m, stream::RoutingPolicy::kUniform, 78);
  data::ExactWeights truth;
  for (size_t i = 0; i < kStreamLen; ++i) {
    data::WeightedItem item = z.Next();
    truth.Observe(item);
    protocol->Process(router.NextSite(), item.element, item.weight);
  }
  const double w = truth.total_weight();

  // Deterministic protocols must meet eps exactly; randomized ones get a
  // 3x allowance for the fixed seed.
  const double slack =
      FindProtocol(protocol->name())->deterministic ? 1.0 : 3.0;
  for (uint64_t e = 0; e < 30; ++e) {
    EXPECT_NEAR(protocol->EstimateElementWeight(e), truth.Weight(e),
                slack * eps * w)
        << name << " m=" << m << " eps=" << eps << " element " << e;
  }

  // Recall of phi-heavy hitters must be perfect (paper Figure 1a).
  const double phi = 0.05;
  auto got = protocol->HeavyHitters(phi, eps);
  for (uint64_t e : truth.HeavyHitters(phi)) {
    EXPECT_NE(std::find(got.begin(), got.end(), e), got.end())
        << name << " missed heavy hitter " << e;
  }

  // Communication must beat the trivial send-everything protocol. P1 and
  // P3wr carry 1/eps^2 terms, so on a short stream the strict bound is only
  // meaningful at the larger eps; for small eps require sanity, not wins
  // (the paper's Figure 1(d) uses N = 10^7 where the gap re-opens).
  const bool quadratic = (name == "P1" || name == "P3wr");
  if (!quadratic || eps >= 0.1) {
    EXPECT_LT(protocol->comm_stats().total(), kStreamLen)
        << name << " m=" << m << " eps=" << eps;
  } else {
    EXPECT_LT(protocol->comm_stats().total(), 100 * kStreamLen)
        << name << " m=" << m << " eps=" << eps;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HhProtocolPropertyTest,
    ::testing::Combine(::testing::Values("P1", "P2", "P3wor", "P3wr", "P4"),
                       ::testing::Values<size_t>(5, 20),
                       ::testing::Values(0.02, 0.1)));

// Metamorphic property: scaling every weight by a constant scales all
// estimates by the same constant (deterministic protocols).
class HhScaleInvarianceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(HhScaleInvarianceTest, WeightScalingScalesEstimates) {
  const std::string name = GetParam();
  const size_t m = 8;
  const double eps = 0.05;
  auto p_base = MakeHhProtocol("p" + name.substr(1), {m, eps, 42});
  auto p_scaled = MakeHhProtocol("p" + name.substr(1), {m, eps, 42});
  ASSERT_NE(p_base, nullptr);
  ASSERT_NE(p_scaled, nullptr);

  data::ZipfianStream z(1000, 2.0, 10.0, 5);
  stream::Router router(m, stream::RoutingPolicy::kUniform, 6);
  const double c = 4.0;
  for (size_t i = 0; i < 20000; ++i) {
    data::WeightedItem item = z.Next();
    size_t site = router.NextSite();
    p_base->Process(site, item.element, item.weight);
    p_scaled->Process(site, item.element, c * item.weight);
  }
  for (uint64_t e = 0; e < 10; ++e) {
    EXPECT_NEAR(p_scaled->EstimateElementWeight(e), c * p_base->EstimateElementWeight(e),
                1e-6 * c * p_base->EstimateTotalWeight() + 1e-9)
        << name << " element " << e;
  }
}

INSTANTIATE_TEST_SUITE_P(Deterministic, HhScaleInvarianceTest,
                         ::testing::Values("P1", "P2"));

// Communication should grow (roughly log) with stream length, never
// linearly, for the threshold protocol.
TEST(HhCommunicationGrowthTest, P2MessagesSublinearInStreamLength) {
  const size_t m = 10;
  const double eps = 0.01;
  uint64_t msgs_at[3];
  size_t idx = 0;
  auto p = MakeHhProtocol("p2", {m, eps});
  data::ZipfianStream z(10000, 2.0, kBeta, 9);
  stream::Router router(m, stream::RoutingPolicy::kUniform, 10);
  for (size_t i = 0; i < 80000; ++i) {
    data::WeightedItem item = z.Next();
    p->Process(router.NextSite(), item.element, item.weight);
    if (i + 1 == 20000 || i + 1 == 40000 || i + 1 == 80000) {
      msgs_at[idx++] = p->comm_stats().total();
    }
  }
  // Doubling the stream must far less than double the messages.
  const double growth1 =
      static_cast<double>(msgs_at[1]) / static_cast<double>(msgs_at[0]);
  const double growth2 =
      static_cast<double>(msgs_at[2]) / static_cast<double>(msgs_at[1]);
  EXPECT_LT(growth1, 1.7);
  EXPECT_LT(growth2, 1.7);
}

}  // namespace
}  // namespace hh
}  // namespace dmt
