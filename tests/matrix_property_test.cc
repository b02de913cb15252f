// Property sweeps over (protocol, m, eps, rank regime) for the matrix
// tracking guarantee |‖Ax‖² − ‖Bx‖²| ≤ ε‖A‖²_F.
#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "data/synthetic_matrix.h"
#include "matrix/error.h"
#include "stream/router.h"

namespace dmt {
namespace matrix {
namespace {

// The sweep keeps the paper's labels ("P1", "P3wor"), which name its CTest
// cases; a label's registry name is "mp" + label.substr(1).
class MatrixProtocolPropertyTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, size_t, double, int>> {};

TEST_P(MatrixProtocolPropertyTest, GuaranteeHolds) {
  auto [name, m, eps, regime] = GetParam();
  auto protocol = MakeMatrixProtocol("mp" + name.substr(1), {m, eps, 42});
  ASSERT_NE(protocol, nullptr);

  data::SyntheticMatrixConfig cfg;
  cfg.dim = regime == 0 ? 12 : 16;
  cfg.latent_rank = regime == 0 ? 3 : 16;  // low rank vs full rank
  cfg.decay_power = regime == 0 ? 0.0 : 0.3;
  cfg.noise_level = regime == 0 ? 1e-3 : 5e-2;
  cfg.seed = 31;
  data::SyntheticMatrixGenerator gen(cfg);
  stream::Router router(m, stream::RoutingPolicy::kUniform, 32);

  CovarianceTracker truth(cfg.dim);
  const size_t n = 15000;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row = gen.Next();
    truth.AddRow(row);
    protocol->ProcessRow(router.NextSite(), row);
  }

  const double err = CovarianceError(truth, protocol->CoordinatorGram());
  const bool deterministic = FindProtocol(protocol->name())->deterministic;
  const double slack = deterministic ? 1.0 : (name == "P3wor" ? 2.0 : 4.0);
  EXPECT_LE(err, slack * eps + 1e-9)
      << name << " m=" << m << " eps=" << eps << " regime=" << regime;

  // All protocols must beat naive communication on these streams.
  EXPECT_LT(protocol->comm_stats().total(), 2 * n) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MatrixProtocolPropertyTest,
    ::testing::Combine(::testing::Values("P1", "P2", "P3wor", "P3wr"),
                       ::testing::Values<size_t>(4, 16),
                       ::testing::Values(0.1, 0.3),
                       ::testing::Values(0, 1)));

// Site-permutation metamorphism: deterministic protocols give identical
// coordinator state when the same rows go to a relabeled site set.
TEST(MatrixMetamorphicTest, SiteRelabelingDoesNotChangeP2) {
  const size_t m = 6;
  const double eps = 0.1;
  auto a = MakeMatrixProtocol("mp2", {m, eps});
  auto b = MakeMatrixProtocol("mp2", {m, eps});
  data::SyntheticMatrixConfig cfg;
  cfg.dim = 8;
  cfg.latent_rank = 3;
  cfg.seed = 7;
  data::SyntheticMatrixGenerator gen(cfg);
  stream::Router router(m, stream::RoutingPolicy::kUniform, 8);
  for (size_t i = 0; i < 5000; ++i) {
    std::vector<double> row = gen.Next();
    size_t site = router.NextSite();
    a->ProcessRow(site, row);
    b->ProcessRow((site + 1) % m, row);  // relabeled sites
  }
  EXPECT_LT(a->CoordinatorGram().MaxAbsDiff(b->CoordinatorGram()),
            1e-9 * a->CoordinatorGram().SquaredFrobeniusNorm() + 1e-12);
}

// Rescaling all rows by c scales the coordinator Gram by c^2 (P2 is
// scale-equivariant because every threshold is relative to F-hat).
TEST(MatrixMetamorphicTest, RowScalingScalesGramP2) {
  const size_t m = 4;
  const double eps = 0.1;
  const double c = 3.0;
  auto a = MakeMatrixProtocol("mp2", {m, eps});
  auto b = MakeMatrixProtocol("mp2", {m, eps});
  data::SyntheticMatrixConfig cfg;
  cfg.dim = 8;
  cfg.latent_rank = 3;
  cfg.seed = 9;
  data::SyntheticMatrixGenerator gen(cfg);
  stream::Router router(m, stream::RoutingPolicy::kUniform, 10);
  for (size_t i = 0; i < 5000; ++i) {
    std::vector<double> row = gen.Next();
    std::vector<double> scaled = row;
    for (auto& v : scaled) v *= c;
    size_t site = router.NextSite();
    a->ProcessRow(site, row);
    b->ProcessRow(site, scaled);
  }
  linalg::Matrix ga = a->CoordinatorGram();
  ga.ScaleBy(c * c);
  EXPECT_LT(ga.MaxAbsDiff(b->CoordinatorGram()),
            1e-8 * b->CoordinatorGram().SquaredFrobeniusNorm() + 1e-12);
}

}  // namespace
}  // namespace matrix
}  // namespace dmt
