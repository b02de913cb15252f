#include "matrix/baselines.h"

#include <gtest/gtest.h>

#include "data/synthetic_matrix.h"
#include "linalg/svd.h"
#include "linalg/symmetric_eigen.h"
#include "matrix/error.h"

namespace dmt {
namespace matrix {
namespace {

TEST(NaiveSvdBaselineTest, ErrorEqualsTailEigenvalue) {
  data::SyntheticMatrixConfig cfg;
  cfg.dim = 10;
  cfg.latent_rank = 10;
  cfg.decay_power = 0.4;
  cfg.seed = 1;
  data::SyntheticMatrixGenerator gen(cfg);
  const size_t k = 4;
  NaiveSvdBaseline svd(3, cfg.dim, k);
  CovarianceTracker truth(cfg.dim);
  for (int i = 0; i < 5000; ++i) {
    std::vector<double> row = gen.Next();
    truth.AddRow(row);
    svd.ProcessRow(static_cast<size_t>(i % 3), row);
  }
  // ||A^T A - B^T B||_2 = lambda_{k+1} for the optimal rank-k B.
  linalg::EigenDecomposition e = linalg::SymmetricEigen(truth.gram());
  const double expected = e.eigenvalues[k] / truth.squared_frobenius();
  EXPECT_NEAR(CovarianceError(truth, svd.CoordinatorGram()), expected,
              1e-8 + 1e-6 * expected);
}

TEST(NaiveSvdBaselineTest, LowRankDataHasTinyError) {
  data::SyntheticMatrixGenerator gen(
      data::SyntheticMatrixGenerator::PamapLike(2));
  NaiveSvdBaseline svd(2, 44, 30);
  CovarianceTracker truth(44);
  for (int i = 0; i < 5000; ++i) {
    std::vector<double> row = gen.Next();
    truth.AddRow(row);
    svd.ProcessRow(static_cast<size_t>(i % 2), row);
  }
  EXPECT_LT(CovarianceError(truth, svd.CoordinatorGram()), 1e-4);
}

TEST(NaiveSvdBaselineTest, SketchHasAtMostKRows) {
  NaiveSvdBaseline svd(2, 6, 3);
  data::SyntheticMatrixConfig cfg;
  cfg.dim = 6;
  cfg.seed = 3;
  data::SyntheticMatrixGenerator gen(cfg);
  for (int i = 0; i < 100; ++i) svd.ProcessRow(0, gen.Next());
  EXPECT_LE(svd.CoordinatorSketch().rows(), 3u);
}

TEST(NaiveFdBaselineTest, MeetsFdBound) {
  data::SyntheticMatrixConfig cfg;
  cfg.dim = 12;
  cfg.latent_rank = 12;
  cfg.decay_power = 0.3;
  cfg.noise_level = 0.05;
  cfg.seed = 4;
  data::SyntheticMatrixGenerator gen(cfg);
  const size_t ell = 8;
  NaiveFdBaseline fd(2, ell);
  CovarianceTracker truth(cfg.dim);
  for (int i = 0; i < 4000; ++i) {
    std::vector<double> row = gen.Next();
    truth.AddRow(row);
    fd.ProcessRow(static_cast<size_t>(i % 2), row);
  }
  EXPECT_LE(CovarianceError(truth, fd.CoordinatorGram()),
            1.0 / static_cast<double>(ell + 1) + 1e-9);
}

TEST(BaselinesTest, MessageCountEqualsStreamLength) {
  NaiveFdBaseline fd(4, 8);
  NaiveSvdBaseline svd(4, 5, 2);
  data::SyntheticMatrixConfig cfg;
  cfg.dim = 5;
  cfg.seed = 5;
  data::SyntheticMatrixGenerator gen(cfg);
  for (int i = 0; i < 500; ++i) {
    std::vector<double> row = gen.Next();
    fd.ProcessRow(static_cast<size_t>(i % 4), row);
    svd.ProcessRow(static_cast<size_t>(i % 4), row);
  }
  EXPECT_EQ(fd.comm_stats().total(), 500u);
  EXPECT_EQ(svd.comm_stats().total(), 500u);
}

TEST(BaselinesTest, SvdErrorNeverAboveFdError) {
  // SVD is the optimal rank-k summary; FD with ell = k cannot beat it.
  data::SyntheticMatrixConfig cfg;
  cfg.dim = 12;
  cfg.latent_rank = 12;
  cfg.decay_power = 0.25;
  cfg.noise_level = 0.05;
  cfg.seed = 6;
  data::SyntheticMatrixGenerator gen(cfg);
  const size_t k = 6;
  NaiveFdBaseline fd(1, k);
  NaiveSvdBaseline svd(1, cfg.dim, k);
  CovarianceTracker truth(cfg.dim);
  for (int i = 0; i < 4000; ++i) {
    std::vector<double> row = gen.Next();
    truth.AddRow(row);
    fd.ProcessRow(0, row);
    svd.ProcessRow(0, row);
  }
  EXPECT_LE(CovarianceError(truth, svd.CoordinatorGram()),
            CovarianceError(truth, fd.CoordinatorGram()) + 1e-9);
}

}  // namespace
}  // namespace matrix
}  // namespace dmt
