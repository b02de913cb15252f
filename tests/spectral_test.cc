#include "linalg/spectral.h"

#include <vector>

#include <gtest/gtest.h>

#include "linalg/vec_ops.h"

namespace dmt {
namespace linalg {
namespace {

TEST(SpectralTest, RandomUnitVectorHasUnitNorm) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    std::vector<double> x = RandomUnitVector(16, &rng);
    EXPECT_NEAR(Norm(x), 1.0, 1e-12);
  }
}

TEST(SpectralTest, RandomGaussianMatrixShape) {
  Rng rng(4);
  Matrix m = RandomGaussianMatrix(7, 3, &rng);
  EXPECT_EQ(m.rows(), 7u);
  EXPECT_EQ(m.cols(), 3u);
}

TEST(SpectralTest, RandomOrthogonalMatrixIsOrthogonal) {
  Rng rng(5);
  const size_t d = 12;
  Matrix q = RandomOrthogonalMatrix(d, &rng);
  Matrix qtq = q.Transposed().Multiply(q);
  EXPECT_LT(qtq.MaxAbsDiff(Matrix::Identity(d)), 1e-10);
}

TEST(SpectralTest, OrthogonalMatrixPreservesNorms) {
  Rng rng(6);
  const size_t d = 9;
  Matrix q = RandomOrthogonalMatrix(d, &rng);
  std::vector<double> x = RandomUnitVector(d, &rng);
  std::vector<double> qx = q.MultiplyVector(x);
  EXPECT_NEAR(Norm(qx), 1.0, 1e-10);
}

}  // namespace
}  // namespace linalg
}  // namespace dmt
