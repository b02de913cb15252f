// RightSingularOf / RightSingularFromGram (the Gram + QL route), and the
// test-only ReferenceSvd the SVD checks compare against.
#include "linalg/svd.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/spectral.h"
#include "linalg/vec_ops.h"
#include "reference_eigen.h"
#include "util/rng.h"

namespace dmt {
namespace linalg {
namespace {

Matrix SvdReconstruct(const ReferenceSvdResult& svd, size_t rows,
                      size_t cols) {
  Matrix out(rows, cols);
  for (size_t t = 0; t < svd.sigma.size(); ++t) {
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < cols; ++j) {
        out(i, j) += svd.u(i, t) * svd.sigma[t] * svd.v(j, t);
      }
    }
  }
  return out;
}

void ExpectOrthonormalColumns(const Matrix& m, double tol) {
  for (size_t i = 0; i < m.cols(); ++i) {
    std::vector<double> ci = m.ColVector(i);
    EXPECT_NEAR(Norm(ci), 1.0, tol) << "column " << i;
    for (size_t j = i + 1; j < m.cols(); ++j) {
      std::vector<double> cj = m.ColVector(j);
      EXPECT_NEAR(Dot(ci, cj), 0.0, tol) << "columns " << i << "," << j;
    }
  }
}

// The reference itself, on both sides of n = d: B = U diag(sigma) V^T
// with orthonormal U and V.
class ReferenceSvdShapeTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(ReferenceSvdShapeTest, ReconstructsAndIsOrthonormal) {
  auto [n, d] = GetParam();
  Rng rng(n * 131 + d);
  Matrix a = RandomGaussianMatrix(n, d, &rng);
  ReferenceSvdResult svd = ReferenceSvd(a);
  const size_t r = std::min(n, d);
  ASSERT_EQ(svd.sigma.size(), r);
  ASSERT_EQ(svd.u.rows(), n);
  ASSERT_EQ(svd.u.cols(), r);
  ASSERT_EQ(svd.v.rows(), d);
  ASSERT_EQ(svd.v.cols(), r);

  Matrix rec = SvdReconstruct(svd, n, d);
  EXPECT_LT(a.MaxAbsDiff(rec), 1e-9 * std::sqrt(a.SquaredFrobeniusNorm()));
  ExpectOrthonormalColumns(svd.u, 1e-9);
  ExpectOrthonormalColumns(svd.v, 1e-9);
  for (size_t i = 0; i + 1 < r; ++i) EXPECT_GE(svd.sigma[i], svd.sigma[i + 1]);
  for (double s : svd.sigma) EXPECT_GE(s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ReferenceSvdShapeTest,
    ::testing::Values(std::make_pair<size_t, size_t>(10, 10),
                      std::make_pair<size_t, size_t>(30, 8),
                      std::make_pair<size_t, size_t>(8, 30),
                      std::make_pair<size_t, size_t>(1, 5),
                      std::make_pair<size_t, size_t>(5, 1)));

TEST(SvdTest, SingularValuesMatchGramEigenvalues) {
  Rng rng(5);
  Matrix a = RandomGaussianMatrix(40, 10, &rng);
  ReferenceSvdResult svd = ReferenceSvd(a);
  RightSingular rs = RightSingularOf(a);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(svd.sigma[i] * svd.sigma[i], rs.squared_sigma[i],
                1e-7 * rs.squared_sigma[0]);
  }
}

TEST(SvdTest, RightSingularFromGramClampsNegatives) {
  // A slightly indefinite "Gram" from roundoff must clamp at zero.
  Matrix g = Matrix::FromRows({{1.0, 0.0}, {0.0, -1e-18}});
  RightSingular rs = RightSingularFromGram(g);
  EXPECT_GE(rs.squared_sigma[1], 0.0);
}

TEST(SvdTest, ZeroMatrixHasZeroSigma) {
  Matrix a(4, 3);
  RightSingular rs = RightSingularOf(a);
  ASSERT_EQ(rs.squared_sigma.size(), 3u);
  for (double s2 : rs.squared_sigma) EXPECT_DOUBLE_EQ(s2, 0.0);
}

TEST(SvdTest, NormAlongTopSingularVectorIsSigmaSquared) {
  Rng rng(21);
  Matrix a = RandomGaussianMatrix(50, 12, &rng);
  RightSingular rs = RightSingularOf(a);
  std::vector<double> v1 = rs.v.ColVector(0);
  EXPECT_NEAR(a.SquaredNormAlong(v1), rs.squared_sigma[0],
              1e-7 * rs.squared_sigma[0]);
}

}  // namespace
}  // namespace linalg
}  // namespace dmt
