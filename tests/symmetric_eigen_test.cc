#include "linalg/symmetric_eigen.h"

#include <cmath>

#include <gtest/gtest.h>

#include "linalg/spectral.h"
#include "linalg/vec_ops.h"
#include "util/rng.h"

namespace dmt {
namespace linalg {
namespace {

Matrix Reconstruct(const EigenDecomposition& e) {
  const size_t n = e.eigenvalues.size();
  Matrix out(n, n);
  for (size_t k = 0; k < n; ++k) {
    std::vector<double> v = e.Eigenvector(k);
    out.AddOuterProduct(e.eigenvalues[k], v);
  }
  return out;
}

TEST(SymmetricEigenTest, DiagonalMatrixIsItsOwnDecomposition) {
  Matrix s(3, 3);
  s(0, 0) = 1.0;
  s(1, 1) = 5.0;
  s(2, 2) = 3.0;
  EigenDecomposition e = SymmetricEigen(s);
  EXPECT_NEAR(e.eigenvalues[0], 5.0, 1e-12);
  EXPECT_NEAR(e.eigenvalues[1], 3.0, 1e-12);
  EXPECT_NEAR(e.eigenvalues[2], 1.0, 1e-12);
}

TEST(SymmetricEigenTest, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Matrix s = Matrix::FromRows({{2, 1}, {1, 2}});
  EigenDecomposition e = SymmetricEigen(s);
  EXPECT_NEAR(e.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(e.eigenvalues[1], 1.0, 1e-12);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  std::vector<double> v = e.Eigenvector(0);
  EXPECT_NEAR(std::fabs(v[0]), std::sqrt(0.5), 1e-10);
  EXPECT_NEAR(v[0], v[1], 1e-10);
}

TEST(SymmetricEigenTest, EigenvaluesSortedDescending) {
  Rng rng(3);
  Matrix a = RandomGaussianMatrix(12, 6, &rng);
  EigenDecomposition e = SymmetricEigen(a.Gram());
  for (size_t i = 0; i + 1 < e.eigenvalues.size(); ++i) {
    EXPECT_GE(e.eigenvalues[i], e.eigenvalues[i + 1]);
  }
}

TEST(SymmetricEigenTest, ReconstructionMatchesInput) {
  Rng rng(7);
  Matrix a = RandomGaussianMatrix(20, 8, &rng);
  Matrix s = a.Gram();
  EigenDecomposition e = SymmetricEigen(s);
  Matrix rec = Reconstruct(e);
  EXPECT_LT(s.MaxAbsDiff(rec), 1e-9 * s.SquaredFrobeniusNorm());
}

TEST(SymmetricEigenTest, EigenvectorsOrthonormal) {
  Rng rng(11);
  Matrix a = RandomGaussianMatrix(15, 7, &rng);
  EigenDecomposition e = SymmetricEigen(a.Gram());
  for (size_t i = 0; i < 7; ++i) {
    std::vector<double> vi = e.Eigenvector(i);
    EXPECT_NEAR(Norm(vi), 1.0, 1e-10);
    for (size_t j = i + 1; j < 7; ++j) {
      std::vector<double> vj = e.Eigenvector(j);
      EXPECT_NEAR(Dot(vi, vj), 0.0, 1e-10);
    }
  }
}

TEST(SymmetricEigenTest, GramEigenvaluesNonNegative) {
  Rng rng(13);
  Matrix a = RandomGaussianMatrix(30, 9, &rng);
  EigenDecomposition e = SymmetricEigen(a.Gram());
  for (double l : e.eigenvalues) EXPECT_GE(l, -1e-9);
}

TEST(SymmetricEigenTest, IndefiniteMatrixHasSignedSpectrum) {
  // [[0,1],[1,0]] has eigenvalues +1 and -1.
  Matrix s = Matrix::FromRows({{0, 1}, {1, 0}});
  EigenDecomposition e = SymmetricEigen(s);
  EXPECT_NEAR(e.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(e.eigenvalues[1], -1.0, 1e-12);
  EXPECT_NEAR(SpectralNormSymmetric(s), 1.0, 1e-12);
}

TEST(SymmetricEigenTest, SpectralNormOfZeroMatrix) {
  Matrix s(4, 4);
  EXPECT_DOUBLE_EQ(SpectralNormSymmetric(s), 0.0);
}

TEST(SymmetricEigenTest, TraceEqualsEigenvalueSum) {
  Rng rng(17);
  Matrix a = RandomGaussianMatrix(25, 10, &rng);
  Matrix s = a.Gram();
  double trace = 0.0;
  for (size_t i = 0; i < 10; ++i) trace += s(i, i);
  EigenDecomposition e = SymmetricEigen(s);
  double sum = 0.0;
  for (double l : e.eigenvalues) sum += l;
  EXPECT_NEAR(trace, sum, 1e-8 * trace);
}

}  // namespace
}  // namespace linalg
}  // namespace dmt
