// Tests for the in-place cyclic Jacobi diagonalization that the dense
// eigensolver and SVD checks use as their independent reference
// (tests/reference_eigen.h).
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "linalg/spectral.h"
#include "linalg/symmetric_eigen.h"
#include "linalg/vec_ops.h"
#include "reference_eigen.h"
#include "util/rng.h"

namespace dmt {
namespace linalg {
namespace {

// Reconstructs V * G * V^T (the matrix the pair (G, V) represents).
Matrix Represented(const Matrix& g, const Matrix& v) {
  return v.Multiply(g).Multiply(v.Transposed());
}

std::vector<double> SortedDiagonal(const Matrix& g) {
  std::vector<double> d(g.rows());
  for (size_t i = 0; i < g.rows(); ++i) d[i] = g(i, i);
  std::sort(d.begin(), d.end(), std::greater<double>());
  return d;
}

TEST(JacobiInPlaceTest, FullDiagonalizationMatchesSymmetricEigen) {
  Rng rng(1);
  Matrix a = RandomGaussianMatrix(30, 8, &rng);
  Matrix g = a.Gram();
  Matrix v = Matrix::Identity(8);
  Matrix original = g;
  JacobiDiagonalizeInPlace(&g, &v);

  EigenDecomposition e = SymmetricEigen(original);
  std::vector<double> got = SortedDiagonal(g);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(got[i], e.eigenvalues[i], 1e-9 * (1.0 + e.eigenvalues[0]));
  }
}

TEST(JacobiInPlaceTest, RepresentationInvariant) {
  Rng rng(2);
  Matrix a = RandomGaussianMatrix(20, 6, &rng);
  Matrix g = a.Gram();
  Matrix original = g;
  Matrix v = Matrix::Identity(6);
  JacobiDiagonalizeInPlace(&g, &v);
  // V G V^T must equal the original matrix: rotations lose nothing.
  EXPECT_LT(Represented(g, v).MaxAbsDiff(original),
            1e-9 * original.SquaredFrobeniusNorm());
}

TEST(JacobiInPlaceTest, WarmStartAppliesFewRotations) {
  Rng rng(3);
  Matrix a = RandomGaussianMatrix(100, 10, &rng);
  Matrix g = a.Gram();
  Matrix v = Matrix::Identity(10);
  size_t cold = JacobiDiagonalizeInPlace(&g, &v);
  EXPECT_GT(cold, 0u);
  // Perturb with one rank-1 row (in the rotated basis) and re-diagonalize:
  // the warm pass must need far fewer rotations than the cold one.
  std::vector<double> row = RandomUnitVector(10, &rng);
  std::vector<double> c = v.TransposedMultiplyVector(row);
  g.AddOuterProduct(1.0, c);
  size_t warm = JacobiDiagonalizeInPlace(&g, &v);
  EXPECT_LT(warm, cold / 2);
}

TEST(JacobiInPlaceDeathTest, ShapeMismatchAborts) {
  Matrix g(3, 3);
  Matrix v = Matrix::Identity(4);
  EXPECT_DEATH(JacobiDiagonalizeInPlace(&g, &v), "DMT_CHECK");
}

}  // namespace
}  // namespace linalg
}  // namespace dmt
