// Pins the thick-restart Lanczos partial eigensolver against the exact
// full-spectrum route across adversarial spectra: repeated eigenvalues,
// rank-deficient operators, the zero matrix, k = d and k = 1, indefinite
// matrices, warm seeds, and determinism. Small shapes (m = d) exercise
// the dense route; the *OnTheKrylovRoute cases keep m < d.
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/kernels.h"
#include "linalg/lanczos.h"
#include "linalg/matrix.h"
#include "linalg/spectral.h"
#include "linalg/symmetric_eigen.h"
#include "linalg/vec_ops.h"
#include "util/rng.h"

namespace dmt {
namespace linalg {
namespace {

// Builds Q diag(lambda) Q^T for a deterministic random orthogonal Q.
Matrix SymmetricWithSpectrum(const std::vector<double>& lambda,
                             uint64_t seed) {
  Rng rng(seed);
  const size_t d = lambda.size();
  Matrix q = RandomOrthogonalMatrix(d, &rng);
  Matrix s(d, d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) {
      double v = 0.0;
      for (size_t t = 0; t < d; ++t) v += q(i, t) * lambda[t] * q(j, t);
      s(i, j) = v;
    }
  }
  // Exact symmetry despite summation roundoff.
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i + 1; j < d; ++j) {
      const double v = 0.5 * (s(i, j) + s(j, i));
      s(i, j) = v;
      s(j, i) = v;
    }
  }
  return s;
}

// Norm of the projection of `u` onto the reference eigenspace of every
// eigenvalue within `cluster_tol` of `theta` — the subspace-angle test
// that stays meaningful under repeated eigenvalues.
double EigenspaceAlignment(const EigenDecomposition& ref, double theta,
                           const std::vector<double>& u,
                           double cluster_tol) {
  double proj_sq = 0.0;
  for (size_t i = 0; i < ref.eigenvalues.size(); ++i) {
    if (std::fabs(ref.eigenvalues[i] - theta) > cluster_tol) continue;
    const std::vector<double> v = ref.Eigenvector(i);
    const double c = Dot(u, v);
    proj_sq += c * c;
  }
  return std::sqrt(proj_sq);
}

void ExpectAgreesWithDenseSolve(const Matrix& s, size_t k,
                            double vec_cluster_tol) {
  EigenDecomposition ref = SymmetricEigen(s);
  std::vector<double> vals;
  Matrix vecs;
  LanczosInfo info = LanczosTopKOfGram(s, k, &vals, &vecs);
  ASSERT_TRUE(info.converged);
  ASSERT_EQ(vals.size(), std::min(k, s.rows()));
  double scale = 1e-300;
  for (double l : ref.eigenvalues) scale = std::max(scale, std::fabs(l));
  for (size_t i = 0; i < vals.size(); ++i) {
    EXPECT_NEAR(vals[i], ref.eigenvalues[i], 1e-10 * scale) << "i=" << i;
    std::vector<double> u(vecs.Row(i), vecs.Row(i) + s.rows());
    EXPECT_NEAR(Norm(u), 1.0, 1e-8) << "i=" << i;
    EXPECT_GT(EigenspaceAlignment(ref, vals[i], u, vec_cluster_tol),
              1.0 - 1e-8)
        << "i=" << i;
  }
}

TEST(LanczosTest, AgreesWithDenseSolveOnRandomGram) {
  Rng rng(1);
  Matrix a = RandomGaussianMatrix(80, 24, &rng);
  ExpectAgreesWithDenseSolve(a.Gram(), 6, 1e-6 * 80);
}

TEST(LanczosTest, RepeatedEigenvaluesAreAllFound) {
  // Triple eigenvalue 5 at the top: single-vector Krylov spaces cannot
  // contain a full multiple eigenspace, so this exercises the breakdown
  // recovery that inserts fresh deterministic directions.
  std::vector<double> lambda = {5.0, 5.0, 5.0, 2.0, 1.0, 0.5,
                                0.25, 0.1, 0.05, 0.01};
  Matrix s = SymmetricWithSpectrum(lambda, 7);
  ExpectAgreesWithDenseSolve(s, 4, 1e-8);
}

TEST(LanczosTest, RepeatedEigenvaluesOnTheKrylovRoute) {
  // Same triple top eigenvalue at d = 40, where k = 4 keeps the basis at
  // m = 16 < d: the breakdown recovery runs on the Krylov route, not the
  // dense one small d selects.
  std::vector<double> lambda(40);
  for (size_t i = 0; i < lambda.size(); ++i) {
    lambda[i] = i < 3 ? 5.0 : 2.0 / static_cast<double>(i);
  }
  Matrix s = SymmetricWithSpectrum(lambda, 17);
  ExpectAgreesWithDenseSolve(s, 4, 1e-8);
}

TEST(LanczosTest, ZeroMatrixOnTheKrylovRoute) {
  Matrix s(30, 30);  // k = 5: m = 18 < d
  std::vector<double> vals;
  Matrix vecs;
  LanczosInfo info = LanczosTopKOfGram(s, 5, &vals, &vecs);
  ASSERT_TRUE(info.converged);
  EXPECT_NE(info.matvecs, 30u);
  for (double v : vals) EXPECT_DOUBLE_EQ(v, 0.0);
  for (size_t i = 0; i < 5; ++i) {
    std::vector<double> u(vecs.Row(i), vecs.Row(i) + 30);
    EXPECT_NEAR(Norm(u), 1.0, 1e-12);
  }
}

TEST(LanczosTest, RankDeficientOperatorPadsWithZeros) {
  Rng rng(3);
  Matrix a = RandomGaussianMatrix(6, 20, &rng);  // A^T A has rank 6
  std::vector<double> vals;
  Matrix vecs;
  LanczosInfo info = LanczosTopKOfRows(a, 10, &vals, &vecs);
  ASSERT_TRUE(info.converged);
  EigenDecomposition ref = SymmetricEigen(a.Gram());
  const double scale = ref.eigenvalues.front();
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(vals[i], std::max(0.0, ref.eigenvalues[i]), 1e-10 * scale);
  }
  for (size_t i = 6; i < 10; ++i) {
    EXPECT_NEAR(vals[i], 0.0, 1e-10 * scale);
  }
}

TEST(LanczosTest, ZeroMatrix) {
  Matrix s(12, 12);
  std::vector<double> vals;
  Matrix vecs;
  LanczosInfo info = LanczosTopKOfGram(s, 5, &vals, &vecs);
  ASSERT_TRUE(info.converged);
  for (double v : vals) EXPECT_DOUBLE_EQ(v, 0.0);
  // Returned vectors are still orthonormal.
  for (size_t i = 0; i < 5; ++i) {
    std::vector<double> u(vecs.Row(i), vecs.Row(i) + 12);
    EXPECT_NEAR(Norm(u), 1.0, 1e-12);
  }
}

TEST(LanczosTest, KEqualsDRecoversFullSpectrum) {
  Rng rng(4);
  Matrix a = RandomGaussianMatrix(30, 9, &rng);
  ExpectAgreesWithDenseSolve(a.Gram(), 9, 1e-6 * 30);
}

TEST(LanczosTest, KEqualsOneFindsAlgebraicMaxNotMagnitudeMax) {
  // lambda_max = 1 but |lambda_min| = 10: power iteration would lock onto
  // the magnitude-dominant negative end; Lanczos must return the
  // algebraic maximum.
  std::vector<double> lambda = {1.0, 0.5, 0.0, -0.2, -4.0, -10.0};
  Matrix s = SymmetricWithSpectrum(lambda, 11);
  std::vector<double> vals;
  Matrix vecs;
  LanczosInfo info = LanczosTopKOfGram(s, 1, &vals, &vecs);
  ASSERT_TRUE(info.converged);
  EXPECT_NEAR(vals[0], 1.0, 1e-9);
}

TEST(LanczosTest, SpectralNormHandlesIndefiniteDifference) {
  Rng rng(5);
  Matrix a = RandomGaussianMatrix(40, 10, &rng);
  Matrix b = RandomGaussianMatrix(25, 10, &rng);
  Matrix diff = a.Gram();
  diff.Subtract(b.Gram());
  const double exact = SpectralNormSymmetric(diff);
  EXPECT_NEAR(SpectralNormSymmetricLanczos(diff), exact, 1e-9 * exact);
}

TEST(LanczosTest, WarmSeedConverges) {
  Rng rng(6);
  Matrix a = RandomGaussianMatrix(50, 16, &rng);
  Matrix s = a.Gram();
  std::vector<double> vals;
  Matrix vecs;
  LanczosInfo cold = LanczosTopKOfGram(s, 3, &vals, &vecs);
  ASSERT_TRUE(cold.converged);
  std::vector<double> seed(vecs.Row(0), vecs.Row(0) + 16);

  // Perturb the operator slightly and re-solve from the previous leading
  // eigenvector — the FD warm-start contract.
  s(0, 0) += 0.01 * vals[0];
  LanczosOptions opts;
  opts.seed = seed.data();
  std::vector<double> warm_vals;
  Matrix warm_vecs;
  LanczosSolver solver;
  LanczosInfo warm = solver.TopK(
      16, 3,
      [&s](const double* x, double* y) {
        for (size_t i = 0; i < 16; ++i) y[i] = Dot(s.Row(i), x, 16);
      },
      &warm_vals, &warm_vecs, opts);
  ASSERT_TRUE(warm.converged);
  EigenDecomposition ref = SymmetricEigen(s);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(warm_vals[i], ref.eigenvalues[i],
                1e-10 * ref.eigenvalues.front());
  }
}

TEST(LanczosTest, RowsAndGramRoutesAgree) {
  Rng rng(8);
  Matrix a = RandomGaussianMatrix(12, 40, &rng);  // wide: rows route
  std::vector<double> vr, vg;
  Matrix wr, wg;
  ASSERT_TRUE(LanczosTopKOfRows(a, 5, &vr, &wr).converged);
  ASSERT_TRUE(LanczosTopKOfGram(a.Gram(), 5, &vg, &wg).converged);
  const double scale = vr[0];
  for (size_t i = 0; i < 5; ++i) EXPECT_NEAR(vr[i], vg[i], 1e-9 * scale);

  // Tall (n > d) on the Krylov route (k = 5: m = 18 < d): TopKOfRows
  // iterates on one blocked Gram of the rows, exactly as TopKOfGram does.
  Matrix tall = RandomGaussianMatrix(60, 40, &rng);
  Matrix g(40, 40);
  kernels::Gram(tall.Row(0), tall.rows(), tall.cols(), g.Row(0));
  LanczosInfo rows_info = LanczosTopKOfRows(tall, 5, &vr, &wr);
  LanczosInfo gram_info = LanczosTopKOfGram(g, 5, &vg, &wg);
  ASSERT_TRUE(rows_info.converged);
  EXPECT_GT(rows_info.matvecs, 0u);
  EXPECT_EQ(rows_info.matvecs, gram_info.matvecs);
  EXPECT_EQ(rows_info.residual_bound, gram_info.residual_bound);
  ASSERT_EQ(vr.size(), vg.size());
  for (size_t i = 0; i < vr.size(); ++i) {
    EXPECT_EQ(vr[i], vg[i]) << "i=" << i;
    for (size_t j = 0; j < 40; ++j) EXPECT_EQ(wr(i, j), wg(i, j));
  }
}

// On the Krylov route (d = 44, k = 4: a 16-row basis) TopKOfGram's
// operator runs DotRows; every pass of it must be the per-row Dot matvec
// a caller would write, so the whole solve — values, vectors, residual
// bound, matvec and restart counts — comes out bit-identical.
TEST(LanczosTest, KrylovRouteOfGramMatchesPerRowDotOperator) {
  const size_t d = 44;
  Rng rng(31);
  const Matrix a = RandomGaussianMatrix(60, d, &rng);
  const Matrix s = a.Gram();
  ASSERT_FALSE(LanczosSolver::UsesDenseRoute(d, 4));

  LanczosSolver by_rows;
  std::vector<double> op_vals;
  Matrix op_vecs;
  const LanczosInfo op = by_rows.TopK(
      d, 4,
      [&s, d](const double* x, double* y) {
        for (size_t i = 0; i < d; ++i) y[i] = Dot(s.Row(i), x, d);
      },
      &op_vals, &op_vecs);
  LanczosSolver by_gram;
  std::vector<double> vals;
  Matrix vecs;
  const LanczosInfo gram = by_gram.TopKOfGram(s, 4, &vals, &vecs);

  ASSERT_TRUE(gram.converged);
  EXPECT_EQ(op.converged, gram.converged);
  EXPECT_GT(gram.matvecs, 0u);
  EXPECT_EQ(op.matvecs, gram.matvecs);
  EXPECT_EQ(op.restarts, gram.restarts);
  EXPECT_EQ(std::memcmp(&op.residual_bound, &gram.residual_bound,
                        sizeof(double)),
            0);
  ASSERT_EQ(op_vals.size(), 4u);
  ASSERT_EQ(vals.size(), 4u);
  EXPECT_EQ(std::memcmp(op_vals.data(), vals.data(), 4 * sizeof(double)), 0);
  ASSERT_EQ(op_vecs.rows(), 4u);
  ASSERT_EQ(vecs.rows(), 4u);
  EXPECT_EQ(
      std::memcmp(op_vecs.Row(0), vecs.Row(0), 4 * d * sizeof(double)), 0);
}

TEST(LanczosTest, DeterministicAcrossCalls) {
  Rng rng(9);
  Matrix a = RandomGaussianMatrix(35, 14, &rng);
  Matrix s = a.Gram();
  std::vector<double> v1, v2;
  Matrix w1, w2;
  LanczosTopKOfGram(s, 4, &v1, &w1);
  LanczosTopKOfGram(s, 4, &v2, &w2);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(v1[i], v2[i]);
    for (size_t j = 0; j < 14; ++j) EXPECT_DOUBLE_EQ(w1(i, j), w2(i, j));
  }
}

TEST(LanczosTest, EmptyAndTrivialShapes) {
  std::vector<double> vals;
  Matrix vecs;
  Matrix empty(0, 0);
  EXPECT_TRUE(LanczosTopKOfGram(empty, 3, &vals, &vecs).converged);
  EXPECT_TRUE(vals.empty());

  Matrix one = Matrix::FromRows({{4.0}});
  EXPECT_TRUE(LanczosTopKOfGram(one, 1, &vals, &vecs).converged);
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_DOUBLE_EQ(vals[0], 4.0);
}

}  // namespace
}  // namespace linalg
}  // namespace dmt
