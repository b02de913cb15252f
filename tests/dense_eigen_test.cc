// Pins the Householder-QL dense eigensolver (SymmetricEigenInPlace and
// SymmetricEigen) and the Lanczos dense route against the independent
// cyclic-Jacobi reference (tests/reference_eigen.h): PAMAP- and MSD-like
// Grams, an indefinite 256 x 256 matrix, and the degenerate shapes —
// zero, 1 x 1, all-tied, rank-1, graded and already-tridiagonal — plus
// determinism and non-finite input. The dense-route cases also pin how
// each entry point forms S: from d matvecs for a caller's operator, and
// from the explicit matrix or rows, bit-identically, otherwise.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic_matrix.h"
#include "linalg/lanczos.h"
#include "linalg/matrix.h"
#include "linalg/spectral.h"
#include "linalg/symmetric_eigen.h"
#include "linalg/vec_ops.h"
#include "reference_eigen.h"
#include "util/rng.h"

namespace dmt {
namespace linalg {
namespace {

// Residual and orthogonality bound, relative to ||S||_F.
constexpr double kTol = 1e-13;

struct KernelResult {
  std::vector<double> values;
  Matrix vectors;  // row i pairs with values[i]
  bool ok = false;
};

KernelResult RunKernel(const Matrix& s) {
  const size_t n = s.rows();
  KernelResult r;
  r.vectors = s;
  r.values.assign(n, 0.0);
  std::vector<double> scratch(n);
  r.ok = SymmetricEigenInPlace(n == 0 ? nullptr : r.vectors.Row(0), n,
                               r.values.data(), scratch.data());
  return r;
}

double FrobeniusNorm(const Matrix& s) {
  return std::sqrt(s.SquaredFrobeniusNorm());
}

// ||S u - theta u||, accumulated in long double so the check is far more
// accurate than the solver under test.
double ExactResidual(const Matrix& s, const double* u, double theta) {
  long double sum = 0.0L;
  for (size_t t = 0; t < s.rows(); ++t) {
    long double x = 0.0L;
    for (size_t k = 0; k < s.cols(); ++k) {
      x += static_cast<long double>(s(t, k)) * u[k];
    }
    x -= static_cast<long double>(theta) * u[t];
    sum += x * x;
  }
  return static_cast<double>(std::sqrt(sum));
}

// Accuracy contract of one eigendecomposition (eigenvector i = row i of
// `vecs`): non-increasing values, residual and orthogonality within kTol
// relative, and agreement with the Jacobi reference — values everywhere,
// vectors (up to sign) wherever the eigenvalue is separated.
void ExpectAccurate(const Matrix& s, const Reference& ref,
                    const std::vector<double>& values, const Matrix& vecs) {
  const size_t n = s.rows();
  ASSERT_EQ(values.size(), n);
  ASSERT_EQ(vecs.rows(), n);
  const double scale = FrobeniusNorm(s);
  for (size_t i = 0; i + 1 < n; ++i) EXPECT_GE(values[i], values[i + 1]);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_LE(ExactResidual(s, vecs.Row(i), values[i]), kTol * scale)
        << "pair " << i;
    for (size_t j = i; j < n; ++j) {
      const double expect = i == j ? 1.0 : 0.0;
      EXPECT_NEAR(Dot(vecs.Row(i), vecs.Row(j), n), expect, kTol)
          << "rows " << i << ", " << j;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(values[i], ref.values[i], kTol * scale) << "value " << i;
    double gap = std::numeric_limits<double>::infinity();
    if (i > 0) gap = std::min(gap, ref.values[i - 1] - ref.values[i]);
    if (i + 1 < n) gap = std::min(gap, ref.values[i] - ref.values[i + 1]);
    if (gap <= 1e-3 * scale) continue;
    double dot = 0.0;
    for (size_t k = 0; k < n; ++k) dot += vecs(i, k) * ref.vectors(k, i);
    EXPECT_NEAR(std::fabs(dot), 1.0, 1e-10) << "vector " << i;
  }
}

void ExpectKernelAndWrapperAccurate(const Matrix& s) {
  const Reference ref = JacobiReference(s);
  const KernelResult r = RunKernel(s);
  EXPECT_TRUE(r.ok);
  ExpectAccurate(s, ref, r.values, r.vectors);
  const EigenDecomposition e = SymmetricEigen(s);
  ExpectAccurate(s, ref, e.eigenvalues, e.eigenvectors.Transposed());
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.empty() || std::memcmp(a.Row(0), b.Row(0),
                                   a.rows() * a.cols() * sizeof(double)) ==
                           0);
}

// Q diag(lambda) Q^T for a deterministic random orthogonal Q, exactly
// symmetric.
Matrix WithSpectrum(const std::vector<double>& lambda, uint64_t seed) {
  Rng rng(seed);
  const size_t n = lambda.size();
  const Matrix q = RandomOrthogonalMatrix(n, &rng);
  Matrix s(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      double v = 0.0;
      for (size_t t = 0; t < n; ++t) v += q(i, t) * lambda[t] * q(j, t);
      s(i, j) = v;
      s(j, i) = v;
    }
  }
  return s;
}

Matrix PamapGram() {
  data::SyntheticMatrixGenerator gen(
      data::SyntheticMatrixGenerator::PamapLike(11));
  return gen.Take(600).Gram();
}

Matrix MsdGram() {
  data::SyntheticMatrixGenerator gen(
      data::SyntheticMatrixGenerator::MsdLike(12));
  return gen.Take(600).Gram();
}

TEST(DenseEigenTest, PamapLikeGram) {
  const Matrix s = PamapGram();
  ASSERT_EQ(s.rows(), 44u);
  ExpectKernelAndWrapperAccurate(s);
}

TEST(DenseEigenTest, MsdLikeGram) {
  const Matrix s = MsdGram();
  ASSERT_EQ(s.rows(), 90u);
  ExpectKernelAndWrapperAccurate(s);
}

TEST(DenseEigenTest, Indefinite256) {
  Rng rng(3);
  const Matrix g = RandomGaussianMatrix(256, 256, &rng);
  Matrix s(256, 256);
  for (size_t i = 0; i < 256; ++i) {
    for (size_t j = 0; j < 256; ++j) s(i, j) = g(i, j) + g(j, i);
  }
  const KernelResult r = RunKernel(s);
  ASSERT_TRUE(r.ok);
  EXPECT_GT(r.values.front(), 0.0);
  EXPECT_LT(r.values.back(), 0.0);
  ExpectKernelAndWrapperAccurate(s);
}

TEST(DenseEigenTest, EmptyAndOneByOne) {
  const KernelResult empty = RunKernel(Matrix(0, 0));
  EXPECT_TRUE(empty.ok);
  EXPECT_TRUE(empty.values.empty());
  EXPECT_TRUE(SymmetricEigen(Matrix(0, 0)).eigenvalues.empty());

  const Matrix one = Matrix::FromRows({{-3.5}});
  const KernelResult r = RunKernel(one);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.values[0], -3.5);
  EXPECT_EQ(r.vectors(0, 0), 1.0);
  ExpectKernelAndWrapperAccurate(one);
}

TEST(DenseEigenTest, ZeroMatrix) {
  const Matrix s(7, 7);
  const KernelResult r = RunKernel(s);
  EXPECT_TRUE(r.ok);
  for (double v : r.values) EXPECT_EQ(v, 0.0);
  ExpectKernelAndWrapperAccurate(s);
}

TEST(DenseEigenTest, AllTiedIdentityKeepsIndexOrder) {
  const Matrix s = Matrix::Identity(9);
  const KernelResult r = RunKernel(s);
  EXPECT_TRUE(r.ok);
  for (double v : r.values) EXPECT_EQ(v, 1.0);
  // Every value is tied, so the index tie-break leaves the identity.
  EXPECT_TRUE(BitIdentical(r.vectors, s));
  ExpectKernelAndWrapperAccurate(s);
}

TEST(DenseEigenTest, RankOne) {
  Rng rng(5);
  const std::vector<double> v = RandomUnitVector(24, &rng);
  Matrix s(24, 24);
  s.AddOuterProduct(7.0, v);
  const KernelResult r = RunKernel(s);
  EXPECT_NEAR(r.values[0], 7.0, kTol * 7.0);
  for (size_t i = 1; i < 24; ++i) EXPECT_NEAR(r.values[i], 0.0, kTol * 7.0);
  EXPECT_NEAR(std::fabs(Dot(r.vectors.Row(0), v.data(), 24)), 1.0, kTol);
  ExpectKernelAndWrapperAccurate(s);
}

TEST(DenseEigenTest, GradedSpectrum) {
  std::vector<double> lambda(30);
  for (size_t i = 0; i < lambda.size(); ++i) {
    lambda[i] = std::pow(10.0, -12.0 * static_cast<double>(i) / 29.0);
  }
  ExpectKernelAndWrapperAccurate(WithSpectrum(lambda, 6));
}

TEST(DenseEigenTest, AlreadyTridiagonal) {
  // 1-D Laplacian: eigenvalues 2 - 2 cos(k pi / (n + 1)), k = 1..n.
  const size_t n = 20;
  Matrix s(n, n);
  for (size_t i = 0; i < n; ++i) {
    s(i, i) = 2.0;
    if (i + 1 < n) {
      s(i, i + 1) = -1.0;
      s(i + 1, i) = -1.0;
    }
  }
  const KernelResult r = RunKernel(s);
  const double pi = std::acos(-1.0);
  for (size_t k = 0; k < n; ++k) {
    const double expect =
        2.0 - 2.0 * std::cos(static_cast<double>(n - k) * pi / (n + 1));
    EXPECT_NEAR(r.values[k], expect, 1e-14 * 4.0) << "k=" << k;
  }
  ExpectKernelAndWrapperAccurate(s);
}

TEST(DenseEigenTest, ReadsOnlyTheUpperTriangle) {
  const Matrix s = PamapGram();
  Matrix poisoned = s;
  for (size_t i = 0; i < s.rows(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      poisoned(i, j) = std::numeric_limits<double>::quiet_NaN();
    }
  }
  const KernelResult clean = RunKernel(s);
  const KernelResult upper = RunKernel(poisoned);
  EXPECT_TRUE(upper.ok);
  EXPECT_TRUE(BitIdentical(clean.values, upper.values));
  EXPECT_TRUE(BitIdentical(clean.vectors, upper.vectors));
}

TEST(DenseEigenTest, RepeatedCallsAreBitIdentical) {
  const Matrix s = MsdGram();
  const KernelResult a = RunKernel(s);
  const KernelResult b = RunKernel(s);
  EXPECT_TRUE(BitIdentical(a.values, b.values));
  EXPECT_TRUE(BitIdentical(a.vectors, b.vectors));
  const EigenDecomposition e1 = SymmetricEigen(s);
  const EigenDecomposition e2 = SymmetricEigen(s);
  EXPECT_TRUE(BitIdentical(e1.eigenvalues, e2.eigenvalues));
  EXPECT_TRUE(BitIdentical(e1.eigenvectors, e2.eigenvectors));
}

// NaN or Inf (e.g. a corrupted wire-delivered direction in MP2's
// coordinator Gram) must come back promptly and flagged — no hang, no
// abort.
TEST(DenseEigenTest, NonFiniteInputReturnsUnconverged) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (double x : bad) {
    for (size_t n : {size_t{1}, size_t{2}, size_t{12}, size_t{44}}) {
      Matrix s = WithSpectrum(std::vector<double>(n, 1.0), 7);
      s(0, n - 1) = x;
      s(n - 1, 0) = x;
      EXPECT_FALSE(RunKernel(s).ok) << "n=" << n << " x=" << x;
      const EigenDecomposition e = SymmetricEigen(s);
      EXPECT_EQ(e.eigenvalues.size(), n);

      // Lanczos, on the dense route (m = d) and the Krylov route.
      std::vector<double> vals;
      Matrix vecs;
      EXPECT_FALSE(LanczosTopKOfGram(s, 1, &vals, &vecs).converged);
    }
  }
  Matrix wide = WithSpectrum(std::vector<double>(60, 1.0), 8);
  wide(3, 3) = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> vals;
  Matrix vecs;
  EXPECT_FALSE(LanczosTopKOfGram(wide, 3, &vals, &vecs).converged);
}

// ---- Lanczos dense route: TopK switches to it exactly when the Krylov
// basis would span R^d, i.e. m = min(2k + 8, d) == d.

struct LanczosRun {
  std::vector<double> values;
  Matrix vectors;
  LanczosInfo info;
};

LanczosRun RunLanczos(const Matrix& s, size_t k) {
  LanczosRun r;
  r.info = LanczosTopKOfGram(s, k, &r.values, &r.vectors);
  return r;
}

void ExpectTopKAgrees(const Matrix& s, const LanczosRun& r, size_t k) {
  ASSERT_TRUE(r.info.converged);
  ASSERT_EQ(r.values.size(), k);
  const double scale = FrobeniusNorm(s);
  const Reference ref = JacobiReference(s);
  for (size_t i = 0; i < k; ++i) {
    EXPECT_NEAR(r.values[i], ref.values[i], 1e-10 * scale) << "i=" << i;
    double dot = 0.0;
    for (size_t t = 0; t < s.rows(); ++t) {
      dot += r.vectors(i, t) * ref.vectors(t, i);
    }
    EXPECT_NEAR(std::fabs(dot), 1.0, 1e-8) << "i=" << i;
  }
}

TEST(DenseEigenTest, LanczosDenseRouteAtBasisEqualsDimension) {
  // k = 18 at d = 44: m = 2k + 8 = d.
  const Matrix s = PamapGram();
  const LanczosRun r = RunLanczos(s, 18);
  EXPECT_EQ(r.info.matvecs, 0u);  // S is the matrix itself, no operator
  EXPECT_EQ(r.info.restarts, 0u);
  ExpectTopKAgrees(s, r, 18);

  double actual_sq = 0.0;
  for (size_t i = 0; i < 18; ++i) {
    const double res = ExactResidual(s, r.vectors.Row(i), r.values[i]);
    actual_sq += res * res;
  }
  EXPECT_GE(r.info.residual_bound, std::sqrt(actual_sq));
  EXPECT_LE(r.info.residual_bound, 1e-12 * FrobeniusNorm(s));
}

TEST(DenseEigenTest, LanczosKrylovRouteOneStepBeforeTheSwitch) {
  // k = 18 at d = 45: m = 2k + 8 = d - 1, still the Krylov route.
  Rng rng(21);
  const Matrix s = RandomGaussianMatrix(120, 45, &rng).Gram();
  const LanczosRun r = RunLanczos(s, 18);
  EXPECT_NE(r.info.matvecs, 45u);
  ExpectTopKAgrees(s, r, 18);
}

TEST(DenseEigenTest, LanczosDenseRouteOnRowsAtFdShape) {
  // MP1's FD shrink: top ell + 1 = 21 pairs of a 2 ell = 40-row buffer
  // at d = 44, iterated on the rows.
  data::SyntheticMatrixGenerator gen(
      data::SyntheticMatrixGenerator::PamapLike(13));
  const Matrix rows = gen.Take(40);
  const Matrix s = rows.Gram();
  LanczosSolver solver;
  LanczosRun r;
  r.info = solver.TopKOfRows(rows, 21, &r.values, &r.vectors);
  EXPECT_EQ(r.info.matvecs, 0u);  // S is one blocked Gram of the rows
  ExpectTopKAgrees(s, r, 21);
  double actual_sq = 0.0;
  for (size_t i = 0; i < 21; ++i) {
    const double res = ExactResidual(s, r.vectors.Row(i), r.values[i]);
    actual_sq += res * res;
  }
  EXPECT_GE(r.info.residual_bound, std::sqrt(actual_sq));

  // A reused solver reproduces its first answer bit for bit.
  LanczosRun again;
  again.info = solver.TopKOfRows(rows, 21, &again.values, &again.vectors);
  EXPECT_TRUE(BitIdentical(r.values, again.values));
  EXPECT_TRUE(BitIdentical(r.vectors, again.vectors));
  EXPECT_EQ(r.info.residual_bound, again.info.residual_bound);
}

TEST(DenseEigenTest, LanczosDenseRouteOfGramMatchesCallerOperator) {
  // k = 18 at d = 44 again. The Gram is built entry by entry, so its
  // lower triangle carries its own roundoff: only a transposed copy
  // reproduces the column reads d unit-vector matvecs make.
  const size_t d = 44;
  Rng rng(23);
  const Matrix q = RandomOrthogonalMatrix(d, &rng);
  Matrix s(d, d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) {
      double v = 0.0;
      for (size_t t = 0; t < d; ++t) {
        v += q(i, t) * (1.0 + static_cast<double>(t)) * q(j, t);
      }
      s(i, j) = v;
    }
  }
  bool asymmetric = false;
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i + 1; j < d; ++j) asymmetric |= s(i, j) != s(j, i);
  }
  ASSERT_TRUE(asymmetric);

  LanczosSolver solver;
  LanczosRun op;
  op.info = solver.TopK(
      d, 18,
      [&s, d](const double* x, double* y) {
        for (size_t i = 0; i < d; ++i) y[i] = Dot(s.Row(i), x, d);
      },
      &op.values, &op.vectors);
  EXPECT_EQ(op.info.matvecs, d);  // one per unit vector, nothing else
  EXPECT_EQ(op.info.restarts, 0u);
  EXPECT_TRUE(op.info.converged);

  const LanczosRun gram = RunLanczos(s, 18);
  EXPECT_EQ(gram.info.matvecs, 0u);
  EXPECT_TRUE(gram.info.converged);
  EXPECT_TRUE(BitIdentical(op.values, gram.values));
  EXPECT_TRUE(BitIdentical(op.vectors, gram.vectors));
  EXPECT_EQ(op.info.residual_bound, gram.info.residual_bound);
}

TEST(DenseEigenTest, LanczosDenseRouteOnTallRowsAtFdShape) {
  // A merged MP1 coordinator buffer: n = 58 rows at d = 44, still on the
  // dense route (k = 21). For n >= d the formed S is the blocked Gram an
  // explicit caller would pass to TopKOfGram, so the two agree bit for
  // bit.
  data::SyntheticMatrixGenerator gen(
      data::SyntheticMatrixGenerator::PamapLike(14));
  const Matrix rows = gen.Take(58);
  const Matrix s = rows.Gram();
  LanczosSolver solver;
  LanczosRun r;
  r.info = solver.TopKOfRows(rows, 21, &r.values, &r.vectors);
  EXPECT_EQ(r.info.matvecs, 0u);
  ExpectTopKAgrees(s, r, 21);
  double actual_sq = 0.0;
  for (size_t i = 0; i < 21; ++i) {
    const double res = ExactResidual(s, r.vectors.Row(i), r.values[i]);
    actual_sq += res * res;
  }
  EXPECT_GE(r.info.residual_bound, std::sqrt(actual_sq));

  const LanczosRun gram = RunLanczos(s, 21);
  EXPECT_TRUE(BitIdentical(r.values, gram.values));
  EXPECT_TRUE(BitIdentical(r.vectors, gram.vectors));

  LanczosRun again;
  again.info = solver.TopKOfRows(rows, 21, &again.values, &again.vectors);
  EXPECT_TRUE(BitIdentical(r.values, again.values));
  EXPECT_TRUE(BitIdentical(r.vectors, again.vectors));
  EXPECT_EQ(r.info.residual_bound, again.info.residual_bound);
}

TEST(DenseEigenTest, LanczosDenseRouteOnNaNRowsReturnsUnconverged) {
  data::SyntheticMatrixGenerator gen(
      data::SyntheticMatrixGenerator::PamapLike(15));
  for (size_t n : {size_t{40}, size_t{58}}) {
    Matrix rows = gen.Take(n);
    rows(n / 2, 7) = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> vals;
    Matrix vecs;
    const LanczosInfo info = LanczosTopKOfRows(rows, 21, &vals, &vecs);
    EXPECT_FALSE(info.converged) << "n=" << n;
    EXPECT_EQ(vals.size(), 21u);
  }
}

}  // namespace
}  // namespace linalg
}  // namespace dmt
