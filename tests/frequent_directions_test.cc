#include "sketch/frequent_directions.h"

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "data/synthetic_matrix.h"
#include "linalg/spectral.h"
#include "linalg/symmetric_eigen.h"
#include "linalg/vec_ops.h"
#include "util/rng.h"

namespace dmt {
namespace sketch {
namespace {

using linalg::Matrix;

// Exact max over unit x of ‖Ax‖² − ‖Bx‖² = lambda_max(A^T A − B^T B).
double MaxUndercount(const Matrix& a, const FrequentDirections& fd) {
  Matrix diff = a.Gram();
  diff.Subtract(fd.Gram());
  linalg::EigenDecomposition e = linalg::SymmetricEigen(diff);
  return e.eigenvalues.front();
}

double MinUndercount(const Matrix& a, const FrequentDirections& fd) {
  Matrix diff = a.Gram();
  diff.Subtract(fd.Gram());
  linalg::EigenDecomposition e = linalg::SymmetricEigen(diff);
  return e.eigenvalues.back();
}

TEST(FrequentDirectionsTest, ExactWhileUnderBuffer) {
  FrequentDirections fd(8);
  Rng rng(1);
  Matrix a = linalg::RandomGaussianMatrix(10, 4, &rng);
  fd.AppendRows(a);
  // 10 rows < 2*8: nothing shrunk yet, sketch is the data itself.
  EXPECT_EQ(fd.rows(), 10u);
  EXPECT_DOUBLE_EQ(fd.total_shrinkage(), 0.0);
  EXPECT_LT(a.Gram().MaxAbsDiff(fd.Gram()), 1e-12);
}

TEST(FrequentDirectionsTest, RowCountStaysBelowTwiceEll) {
  FrequentDirections fd(6);
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    std::vector<double> row(5);
    for (auto& v : row) v = rng.NextGaussian();
    fd.Append(row);
    EXPECT_LT(fd.rows(), 12u);
  }
  fd.Compress();
  EXPECT_LE(fd.rows(), 6u);
}

TEST(FrequentDirectionsTest, StreamMassTracked) {
  FrequentDirections fd(4);
  fd.Append({3.0, 4.0});
  fd.Append({0.0, 2.0});
  EXPECT_DOUBLE_EQ(fd.stream_squared_frobenius(), 29.0);
}

// The FD guarantee: 0 <= ‖Ax‖² − ‖Bx‖² <= ‖A‖²_F/(ell+1) for all x,
// swept over sketch sizes and data regimes.
class FdBoundTest
    : public ::testing::TestWithParam<std::tuple<size_t, int, int>> {};

TEST_P(FdBoundTest, DirectionalUndercountWithinBound) {
  auto [ell, regime, seed] = GetParam();
  Rng rng(seed);
  Matrix a;
  if (regime == 0) {
    a = linalg::RandomGaussianMatrix(300, 12, &rng);
  } else {
    // Low-rank-plus-noise regime.
    data::SyntheticMatrixConfig cfg;
    cfg.dim = 12;
    cfg.latent_rank = 3;
    cfg.seed = static_cast<uint64_t>(seed);
    data::SyntheticMatrixGenerator gen(cfg);
    a = gen.Take(300);
  }
  FrequentDirections fd(ell);
  fd.AppendRows(a);

  const double bound =
      a.SquaredFrobeniusNorm() / static_cast<double>(ell + 1);
  EXPECT_GE(MinUndercount(a, fd), -1e-8 * a.SquaredFrobeniusNorm());
  EXPECT_LE(MaxUndercount(a, fd), bound + 1e-8 * a.SquaredFrobeniusNorm());
  EXPECT_LE(fd.total_shrinkage(), bound + 1e-9);
  // The measured undercount is also bounded by the tracked shrinkage.
  EXPECT_LE(MaxUndercount(a, fd), fd.total_shrinkage() + 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FdBoundTest,
    ::testing::Combine(::testing::Values<size_t>(2, 4, 8, 16),
                       ::testing::Values(0, 1), ::testing::Values(1, 2)));

TEST(FrequentDirectionsTest, WithEpsilonMeetsEpsilonBound) {
  const double eps = 0.05;
  FrequentDirections fd = FrequentDirections::WithEpsilon(eps);
  Rng rng(5);
  Matrix a = linalg::RandomGaussianMatrix(400, 10, &rng);
  fd.AppendRows(a);
  EXPECT_LE(MaxUndercount(a, fd),
            eps * a.SquaredFrobeniusNorm() + 1e-8);
}

TEST(FrequentDirectionsTest, MergePreservesCombinedBound) {
  const size_t ell = 8;
  Rng rng(6);
  Matrix a1 = linalg::RandomGaussianMatrix(200, 9, &rng);
  Matrix a2 = linalg::RandomGaussianMatrix(200, 9, &rng);
  FrequentDirections f1(ell), f2(ell);
  f1.AppendRows(a1);
  f2.AppendRows(a2);
  f1.Merge(f2);

  Matrix stacked = a1;
  for (size_t i = 0; i < a2.rows(); ++i) {
    stacked.AppendRow(a2.Row(i), a2.cols());
  }
  const double bound =
      stacked.SquaredFrobeniusNorm() / static_cast<double>(ell + 1);
  EXPECT_LE(MaxUndercount(stacked, f1), bound + 1e-8);
  EXPECT_GE(MinUndercount(stacked, f1),
            -1e-8 * stacked.SquaredFrobeniusNorm());
  EXPECT_DOUBLE_EQ(f1.stream_squared_frobenius(),
                   stacked.SquaredFrobeniusNorm());
}

// Merge bulk-appends the other sketch's buffer and shrinks once. When the
// combined buffers fit under 2*ell no shrink runs at all, and the merge must
// be exactly a concatenation with additive accounting.
TEST(FrequentDirectionsTest, MergeWithoutShrinkIsExactConcatenation) {
  const size_t ell = 8;
  Rng rng(9);
  Matrix a1 = linalg::RandomGaussianMatrix(7, 5, &rng);
  Matrix a2 = linalg::RandomGaussianMatrix(8, 5, &rng);
  FrequentDirections f1(ell), f2(ell);
  f1.AppendRows(a1);
  f2.AppendRows(a2);
  const double pre_ssf = f1.stream_squared_frobenius();
  const double pre_shrinkage = f1.total_shrinkage() + f2.total_shrinkage();
  const size_t pre_shrinks = f1.shrink_count();

  f1.Merge(f2);  // 7 + 8 = 15 rows < 2*ell: no shrink may fire.

  EXPECT_EQ(f1.shrink_count(), pre_shrinks);
  EXPECT_EQ(f1.rows(), 15u);
  EXPECT_DOUBLE_EQ(f1.stream_squared_frobenius(),
                   pre_ssf + f2.stream_squared_frobenius());
  EXPECT_DOUBLE_EQ(f1.total_shrinkage(), pre_shrinkage);
  for (size_t i = 0; i < a1.rows(); ++i) {
    for (size_t j = 0; j < a1.cols(); ++j) {
      EXPECT_DOUBLE_EQ(f1.sketch()(i, j), a1(i, j));
    }
  }
  for (size_t i = 0; i < a2.rows(); ++i) {
    for (size_t j = 0; j < a2.cols(); ++j) {
      EXPECT_DOUBLE_EQ(f1.sketch()(a1.rows() + i, j), a2(i, j));
    }
  }
}

// Regression for the row-at-a-time merge: merging two near-full sketches
// used to trigger up to one SVD shrink per ell_ appended rows; the bulk path
// must run at most ONE shrink while keeping the same error accounting
// (stream_sq_frob_ exactly additive, total_shrinkage_ within the FD bound).
TEST(FrequentDirectionsTest, MergeRunsAtMostOneShrinkWithSameBounds) {
  const size_t ell = 6;
  Rng rng(10);
  Matrix a1 = linalg::RandomGaussianMatrix(150, 8, &rng);
  Matrix a2 = linalg::RandomGaussianMatrix(150, 8, &rng);
  FrequentDirections f1(ell), f2(ell);
  f1.AppendRows(a1);
  f2.AppendRows(a2);
  // Both buffers near capacity so the merge is forced over 2*ell.
  ASSERT_GE(f1.rows() + f2.rows(), 2 * ell);
  const double pre_ssf =
      f1.stream_squared_frobenius() + f2.stream_squared_frobenius();
  const double pre_shrinkage = f1.total_shrinkage() + f2.total_shrinkage();
  const size_t pre_shrinks = f1.shrink_count();

  f1.Merge(f2);

  EXPECT_EQ(f1.shrink_count(), pre_shrinks + 1);
  EXPECT_LT(f1.rows(), 2 * ell);
  EXPECT_DOUBLE_EQ(f1.stream_squared_frobenius(), pre_ssf);
  // The single merge shrink only adds its own cutoff on top of the parts'.
  EXPECT_GE(f1.total_shrinkage(), pre_shrinkage);
  EXPECT_LE(f1.total_shrinkage(),
            f1.stream_squared_frobenius() / static_cast<double>(ell + 1));
  // Directional guarantee against the stacked raw stream still holds with
  // total_shrinkage_ as the undercount certificate.
  Matrix stacked = a1;
  for (size_t i = 0; i < a2.rows(); ++i) {
    stacked.AppendRow(a2.Row(i), a2.cols());
  }
  EXPECT_LE(MaxUndercount(stacked, f1), f1.total_shrinkage() + 1e-8);
  EXPECT_GE(MinUndercount(stacked, f1),
            -1e-8 * stacked.SquaredFrobeniusNorm());
}

TEST(FrequentDirectionsTest, SelfMergeDoublesTheSketch) {
  const size_t ell = 6;
  Rng rng(11);
  Matrix a = linalg::RandomGaussianMatrix(40, 5, &rng);
  FrequentDirections fd(ell);
  fd.AppendRows(a);
  const double pre_ssf = fd.stream_squared_frobenius();
  const double pre_shrinkage = fd.total_shrinkage();

  fd.Merge(fd);

  EXPECT_LT(fd.rows(), 2 * ell);
  EXPECT_DOUBLE_EQ(fd.stream_squared_frobenius(), 2.0 * pre_ssf);
  EXPECT_GE(fd.total_shrinkage(), 2.0 * pre_shrinkage);
  EXPECT_LE(fd.total_shrinkage(),
            fd.stream_squared_frobenius() / static_cast<double>(ell + 1));
  // The doubled stream is A stacked on A; the guarantee must hold for it.
  Matrix stacked = a;
  for (size_t i = 0; i < a.rows(); ++i) {
    stacked.AppendRow(a.Row(i), a.cols());
  }
  EXPECT_LE(MaxUndercount(stacked, fd), fd.total_shrinkage() + 1e-8);
  EXPECT_GE(MinUndercount(stacked, fd),
            -1e-8 * stacked.SquaredFrobeniusNorm());
}

TEST(FrequentDirectionsTest, LowRankInputRecoveredNearlyExactly) {
  // Rank-2 stream, sketch of 8 rows: error should be ~0 (FD only sheds
  // mass when forced, and rank 2 fits comfortably).
  FrequentDirections fd(8);
  Rng rng(7);
  Matrix a;
  for (int i = 0; i < 300; ++i) {
    double c1 = rng.NextGaussian(), c2 = rng.NextGaussian();
    std::vector<double> row(6, 0.0);
    row[0] = 3.0 * c1;
    row[1] = 2.0 * c2;
    a.AppendRow(row);
    fd.Append(row);
  }
  EXPECT_LE(MaxUndercount(a, fd), 1e-8 * a.SquaredFrobeniusNorm());
}

TEST(FrequentDirectionsTest, SquaredNormAlongMatchesGram) {
  FrequentDirections fd(5);
  Rng rng(8);
  Matrix a = linalg::RandomGaussianMatrix(100, 7, &rng);
  fd.AppendRows(a);
  std::vector<double> x = linalg::RandomUnitVector(7, &rng);
  std::vector<double> gx = fd.Gram().MultiplyVector(x);
  EXPECT_NEAR(fd.SquaredNormAlong(x), linalg::Dot(x, gx), 1e-9);
}

TEST(FrequentDirectionsDeathTest, MergeEllMismatchAborts) {
  FrequentDirections a(4), b(5);
  b.Append({1.0, 2.0});
  EXPECT_DEATH(a.Merge(b), "DMT_CHECK");
}

}  // namespace
}  // namespace sketch
}  // namespace dmt
