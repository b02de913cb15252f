#include "sketch/frequent_directions.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic_matrix.h"
#include "linalg/spectral.h"
#include "linalg/symmetric_eigen.h"
#include "linalg/vec_ops.h"
#include "reference_eigen.h"
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

// Sketches of `sizes[i]` Gaussian rows each (dimension d), with the raw
// rows of every part stacked into *raw in batch order.
std::vector<FrequentDirections> GaussianParts(size_t ell, size_t d,
                                             const std::vector<size_t>& sizes,
                                             Rng* rng, Matrix* raw) {
  std::vector<FrequentDirections> parts;
  for (size_t n : sizes) {
    Matrix a = linalg::RandomGaussianMatrix(n, d, rng);
    raw->AppendRows(a);
    parts.emplace_back(ell);
    parts.back().AppendRows(a);
  }
  return parts;
}

std::vector<const FrequentDirections*> BatchOf(
    const std::vector<FrequentDirections>& parts) {
  std::vector<const FrequentDirections*> batch;
  for (const FrequentDirections& f : parts) batch.push_back(&f);
  return batch;
}

void ExpectSameRows(const FrequentDirections& a, const FrequentDirections& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.dim(), b.dim());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.dim(); ++j) {
      EXPECT_EQ(a.sketch()(i, j), b.sketch()(i, j)) << i << ", " << j;
    }
  }
}

// A batch merge is one shrink of the stacked rows [Agarwal et al. 2012]:
// this sketch's rows, then every part's in batch order, compressed once
// at the end. So its Gram is the stacked Gram's top ell eigenpairs, each
// shrunk by lambda_{ell+1}, it adds exactly that cutoff to the parts'
// shrinkage, and stream mass is carried over from the parts exactly.
TEST(FrequentDirectionsTest, BatchMergeIsOneShrinkOfTheStackedRows) {
  const size_t ell = 5;
  const size_t d = 9;
  Rng rng(12);
  FrequentDirections fd(ell);
  fd.AppendRows(linalg::RandomGaussianMatrix(37, d, &rng));
  Matrix raw;
  const std::vector<FrequentDirections> parts =
      GaussianParts(ell, d, {23, 40, 9, 61, 17, 3}, &rng, &raw);
  Matrix stacked = fd.sketch();
  double want_sq_frob = fd.stream_squared_frobenius();
  double parts_shrinkage = 0.0;
  for (const FrequentDirections& f : parts) {
    stacked.AppendRows(f.sketch());
    want_sq_frob += f.stream_squared_frobenius();
    parts_shrinkage += f.total_shrinkage();
  }
  ASSERT_GT(parts_shrinkage, 0.0);
  ASSERT_GE(stacked.rows(), 4 * ell);  // more than one buffer capacity
  const double pre_shrinkage = fd.total_shrinkage();
  const size_t pre_shrinks = fd.shrink_count();

  const std::vector<const FrequentDirections*> batch = BatchOf(parts);
  fd.Merge(batch.data(), batch.size());

  EXPECT_EQ(fd.shrink_count(), pre_shrinks + 1);
  EXPECT_LE(fd.rows(), ell);
  EXPECT_EQ(fd.stream_squared_frobenius(), want_sq_frob);

  const linalg::Reference ref = linalg::JacobiReference(stacked.Gram());
  const double delta = ref.values[ell];
  Matrix want(d, d);
  for (size_t i = 0; i < ell; ++i) {
    const double w = std::max(0.0, ref.values[i] - delta);
    for (size_t a = 0; a < d; ++a) {
      for (size_t b = 0; b < d; ++b) {
        want(a, b) += w * ref.vectors(a, i) * ref.vectors(b, i);
      }
    }
  }
  const double mass = stacked.SquaredFrobeniusNorm();
  EXPECT_LT(fd.Gram().MaxAbsDiff(want), 1e-8 * mass);
  EXPECT_NEAR(fd.total_shrinkage(), pre_shrinkage + parts_shrinkage + delta,
              1e-8 * mass);
}

// The FD guarantee for the stacked streams of a batch's parts, with
// total_shrinkage() as the certificate, and the streaming row invariant.
TEST(FrequentDirectionsTest, BatchMergeKeepsTheStackedStreamBound) {
  const size_t ell = 4;
  const size_t d = 7;
  Rng rng(13);
  Matrix raw = linalg::RandomGaussianMatrix(50, d, &rng);
  FrequentDirections fd(ell);
  fd.AppendRows(raw);
  const std::vector<FrequentDirections> parts =
      GaussianParts(ell, d, {30, 7, 44, 12, 25}, &rng, &raw);
  const std::vector<const FrequentDirections*> batch = BatchOf(parts);
  fd.Merge(batch.data(), batch.size());

  const double mass = raw.SquaredFrobeniusNorm();
  EXPECT_LT(fd.rows(), 2 * ell);
  EXPECT_NEAR(fd.stream_squared_frobenius(), mass, 1e-9 * mass);
  EXPECT_GE(MinUndercount(raw, fd), -1e-8 * mass);
  EXPECT_LE(MaxUndercount(raw, fd), fd.total_shrinkage() + 1e-8 * mass);
  EXPECT_LE(fd.total_shrinkage(),
            fd.stream_squared_frobenius() / static_cast<double>(ell + 1));
}

// k near-full sketches holding R rows: merged one at a time, every merge
// crosses 2*ell and shrinks; merged as one batch, the R rows stack behind
// the kept ones and one shrink runs, however many buffer capacities that
// spans.
TEST(FrequentDirectionsTest, BatchMergeShrinksOnce) {
  const size_t ell = 6;
  const size_t d = 10;
  const size_t k = 12;
  Rng rng(14);
  Matrix raw;
  const std::vector<FrequentDirections> parts = GaussianParts(
      ell, d, std::vector<size_t>(k, 2 * ell - 1), &rng, &raw);
  size_t rows = 0;
  for (const FrequentDirections& f : parts) rows += f.rows();
  ASSERT_EQ(rows, k * (2 * ell - 1));

  FrequentDirections singles(ell);
  singles.AppendRows(linalg::RandomGaussianMatrix(ell, d, &rng));
  FrequentDirections batched = singles;
  const size_t pre_shrinks = singles.shrink_count();

  for (const FrequentDirections& f : parts) singles.Merge(f);
  const std::vector<const FrequentDirections*> batch = BatchOf(parts);
  batched.Merge(batch.data(), batch.size());

  EXPECT_EQ(singles.shrink_count() - pre_shrinks, k);
  ASSERT_GT(rows, 4 * ell);
  EXPECT_EQ(batched.shrink_count() - pre_shrinks, 1u);
  EXPECT_LT(batched.rows(), 2 * ell);
  EXPECT_NEAR(batched.stream_squared_frobenius(),
              singles.stream_squared_frobenius(),
              1e-12 * singles.stream_squared_frobenius());
}

// Every batch entry reads the state before the call, so a batch holding
// `this` twice is the same batch over an explicit copy.
TEST(FrequentDirectionsTest, BatchMergeOfSelfMatchesMergeOfCopies) {
  const size_t ell = 5;
  Rng rng(15);
  FrequentDirections aliased(ell);
  aliased.AppendRows(linalg::RandomGaussianMatrix(73, 8, &rng));
  FrequentDirections other(ell);
  other.AppendRows(linalg::RandomGaussianMatrix(29, 8, &rng));
  FrequentDirections plain = aliased;
  const FrequentDirections copy = aliased;

  const FrequentDirections* self_batch[] = {&aliased, &other, &aliased};
  aliased.Merge(self_batch, 3);
  const FrequentDirections* copy_batch[] = {&copy, &other, &copy};
  plain.Merge(copy_batch, 3);

  ExpectSameRows(aliased, plain);
  EXPECT_EQ(aliased.shrink_count(), plain.shrink_count());
  EXPECT_EQ(aliased.stream_squared_frobenius(),
            plain.stream_squared_frobenius());
  EXPECT_EQ(aliased.total_shrinkage(), plain.total_shrinkage());
}

// FactoredSketch holds, and its factors rebuild the rows exactly: row i
// is sqrt(squared_sigma[i]) times column i of v, bit for bit, with one
// descending sigma^2 per row. Returns the factors through *out.
void ExpectFactorsRebuildRows(const FrequentDirections& fd,
                              linalg::RightSingular* out) {
  ASSERT_TRUE(fd.FactoredSketch(out));
  const linalg::RightSingular& f = *out;
  ASSERT_EQ(f.squared_sigma.size(), fd.rows());
  ASSERT_EQ(f.v.rows(), fd.dim());
  ASSERT_EQ(f.v.cols(), fd.rows());
  size_t mismatches = 0;
  for (size_t i = 0; i < fd.rows(); ++i) {
    if (i > 0) {
      EXPECT_LE(f.squared_sigma[i], f.squared_sigma[i - 1]);
    }
    const double sigma = std::sqrt(f.squared_sigma[i]);
    for (size_t j = 0; j < fd.dim(); ++j) {
      if (fd.sketch()(i, j) != sigma * f.v(j, i)) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

void ExpectFactorsRebuildRows(const FrequentDirections& fd) {
  linalg::RightSingular f;
  ExpectFactorsRebuildRows(fd, &f);
}

std::vector<double> GaussianRow(size_t d, Rng* rng) {
  std::vector<double> row(d);
  for (double& v : row) v = rng->NextGaussian();
  return row;
}

// Right after a shrink the rows are that shrink's own sigma-scaled
// eigenvectors, and FactoredSketch hands out exactly those factors: after
// Compress(), after the streaming shrink at 2*ell rows, and after a bulk
// append whose last shrink is its final one — on the Krylov route and on
// the dense one.
TEST(FrequentDirectionsTest, FactoredSketchRebuildsTheRowsAfterAShrink) {
  const size_t ell = 4, d = 48;  // Krylov route: 2 * 5 + 8 < d
  for (FdShrinkBackend backend :
       {FdShrinkBackend::kLanczos, FdShrinkBackend::kDense}) {
    SCOPED_TRACE(backend == FdShrinkBackend::kLanczos ? "lanczos" : "dense");
    Rng rng(21);
    FrequentDirections fd(ell, d);
    fd.set_shrink_backend(backend);
    linalg::RightSingular f;
    EXPECT_FALSE(fd.FactoredSketch(&f));  // nothing shrunk yet
    fd.AppendRows(linalg::RandomGaussianMatrix(ell + 3, d, &rng));
    EXPECT_FALSE(fd.FactoredSketch(&f));
    fd.Compress();
    ASSERT_EQ(fd.shrink_count(), 1u);
    ExpectFactorsRebuildRows(fd);

    // Row at a time up to the streaming shrink at 2*ell rows.
    fd.Append(GaussianRow(d, &rng));
    EXPECT_FALSE(fd.FactoredSketch(&f));
    while (fd.shrink_count() == 1) fd.Append(GaussianRow(d, &rng));
    ExpectFactorsRebuildRows(fd);

    // A bulk append that shrinks at the 4*ell capacity mid-batch and
    // once more at the end.
    const size_t before = fd.shrink_count();
    fd.AppendRows(linalg::RandomGaussianMatrix(5 * ell, d, &rng));
    ASSERT_EQ(fd.shrink_count(), before + 2);
    ExpectFactorsRebuildRows(fd);
    EXPECT_EQ(fd.lanczos_fallback_count(), 0u);
  }
}

// Any row entering the buffer ends the factored state — through Append,
// AppendRows or a Merge with a non-empty part. A merge that brings no
// rows, or an empty AppendRows, keeps it.
TEST(FrequentDirectionsTest, FactoredSketchEndsWhenARowEnters) {
  const size_t ell = 4, d = 10;
  Rng rng(22);
  FrequentDirections shrunk(ell, d);
  shrunk.AppendRows(linalg::RandomGaussianMatrix(ell + 3, d, &rng));
  shrunk.Compress();
  ExpectFactorsRebuildRows(shrunk);
  const Matrix one = linalg::RandomGaussianMatrix(1, d, &rng);
  FrequentDirections part(ell, d);
  part.AppendRows(one);
  linalg::RightSingular f;

  FrequentDirections appended = shrunk;
  appended.Append(one.Row(0), d);
  EXPECT_FALSE(appended.FactoredSketch(&f));

  FrequentDirections bulk = shrunk;
  bulk.AppendRows(one);
  EXPECT_FALSE(bulk.FactoredSketch(&f));

  FrequentDirections merged = shrunk;
  merged.Merge(part);
  EXPECT_FALSE(merged.FactoredSketch(&f));

  FrequentDirections batch_merged = shrunk;
  const FrequentDirections no_rows(ell, d);
  const FrequentDirections* with_rows[] = {&no_rows, &part};
  batch_merged.Merge(with_rows, 2);
  EXPECT_FALSE(batch_merged.FactoredSketch(&f));

  // Parts without rows, of unknown and of known dimension.
  FrequentDirections kept = shrunk;
  const FrequentDirections no_dim(ell);
  const FrequentDirections* empties[] = {&no_dim, &no_rows};
  kept.Merge(empties, 2);
  kept.Merge(no_rows);
  kept.AppendRows(Matrix());
  ExpectSameRows(kept, shrunk);
  ExpectFactorsRebuildRows(kept);
}

// On the Krylov route (MSD-like d = 90, ell = 20: 2 ell + 10 < d) the
// factors are Ritz pairs of the buffer, not a QL solve. They must still
// be the sketch's own singular structure: V orthonormal to 1e-13, and
// sigma and sigma-scaled V equal to a reference SVD of the stored rows to
// 1e-10 sigma_1 (V up to sign, wherever sigma^2 is separated).
TEST(FrequentDirectionsTest, KrylovFactorsMatchAReferenceSvdOfTheSketch) {
  const size_t ell = 20;
  data::SyntheticMatrixGenerator gen(
      data::SyntheticMatrixGenerator::MsdLike(3));
  FrequentDirections fd(ell);
  fd.set_shrink_backend(FdShrinkBackend::kLanczos);
  fd.AppendRows(gen.Take(400));
  fd.Compress();
  const size_t d = fd.dim();
  ASSERT_EQ(d, 90u);
  ASSERT_FALSE(linalg::LanczosSolver::UsesDenseRoute(d, ell + 1));
  EXPECT_EQ(fd.lanczos_fallback_count(), 0u);
  linalg::RightSingular f;
  ExpectFactorsRebuildRows(fd, &f);
  const size_t r = fd.rows();
  ASSERT_EQ(r, ell);

  double worst_ortho = 0.0;
  for (size_t a = 0; a < r; ++a) {
    for (size_t b = 0; b < r; ++b) {
      double dot = 0.0;
      for (size_t j = 0; j < d; ++j) dot += f.v(j, a) * f.v(j, b);
      worst_ortho =
          std::max(worst_ortho, std::fabs(dot - (a == b ? 1.0 : 0.0)));
    }
  }
  EXPECT_LE(worst_ortho, 1e-13);

  const linalg::ReferenceSvdResult ref = linalg::ReferenceSvd(fd.sketch());
  ASSERT_EQ(ref.sigma.size(), r);
  const double s1 = ref.sigma[0];
  size_t separated = 0;
  for (size_t i = 0; i < r; ++i) {
    const double sigma = std::sqrt(f.squared_sigma[i]);
    EXPECT_NEAR(sigma, ref.sigma[i], 1e-10 * s1) << "sigma " << i;
    const double li = ref.sigma[i] * ref.sigma[i];
    double gap = s1 * s1;
    if (i > 0) gap = std::min(gap, ref.sigma[i - 1] * ref.sigma[i - 1] - li);
    if (i + 1 < r) {
      gap = std::min(gap, li - ref.sigma[i + 1] * ref.sigma[i + 1]);
    }
    if (gap < 1e-3 * s1 * s1) continue;
    double dot = 0.0;
    for (size_t j = 0; j < d; ++j) dot += f.v(j, i) * ref.v(j, i);
    const double sign = dot < 0.0 ? -1.0 : 1.0;
    for (size_t j = 0; j < d; ++j) {
      EXPECT_NEAR(sigma * f.v(j, i), sign * ref.sigma[i] * ref.v(j, i),
                  1e-10 * s1)
          << "V(" << j << ", " << i << ")";
    }
    ++separated;
  }
  EXPECT_GE(separated, 3u);
}

// A shrink over a non-finite buffer is applied as computed but factors
// nothing, so a snapshot of it falls back to its own solve.
TEST(FrequentDirectionsTest, NonFiniteShrinkLeavesNoFactorization) {
  const size_t ell = 4, d = 48;
  for (FdShrinkBackend backend :
       {FdShrinkBackend::kLanczos, FdShrinkBackend::kDense}) {
    SCOPED_TRACE(backend == FdShrinkBackend::kLanczos ? "lanczos" : "dense");
    Rng rng(23);
    FrequentDirections fd(ell, d);
    fd.set_shrink_backend(backend);
    fd.AppendRows(linalg::RandomGaussianMatrix(ell + 3, d, &rng));
    fd.Compress();
    ExpectFactorsRebuildRows(fd);
    Matrix bad = linalg::RandomGaussianMatrix(2 * ell, d, &rng);
    bad(3, 7) = std::numeric_limits<double>::quiet_NaN();
    fd.AppendRows(bad);  // crosses 2*ell: the final shrink sees the NaN
    EXPECT_EQ(fd.shrink_count(), 2u);
    linalg::RightSingular f;
    EXPECT_FALSE(fd.FactoredSketch(&f));
    EXPECT_TRUE(f.squared_sigma.empty());  // left untouched
  }
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
