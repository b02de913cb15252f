// Pins the warm-started, allocation-free FD shrink pipeline against the
// cold-eigendecomposition formulation it replaced, and covers the bulk
// AppendRows path (one shrink per buffer fill instead of one per ell
// rows).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic_matrix.h"
#include "linalg/jacobi_eigen.h"
#include "linalg/matrix.h"
#include "linalg/spectral.h"
#include "linalg/svd.h"
#include "sketch/frequent_directions.h"
#include "util/rng.h"

namespace dmt {
namespace sketch {
namespace {

using linalg::Matrix;

// The pre-kernel (seed) shrink pipeline: buffer rows, and on every 2*ell
// fill run a cold RightSingularOf decomposition from scratch. Kept as the
// reference semantics the warm-started pipeline must reproduce.
class ColdReferenceFd {
 public:
  explicit ColdReferenceFd(size_t ell, size_t dim = 0)
      : ell_(ell), dim_(dim) {}

  void Append(const std::vector<double>& row) {
    if (dim_ == 0) dim_ = row.size();
    buffer_.AppendRow(row);
    double w = 0.0;
    for (double v : row) w += v * v;
    stream_sq_frob_ += w;
    if (buffer_.rows() >= 2 * ell_) Shrink();
  }

  void Shrink() {
    ++shrink_count_;
    linalg::RightSingular rs = linalg::RightSingularOf(buffer_);
    const size_t d = rs.squared_sigma.size();
    const double delta = ell_ < d ? rs.squared_sigma[ell_] : 0.0;
    total_shrinkage_ += delta;
    Matrix next(0, 0);
    for (size_t i = 0; i < d && i < ell_; ++i) {
      const double lam = rs.squared_sigma[i] - delta;
      if (lam <= 0.0) break;
      const double scale = std::sqrt(lam);
      std::vector<double> row(dim_);
      for (size_t j = 0; j < dim_; ++j) row[j] = scale * rs.v(j, i);
      next.AppendRow(row);
    }
    if (next.rows() == 0) next = Matrix(0, dim_);
    buffer_ = std::move(next);
  }

  const Matrix& sketch() const { return buffer_; }
  double total_shrinkage() const { return total_shrinkage_; }
  double stream_squared_frobenius() const { return stream_sq_frob_; }
  size_t shrink_count() const { return shrink_count_; }

 private:
  size_t ell_;
  size_t dim_;
  Matrix buffer_;
  double stream_sq_frob_ = 0.0;
  double total_shrinkage_ = 0.0;
  size_t shrink_count_ = 0;
};

// Sorted descending singular-value spectrum of a sketch (sqrt of the
// eigenvalues of B^T B, clamped at 0).
std::vector<double> Spectrum(const Matrix& b, size_t d) {
  if (b.rows() == 0) return std::vector<double>(d, 0.0);
  linalg::EigenDecomposition e = linalg::SymmetricEigen(b.Gram());
  std::vector<double> s(d, 0.0);
  for (size_t i = 0; i < e.eigenvalues.size() && i < d; ++i) {
    s[i] = std::sqrt(std::max(0.0, e.eigenvalues[i]));
  }
  return s;
}

std::vector<std::vector<double>> GaussianRows(size_t n, size_t d,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows(n);
  for (auto& r : rows) {
    r.resize(d);
    for (auto& v : r) v = rng.NextGaussian();
  }
  return rows;
}

// One shrink, warm pipeline vs cold reference, across the shapes that
// exercise both decomposition regimes: wide buffer (2*ell < d, the seed's
// ThinSVD route) and tall buffer (2*ell > d, the seed's Gram route).
class ShrinkEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(ShrinkEquivalenceTest, FirstShrinkMatchesColdPath) {
  auto [ell, d] = GetParam();
  FrequentDirections warm(ell, d);
  ColdReferenceFd cold(ell, d);
  auto rows = GaussianRows(2 * ell, d, 100 + ell * 10 + d);
  for (const auto& r : rows) {
    warm.Append(r);
    cold.Append(r);
  }
  ASSERT_EQ(warm.shrink_count(), 1u);
  ASSERT_EQ(cold.shrink_count(), 1u);
  EXPECT_EQ(warm.sketch().rows(), cold.sketch().rows());

  const double scale = warm.stream_squared_frobenius();
  EXPECT_NEAR(warm.total_shrinkage(), cold.total_shrinkage(),
              1e-10 * scale);
  std::vector<double> sw = Spectrum(warm.sketch(), d);
  std::vector<double> sc = Spectrum(cold.sketch(), d);
  for (size_t i = 0; i < d; ++i) {
    EXPECT_NEAR(sw[i] * sw[i], sc[i] * sc[i], 1e-9 * scale) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShrinkEquivalenceTest,
                         ::testing::Values(std::make_tuple(5u, 16u),
                                           std::make_tuple(8u, 6u),
                                           std::make_tuple(4u, 8u),
                                           std::make_tuple(16u, 12u)));

// The warm start is only warm from the second shrink onward (the first
// starts from an identity basis). Drive hundreds of shrinks and require
// the pipelines to stay equivalent: same shrink schedule, same error
// accounting, and spectrally indistinguishable sketches.
TEST(FdShrinkTest, WarmStartTracksColdPathAcrossManyShrinks) {
  const size_t ell = 5, d = 10, n = 600;
  FrequentDirections warm(ell, d);
  ColdReferenceFd cold(ell, d);
  auto rows = GaussianRows(n, d, 42);
  for (const auto& r : rows) {
    warm.Append(r);
    cold.Append(r);
  }
  ASSERT_GE(warm.shrink_count(), 100u);
  EXPECT_EQ(warm.shrink_count(), cold.shrink_count());
  EXPECT_DOUBLE_EQ(warm.stream_squared_frobenius(),
                   cold.stream_squared_frobenius());

  const double scale = warm.stream_squared_frobenius();
  EXPECT_NEAR(warm.total_shrinkage(), cold.total_shrinkage(), 1e-7 * scale);
  std::vector<double> sw = Spectrum(warm.sketch(), d);
  std::vector<double> sc = Spectrum(cold.sketch(), d);
  for (size_t i = 0; i < d; ++i) {
    EXPECT_NEAR(sw[i] * sw[i], sc[i] * sc[i], 1e-7 * scale) << "i=" << i;
  }
}

// Low-rank streams: the shrink must keep recovering the structure exactly
// (delta ~ 0) through the warm-started path as well.
TEST(FdShrinkTest, LowRankStreamKeepsNearZeroShrinkage) {
  const size_t ell = 8, d = 12;
  FrequentDirections warm(ell, d);
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    const double c1 = rng.NextGaussian(), c2 = rng.NextGaussian();
    std::vector<double> row(d, 0.0);
    row[0] = 3.0 * c1;
    row[3] = 2.0 * c2;
    row[7] = 0.5 * c1 - c2;
    warm.Append(row);
  }
  EXPECT_GE(warm.shrink_count(), 10u);
  EXPECT_LE(warm.total_shrinkage(),
            1e-8 * warm.stream_squared_frobenius());
  // Rank-3 stream: all but ~zero energy lives in the top 3 directions
  // (shrinks with delta ~ 0 may retain extra rows of roundoff weight).
  std::vector<double> s = Spectrum(warm.sketch(), d);
  double tail = 0.0;
  for (size_t i = 3; i < d; ++i) tail += s[i] * s[i];
  EXPECT_LE(tail, 1e-8 * warm.stream_squared_frobenius());
}

// Satellite regression: AppendRows must take the bulk path (fill the
// buffer to capacity, shrink once) instead of one shrink per ell rows.
TEST(FdShrinkTest, AppendRowsBulkPathShrinksFarLessOften) {
  const size_t ell = 8, d = 6, n = 320;
  Matrix a;
  for (const auto& r : GaussianRows(n, d, 9)) a.AppendRow(r);

  FrequentDirections bulk(ell, d);
  bulk.AppendRows(a);
  FrequentDirections row_at_a_time(ell, d);
  for (size_t i = 0; i < a.rows(); ++i) {
    row_at_a_time.Append(a.RowVector(i));
  }

  // Row path: one shrink per at most 2*ell appended rows once warmed up
  // (exactly ell when d >= ell; here d < ell so each shrink keeps d rows
  // and buys 2*ell - d appends).
  EXPECT_GE(row_at_a_time.shrink_count(), n / (2 * ell));
  // Bulk path: one shrink per ~(capacity - ell) = 3*ell rows, so at most
  // half (actually ~a third) of the row-at-a-time count.
  EXPECT_LE(bulk.shrink_count(), row_at_a_time.shrink_count() / 2);
  EXPECT_GE(bulk.shrink_count(), 1u);

  // Identical accounting and the same FD guarantees.
  EXPECT_DOUBLE_EQ(bulk.stream_squared_frobenius(),
                   row_at_a_time.stream_squared_frobenius());
  EXPECT_LT(bulk.rows(), 2 * ell);
  const double bound = bulk.stream_squared_frobenius() /
                       static_cast<double>(ell + 1);
  EXPECT_LE(bulk.total_shrinkage(), bound + 1e-9);

  Matrix diff = a.Gram();
  diff.Subtract(bulk.Gram());
  linalg::EigenDecomposition e = linalg::SymmetricEigen(diff);
  EXPECT_LE(e.eigenvalues.front(), bulk.total_shrinkage() + 1e-8);
  EXPECT_GE(e.eigenvalues.back(),
            -1e-8 * bulk.stream_squared_frobenius());
}

// Tentpole equivalence: the Lanczos-backed FD must match the Jacobi
// reference backend shrink-for-shrink — same shrink schedule, matching
// shrinkage accounting and spectra, and a coordinator-level covariance
// error that agrees within 1e-8.
TEST(FdShrinkTest, LanczosBackendMatchesJacobiBackend) {
  const size_t ell = 8, d = 20, n = 800;
  FrequentDirections lanczos(ell, d);
  lanczos.set_shrink_backend(FdShrinkBackend::kLanczos);
  FrequentDirections jacobi(ell, d);
  jacobi.set_shrink_backend(FdShrinkBackend::kJacobi);

  Matrix a;
  for (const auto& r : GaussianRows(n, d, 21)) {
    a.AppendRow(r);
    lanczos.Append(r);
    jacobi.Append(r);
  }
  ASSERT_GE(lanczos.shrink_count(), 40u);
  EXPECT_EQ(lanczos.shrink_count(), jacobi.shrink_count());
  EXPECT_EQ(lanczos.lanczos_fallback_count(), 0u);
  EXPECT_DOUBLE_EQ(lanczos.stream_squared_frobenius(),
                   jacobi.stream_squared_frobenius());

  const double scale = lanczos.stream_squared_frobenius();
  EXPECT_NEAR(lanczos.total_shrinkage(), jacobi.total_shrinkage(),
              1e-8 * scale);
  std::vector<double> sl = Spectrum(lanczos.sketch(), d);
  std::vector<double> sj = Spectrum(jacobi.sketch(), d);
  for (size_t i = 0; i < d; ++i) {
    EXPECT_NEAR(sl[i] * sl[i], sj[i] * sj[i], 1e-8 * scale) << "i=" << i;
  }

  // Coordinator-level agreement: covariance error of the two sketches
  // against the exact Gram differs by at most 1e-8.
  Matrix truth = a.Gram();
  const auto cov_err = [&](const FrequentDirections& fd) {
    Matrix diff = truth;
    diff.Subtract(fd.Gram());
    return linalg::SpectralNormSymmetric(diff) / a.SquaredFrobeniusNorm();
  };
  EXPECT_NEAR(cov_err(lanczos), cov_err(jacobi), 1e-8);
}

// Wide-buffer regime (4*ell < d): the Lanczos path iterates on the rows
// without materializing the d x d Gram; it must still match the Jacobi
// reference.
TEST(FdShrinkTest, LanczosBackendMatchesJacobiInWideRegime) {
  const size_t ell = 4, d = 48, n = 200;  // 4*ell = 16 < d
  FrequentDirections lanczos(ell, d);
  lanczos.set_shrink_backend(FdShrinkBackend::kLanczos);
  FrequentDirections jacobi(ell, d);
  jacobi.set_shrink_backend(FdShrinkBackend::kJacobi);
  for (const auto& r : GaussianRows(n, d, 31)) {
    lanczos.Append(r);
    jacobi.Append(r);
  }
  ASSERT_GE(lanczos.shrink_count(), 10u);
  EXPECT_EQ(lanczos.shrink_count(), jacobi.shrink_count());
  EXPECT_EQ(lanczos.lanczos_fallback_count(), 0u);
  const double scale = lanczos.stream_squared_frobenius();
  EXPECT_NEAR(lanczos.total_shrinkage(), jacobi.total_shrinkage(),
              1e-8 * scale);
  std::vector<double> sl = Spectrum(lanczos.sketch(), d);
  std::vector<double> sj = Spectrum(jacobi.sketch(), d);
  for (size_t i = 0; i < d; ++i) {
    EXPECT_NEAR(sl[i] * sl[i], sj[i] * sj[i], 1e-8 * scale) << "i=" << i;
  }
}

// MP1's coordinator shape: (ell, d) = (20, 44) fed by merged site
// sketches, so shrinks see buffers of n = 40..63 rows on both sides of
// n = d — all on the solver's dense route (2 ell + 10 >= d). The Lanczos
// backend must still match the Jacobi reference shrink for shrink.
TEST(FdShrinkTest, LanczosBackendMatchesJacobiAtMp1CoordinatorShape) {
  const size_t ell = 20, d = 44;
  FrequentDirections lanczos(ell, d);
  lanczos.set_shrink_backend(FdShrinkBackend::kLanczos);
  FrequentDirections jacobi(ell, d);
  jacobi.set_shrink_backend(FdShrinkBackend::kJacobi);

  data::SyntheticMatrixGenerator gen(
      data::SyntheticMatrixGenerator::PamapLike(17));
  Rng sizes(18);
  size_t min_n = SIZE_MAX, max_n = 0;
  for (int merge = 0; merge < 300; ++merge) {
    const size_t r = 1 + sizes.NextBelow(24);  // a 1..24-row site sketch
    FrequentDirections site(ell, d);
    site.AppendRows(gen.Take(r));
    ASSERT_EQ(site.shrink_count(), 0u);
    const size_t n = lanczos.rows() + r;
    if (n >= 2 * ell) {
      min_n = std::min(min_n, n);
      max_n = std::max(max_n, n);
    }
    lanczos.Merge(site);
    jacobi.Merge(site);
  }
  EXPECT_LT(min_n, d);
  EXPECT_GE(max_n, d);
  ASSERT_GE(lanczos.shrink_count(), 100u);
  EXPECT_EQ(lanczos.shrink_count(), jacobi.shrink_count());
  EXPECT_EQ(lanczos.lanczos_fallback_count(), 0u);
  EXPECT_EQ(lanczos.rows(), jacobi.rows());
  EXPECT_NEAR(lanczos.total_shrinkage(), jacobi.total_shrinkage(),
              1e-8 * jacobi.total_shrinkage());
}

// Satellite regression: a degenerate spectrum with lambda_ell ==
// lambda_{ell+1} exactly (orthogonal rows of equal norm) makes the shrink
// subtraction lambda_i - delta hit zero for every direction; roundoff on
// either side must clamp instead of producing sqrt(negative) = NaN.
TEST(FdShrinkTest, DegenerateTiedSpectrumProducesNoNaN) {
  const size_t ell = 4, d = 8;
  for (FdShrinkBackend backend :
       {FdShrinkBackend::kLanczos, FdShrinkBackend::kJacobi}) {
    FrequentDirections fd(ell, d);
    fd.set_shrink_backend(backend);
    // 3 copies of each canonical direction, all with squared norm 4:
    // every eigenvalue of the buffer Gram ties at 12.
    for (int copy = 0; copy < 3; ++copy) {
      for (size_t i = 0; i < d; ++i) {
        std::vector<double> row(d, 0.0);
        row[i] = 2.0;
        fd.Append(row);
      }
    }
    fd.Compress();
    EXPECT_GE(fd.shrink_count(), 1u);
    for (size_t i = 0; i < fd.rows(); ++i) {
      for (size_t j = 0; j < d; ++j) {
        EXPECT_TRUE(std::isfinite(fd.sketch()(i, j)))
            << "backend=" << static_cast<int>(backend) << " (" << i << ","
            << j << ")";
      }
    }
    // Accounting stays within the FD bound despite the tie at the cutoff.
    EXPECT_LE(fd.total_shrinkage(),
              fd.stream_squared_frobenius() / static_cast<double>(ell + 1) +
                  1e-9);
  }
}

// Switching backends mid-stream must be safe in both directions: the
// Jacobi warm-start invariant is invalidated by a Lanczos shrink and
// rebuilt cold on the next Jacobi one.
TEST(FdShrinkTest, BackendSwitchMidStreamKeepsTheBound) {
  const size_t ell = 6, d = 10, n = 600;
  FrequentDirections fd(ell, d);
  Matrix a;
  auto rows = GaussianRows(n, d, 77);
  for (size_t i = 0; i < n; ++i) {
    fd.set_shrink_backend((i / 100) % 2 == 0 ? FdShrinkBackend::kLanczos
                                             : FdShrinkBackend::kJacobi);
    a.AppendRow(rows[i]);
    fd.Append(rows[i]);
  }
  ASSERT_GE(fd.shrink_count(), 40u);
  const double bound =
      a.SquaredFrobeniusNorm() / static_cast<double>(ell + 1);
  EXPECT_LE(fd.total_shrinkage(), bound + 1e-9);
  Matrix diff = a.Gram();
  diff.Subtract(fd.Gram());
  linalg::EigenDecomposition e = linalg::SymmetricEigen(diff);
  EXPECT_LE(e.eigenvalues.front(), fd.total_shrinkage() + 1e-8);
  EXPECT_GE(e.eigenvalues.back(), -1e-8 * a.SquaredFrobeniusNorm());
}

TEST(FdShrinkTest, AppendRowsSelfAliasIsSafe) {
  const size_t ell = 6, d = 5;
  FrequentDirections fd(ell, d);
  auto rows = GaussianRows(5, d, 13);
  for (const auto& r : rows) fd.Append(r);
  const double pre_mass = fd.stream_squared_frobenius();

  fd.AppendRows(fd.sketch());  // aliases the internal buffer

  // 10 rows < 2*ell: no shrink, so this is an exact doubling.
  EXPECT_DOUBLE_EQ(fd.stream_squared_frobenius(), 2.0 * pre_mass);
  ASSERT_EQ(fd.rows(), 10u);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < d; ++j) {
      EXPECT_DOUBLE_EQ(fd.sketch()(i, j), rows[i][j]);
      EXPECT_DOUBLE_EQ(fd.sketch()(5 + i, j), rows[i][j]);
    }
  }
}

}  // namespace
}  // namespace sketch
}  // namespace dmt
