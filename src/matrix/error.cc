#include "matrix/error.h"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.h"
#include "linalg/lanczos.h"
#include "linalg/vec_ops.h"
#include "util/check.h"

namespace dmt {
namespace matrix {

CovarianceTracker::CovarianceTracker(size_t dim)
    : dim_(dim), gram_(dim, dim) {
  DMT_CHECK_GE(dim, 1u);
}

void CovarianceTracker::AddRow(const std::vector<double>& row) {
  AddRow(row.data(), row.size());
}

void CovarianceTracker::AddRow(const double* row, size_t n) {
  DMT_CHECK_EQ(n, dim_);
  linalg::kernels::Rank1Update(1.0, row, gram_.Row(0), dim_);
  sq_frob_ += linalg::SquaredNorm(row, n);
  ++rows_seen_;
}

void CovarianceTracker::AddRows(const linalg::Matrix& rows) {
  if (rows.rows() == 0) return;
  DMT_CHECK_EQ(rows.cols(), dim_);
  linalg::kernels::GramAccumulate(rows.Row(0), rows.rows(), dim_,
                                  gram_.Row(0));
  sq_frob_ += rows.SquaredFrobeniusNorm();
  rows_seen_ += rows.rows();
}

double CovarianceError(const linalg::Matrix& gram_a,
                       const linalg::Matrix& gram_b, double frob_a_sq) {
  DMT_CHECK_GT(frob_a_sq, 0.0);
  linalg::Matrix diff = gram_a;
  diff.Subtract(gram_b);
  // Only the two spectral extremes of the (indefinite) difference matter,
  // so this goes through the partial Lanczos solver — two top-1 solves
  // instead of a full d x d QL decomposition. Falls back to the full
  // solve internally if a partial one misses its residual tolerance.
  return linalg::SpectralNormSymmetricLanczos(diff) / frob_a_sq;
}

double CovarianceError(const CovarianceTracker& truth,
                       const linalg::Matrix& gram_b) {
  return CovarianceError(truth.gram(), gram_b, truth.squared_frobenius());
}

DirectionalErrorRange SignedCovarianceError(const linalg::Matrix& gram_a,
                                            const linalg::Matrix& gram_b,
                                            double frob_a_sq) {
  DMT_CHECK_GT(frob_a_sq, 0.0);
  linalg::Matrix diff = gram_a;
  diff.Subtract(gram_b);
  DirectionalErrorRange out;
  if (diff.rows() == 0) return out;
  // Only the two spectral extremes of the difference are needed; the
  // partial solver (with its built-in exact fallback) provides both.
  double lambda_min = 0.0, lambda_max = 0.0;
  linalg::SymmetricEigenExtremesLanczos(diff, &lambda_min, &lambda_max);
  out.max_error = lambda_max / frob_a_sq;
  out.min_error = lambda_min / frob_a_sq;
  return out;
}

}  // namespace matrix
}  // namespace dmt
