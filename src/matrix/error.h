// The paper's approximation-error metric and the streaming ground-truth
// tracker used to evaluate it.
//
//   err = ||A^T A - B^T B||_2 / ||A||_F^2
//       = max_{unit x} |‖Ax‖² − ‖Bx‖²| / ‖A‖²_F
//
// computed via two top-1 Lanczos solves on the d x d difference (only the
// spectral extremes are needed; the full Householder-QL solve remains the
// fallback when a partial solve misses its residual tolerance).
#ifndef DMT_MATRIX_ERROR_H_
#define DMT_MATRIX_ERROR_H_

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace dmt {
namespace matrix {

/// Streaming exact covariance of the full stream matrix A (the evaluation
/// oracle; protocols never see this).
class CovarianceTracker {
 public:
  explicit CovarianceTracker(size_t dim);

  /// Accounts one row of A.
  void AddRow(const std::vector<double>& row);
  void AddRow(const double* row, size_t n);

  /// Accounts every row of `rows` in one blocked Gram accumulation.
  void AddRows(const linalg::Matrix& rows);

  const linalg::Matrix& gram() const { return gram_; }
  double squared_frobenius() const { return sq_frob_; }
  size_t rows_seen() const { return rows_seen_; }
  size_t dim() const { return dim_; }

 private:
  size_t dim_;
  linalg::Matrix gram_;
  double sq_frob_ = 0.0;
  size_t rows_seen_ = 0;
};

/// err given both Gram matrices and ||A||_F^2.
double CovarianceError(const linalg::Matrix& gram_a,
                       const linalg::Matrix& gram_b, double frob_a_sq);

/// err of a sketch Gram against the tracked ground truth.
double CovarianceError(const CovarianceTracker& truth,
                       const linalg::Matrix& gram_b);

/// Signed directional error extrema: returns {min, max} over unit x of
/// (‖Ax‖² − ‖Bx‖²) / ‖A‖²_F. Used to verify one-sided guarantees (MP2
/// never overestimates: min >= 0 up to roundoff).
struct DirectionalErrorRange {
  double min_error = 0.0;
  double max_error = 0.0;
};
DirectionalErrorRange SignedCovarianceError(const linalg::Matrix& gram_a,
                                            const linalg::Matrix& gram_b,
                                            double frob_a_sq);

}  // namespace matrix
}  // namespace dmt

#endif  // DMT_MATRIX_ERROR_H_
