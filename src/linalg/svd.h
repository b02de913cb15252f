// Singular value decomposition.
//
// Two routes are provided:
//  * RightSingular via the Gram matrix and the dense Householder-QL
//    eigensolve (fast; exactly what streaming sketches and snapshot
//    queries need, which never require U), and
//  * ThinSVD via one-sided Jacobi (Hestenes) rotations on the explicit
//    matrix, used when U is required or extra accuracy matters.
#ifndef DMT_LINALG_SVD_H_
#define DMT_LINALG_SVD_H_

#include <cstddef>
#include <vector>

#include "linalg/jacobi_eigen.h"
#include "linalg/matrix.h"

namespace dmt {
namespace linalg {

/// Thin SVD A = U diag(sigma) V^T with A n x d, U n x r, V d x r,
/// r = min(n, d). Singular values are non-increasing and non-negative.
struct SvdResult {
  Matrix u;                   // n x r, orthonormal columns
  std::vector<double> sigma;  // length r, descending
  Matrix v;                   // d x r, orthonormal columns
};

/// Full-accuracy thin SVD via one-sided Jacobi on A (transposed internally
/// when n < d so rotations always act on the shorter side).
SvdResult ThinSVD(const Matrix& a);

/// Right singular structure {sigma_i^2, v_i} obtained from the d x d Gram
/// matrix A^T A. Faster than ThinSVD and sufficient for all sketching
/// algorithms in this library (they only ever need sigma and V).
struct RightSingular {
  std::vector<double> squared_sigma;  // eigenvalues of A^T A, descending,
                                      // clamped at 0
  Matrix v;                           // d x d, columns are singular vectors
};

/// Decomposes a Gram matrix (must be symmetric PSD up to roundoff).
RightSingular RightSingularFromGram(const Matrix& gram);

/// {sigma_i^2, v_i} of `a` (n x d) without U: the d x d Gram plus the
/// dense eigensolve when n >= d, ThinSVD on the short side when
/// 0 < n < d. For n > 0, `v` has min(n, d) columns.
RightSingular RightSingularOf(const Matrix& a);

/// Reconstructs the best rank-k approximation of `a` from its thin SVD.
Matrix RankKApproximation(const Matrix& a, size_t k);

}  // namespace linalg
}  // namespace dmt

#endif  // DMT_LINALG_SVD_H_
