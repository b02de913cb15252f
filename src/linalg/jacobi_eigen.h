// Dense symmetric eigensolvers.
//
// Every decomposition in this library reduces to a small (d <= a few
// hundred) symmetric eigenproblem: Frequent Directions shrinks, protocol
// MP2's per-site direction checks, the snapshot factorization and the
// covariance-error metric all work on d x d Gram matrices. Two solvers
// live here:
//
//  * SymmetricEigenInPlace: Householder tridiagonalization followed by
//    implicit-shift QL (EISPACK tred2/tql2), ~4/3 d^3 + ~3 d^3 flops with
//    no sweeps. It is the production path: SymmetricEigen, the Lanczos
//    Rayleigh-Ritz step and the Lanczos dense route all call it.
//  * JacobiDiagonalizeInPlace: cyclic Jacobi rotations. Simple and
//    unconditionally stable, but about 9x slower than QL at d = 44; kept
//    as the warm-started FD reference backend (DMT_FD_BACKEND=jacobi) and
//    as the independent reference the tests compare QL against.
#ifndef DMT_LINALG_JACOBI_EIGEN_H_
#define DMT_LINALG_JACOBI_EIGEN_H_

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace dmt {
namespace linalg {

/// Result of a symmetric eigendecomposition: S = V diag(lambda) V^T.
struct EigenDecomposition {
  /// Eigenvalues in non-increasing order.
  std::vector<double> eigenvalues;
  /// Columns are the matching orthonormal eigenvectors (d x d).
  Matrix eigenvectors;

  /// Convenience: eigenvector i as a vector.
  std::vector<double> Eigenvector(size_t i) const {
    return eigenvectors.ColVector(i);
  }
};

/// Full eigendecomposition of the symmetric n x n matrix `a` (row-major,
/// leading dimension n) in place, by Householder tridiagonalization and
/// implicit-shift QL. Only the upper triangle of `a` is read.
///
/// On return `eigenvalues[0..n)` is non-increasing (ties keep the QL
/// output order) and row i of `a` is the unit eigenvector for
/// eigenvalue i. `scratch` holds n doubles. Never allocates; the work is
/// a pure function of the input.
///
/// Returns false when some eigenvalue is not finite or needed more than
/// 30 QL iterations (the EISPACK bound), which in practice means NaN or
/// Inf input. The call still returns promptly; the outputs are then
/// unspecified.
bool SymmetricEigenInPlace(double* a, size_t n, double* eigenvalues,
                           double* scratch);

/// Computes the full eigendecomposition of the symmetric matrix `s` with
/// SymmetricEigenInPlace. `s` must be square; only its upper triangle is
/// read.
EigenDecomposition SymmetricEigen(const Matrix& s);

/// Diagonalizes symmetric `g` in place by cyclic Jacobi, accumulating the
/// rotations into `v` (v <- v * J, so that v_in * g_in * v_in^T is
/// preserved). Returns the number of rotations applied. Convergence:
/// every off-diagonal entry negligible against ~1e-14 * ||g||_F, or 60
/// cyclic sweeps.
///
/// This is the warm-start workhorse of the FD reference backend: a matrix
/// kept in its own (approximate) eigenbasis pays only for the few
/// rotations the new data actually requires. Eigenvalues end up on the
/// diagonal of `g`, unsorted.
size_t JacobiDiagonalizeInPlace(Matrix* g, Matrix* v);

/// Largest |eigenvalue| of symmetric `s` (i.e. the spectral norm).
double SpectralNormSymmetric(const Matrix& s);

}  // namespace linalg
}  // namespace dmt

#endif  // DMT_LINALG_JACOBI_EIGEN_H_
