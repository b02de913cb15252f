// Dense symmetric eigensolver: SymmetricEigenInPlace, Householder
// tridiagonalization followed by implicit-shift QL (EISPACK tred2/tql2),
// ~4/3 d^3 + ~3 d^3 flops with no sweeps. Every dense eigenproblem in the
// library runs on it — FD shrinks on the Lanczos dense route, the Lanczos
// Rayleigh-Ritz step, MP2's full-spectrum checks, the snapshot
// factorization — and the tests check it against an independent
// cyclic-Jacobi reference (tests/reference_eigen.h).
#ifndef DMT_LINALG_SYMMETRIC_EIGEN_H_
#define DMT_LINALG_SYMMETRIC_EIGEN_H_

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

/// Largest |eigenvalue| of symmetric `s` (i.e. the spectral norm).
double SpectralNormSymmetric(const Matrix& s);

}  // namespace linalg
}  // namespace dmt

#endif  // DMT_LINALG_SYMMETRIC_EIGEN_H_
