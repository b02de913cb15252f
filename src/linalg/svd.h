// Right singular structure {sigma_i^2, v_i} of a matrix, without U —
// all that sketches and snapshot queries need — from the d x d Gram and
// one Householder-QL eigensolve (SymmetricEigenInPlace).
//
// Accuracy: sigma_i^2 is accurate to about d eps sigma_1^2, so sigma_i to
// about eps sigma_1^2 / sigma_i: ~2e-8 sigma_1 at sigma_i = 1e-8 sigma_1,
// a few eps sigma_1 for the leading values. V is accurate wherever
// sigma_i^2 is separated from its neighbours. tests/serving_edge_test.cc
// pins this against a reference SVD that squares nothing.
#ifndef DMT_LINALG_SVD_H_
#define DMT_LINALG_SVD_H_

#include <vector>

#include "linalg/matrix.h"
#include "linalg/symmetric_eigen.h"

namespace dmt {
namespace linalg {

struct RightSingular {
  std::vector<double> squared_sigma;  // eigenvalues of A^T A, descending,
                                      // clamped at 0
  Matrix v;                           // columns are singular vectors
};

/// Decomposes a Gram matrix (must be symmetric PSD up to roundoff): all d
/// pairs, `v` d x d.
RightSingular RightSingularFromGram(const Matrix& gram);

/// {sigma_i^2, v_i} of `a` (n x d) from its d x d Gram: the leading
/// r = min(n, d) pairs, so `v` is d x r like a thin SVD's.
RightSingular RightSingularOf(const Matrix& a);

}  // namespace linalg
}  // namespace dmt

#endif  // DMT_LINALG_SVD_H_
