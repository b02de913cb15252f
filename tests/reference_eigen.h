// Test-only reference decompositions.
//
// The library factors every dense symmetric matrix with Householder-QL
// (linalg::SymmetricEigenInPlace). Tests that check that kernel, the FD
// shrink or the snapshot factorization compare against the independent
// method here instead, so the QL kernel never checks itself:
//
//  * JacobiDiagonalizeInPlace: cyclic Jacobi rotations. Slow (about 9x
//    QL at d = 44) but simple and unconditionally stable.
//  * JacobiReference: a cold cyclic-Jacobi solve, sorted descending.
//  * ReferenceSvd: the thin SVD of B (n x d) from JacobiReference of the
//    Jordan-Wielandt matrix [[0, B], [B^T, 0]]. Its eigenvalues are
//    +-sigma_i plus |n - d| zeros, and (u_i; v_i) / sqrt(2) belongs to
//    +sigma_i. Nothing is squared, so every sigma_i keeps an absolute
//    accuracy of a few eps * sigma_1, where the Gram route's sigma_i^2 is
//    only accurate to about d eps sigma_1^2.
#ifndef DMT_TESTS_REFERENCE_EIGEN_H_
#define DMT_TESTS_REFERENCE_EIGEN_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vec_ops.h"
#include "util/check.h"

namespace dmt {
namespace linalg {

/// Diagonalizes symmetric `g` in place by cyclic Jacobi, accumulating the
/// rotations into `v` (v <- v * J, so that v_in * g_in * v_in^T is
/// preserved). Returns the number of rotations applied. Convergence:
/// every off-diagonal entry negligible against ~1e-14 * ||g||_F, or 60
/// cyclic sweeps. Eigenvalues end up on the diagonal of `g`, unsorted; a
/// matrix already near its own eigenbasis pays only for the few
/// rotations it still needs.
inline size_t JacobiDiagonalizeInPlace(Matrix* g, Matrix* v) {
  DMT_CHECK_EQ(g->rows(), g->cols());
  DMT_CHECK_EQ(v->rows(), g->rows());
  DMT_CHECK_EQ(v->cols(), g->cols());
  constexpr double kTol = 1e-14;
  constexpr int kMaxSweeps = 60;
  Matrix& a = *g;
  const size_t n = a.rows();
  // The Frobenius norm is invariant under the rotations, so computing the
  // absolute negligibility floor once per call is safe.
  const double frob = std::sqrt(a.SquaredFrobeniusNorm());
  const double abs_floor = std::max(kTol * frob / 10.0, 1e-300);
  size_t rotations = 0;

  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    bool rotated = false;
    for (size_t p = 0; p + 1 < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        const double app = a(p, p);
        const double aqq = a(q, q);
        // Skip rotations that cannot change the spectrum noticeably: the
        // relative test is the standard cyclic-Jacobi accelerator (Golub &
        // Van Loan §8.5.5); the absolute floor keeps emptied directions
        // (diagonal ~ 0) from forcing endless noise rotations — exactly
        // the warm-start case.
        if (std::fabs(apq) <= abs_floor ||
            apq * apq <= 1e-28 * std::fabs(app * aqq)) {
          continue;
        }
        rotated = true;
        ++rotations;
        // Classic stable rotation computation (Golub & Van Loan §8.5).
        const double tau = (aqq - app) / (2.0 * apq);
        double t;
        if (tau >= 0.0) {
          t = 1.0 / (tau + std::sqrt(1.0 + tau * tau));
        } else {
          t = -1.0 / (-tau + std::sqrt(1.0 + tau * tau));
        }
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double sn = t * c;

        // Apply rotation J(p,q,theta) on both sides: A <- J^T A J.
        for (size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - sn * akq;
          a(k, q) = sn * akp + c * akq;
        }
        for (size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - sn * aqk;
          a(q, k) = sn * apk + c * aqk;
        }
        // Accumulate eigenvectors: V <- V J.
        for (size_t k = 0; k < n; ++k) {
          const double vkp = (*v)(k, p);
          const double vkq = (*v)(k, q);
          (*v)(k, p) = c * vkp - sn * vkq;
          (*v)(k, q) = sn * vkp + c * vkq;
        }
      }
    }
    if (!rotated) break;  // converged: every off-diagonal is negligible
  }
  return rotations;
}

struct Reference {
  std::vector<double> values;  // descending
  Matrix vectors;              // column i pairs with values[i]
};

/// Cold cyclic Jacobi on symmetric `s`, sorted descending (ties keep
/// index order).
inline Reference JacobiReference(const Matrix& s) {
  const size_t n = s.rows();
  Matrix g = s;
  Matrix v = Matrix::Identity(n);
  JacobiDiagonalizeInPlace(&g, &v);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&g](size_t a, size_t b) { return g(a, a) > g(b, b); });
  Reference ref;
  ref.vectors = Matrix(n, n);
  for (size_t i = 0; i < n; ++i) {
    ref.values.push_back(g(order[i], order[i]));
    for (size_t k = 0; k < n; ++k) ref.vectors(k, i) = v(k, order[i]);
  }
  return ref;
}

/// Thin SVD B = U diag(sigma) V^T with r = min(n, d) triples.
struct ReferenceSvdResult {
  Matrix u;                   // n x r, orthonormal columns
  std::vector<double> sigma;  // length r, descending, >= 0
  Matrix v;                   // d x r, orthonormal columns
};

/// Thin SVD of `b` through JacobiReference of its Jordan-Wielandt matrix.
/// The +sigma_i eigenvector can mix with -sigma_i and, when n != d, with
/// the null space of the longer side. Neither mixing moves the half that
/// belongs to the shorter side, so that half gives one singular vector
/// and B (or B^T) applied to it gives the other.
inline ReferenceSvdResult ReferenceSvd(const Matrix& b) {
  const size_t n = b.rows();
  const size_t d = b.cols();
  const size_t r = std::min(n, d);
  Matrix jw(n + d, n + d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      jw(i, n + j) = b(i, j);
      jw(n + j, i) = b(i, j);
    }
  }
  const Reference ref = JacobiReference(jw);
  ReferenceSvdResult out;
  out.u = Matrix(n, r);
  out.v = Matrix(d, r);
  out.sigma.resize(r);
  std::vector<double> u(n);
  std::vector<double> v(d);
  for (size_t i = 0; i < r; ++i) {
    out.sigma[i] = std::max(0.0, ref.values[i]);
    for (size_t k = 0; k < n; ++k) u[k] = ref.vectors(k, i);
    for (size_t k = 0; k < d; ++k) v[k] = ref.vectors(n + k, i);
    if (n >= d) {
      Normalize(&v);
      u = b.MultiplyVector(v);
      Normalize(&u);
    } else {
      Normalize(&u);
      v = b.TransposedMultiplyVector(u);
      Normalize(&v);
    }
    for (size_t k = 0; k < n; ++k) out.u(k, i) = u[k];
    for (size_t k = 0; k < d; ++k) out.v(k, i) = v[k];
  }
  return out;
}

}  // namespace linalg
}  // namespace dmt

#endif  // DMT_TESTS_REFERENCE_EIGEN_H_
