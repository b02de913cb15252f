#include "linalg/jacobi_eigen.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.h"
#include "util/contracts.h"

namespace dmt {
namespace linalg {

namespace {

// EISPACK's per-eigenvalue QL iteration bound. Finite symmetric input
// converges in one to three iterations per eigenvalue.
constexpr int kMaxQLIterations = 30;

// sqrt(a^2 + b^2). The plain formula is exact enough and several times
// cheaper than std::hypot, which only the over/underflow-prone (and NaN)
// tails need.
inline double Pythag(double a, double b) {
  const double s = a * a + b * b;
  if (s > 1e-280 && s < 1e280) return std::sqrt(s);
  return std::hypot(a, b);
}

// Applies the plane rotation of one QL step to two eigenvector rows:
// (x, y) <- (c x - s y, s x + c y).
DMT_NO_ALLOC
void RotateRows(double c, double s, double* DMT_NOALIAS x,
                double* DMT_NOALIAS y, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    const double xk = x[k];
    const double yk = y[k];
    x[k] = c * xk - s * yk;
    y[k] = s * xk + c * yk;
  }
}

DMT_NO_ALLOC
void SwapRows(double* DMT_NOALIAS x, double* DMT_NOALIAS y, size_t n) {
  for (size_t k = 0; k < n; ++k) std::swap(x[k], y[k]);
}

}  // namespace

// The EISPACK tred2/tql2 pair accumulates the orthogonal factor V with
// column updates (A = V T V^T, eigenvectors in V's columns). Here `a`
// holds W = V^T instead — W(j, k) is V(k, j) — so every inner loop below
// (Householder SYMV and rank-2 update, accumulation, QL rotations) walks
// a contiguous row, and the eigenvectors come out as rows.
DMT_NO_ALLOC
DMT_HOT_KERNEL
bool SymmetricEigenInPlace(double* a, size_t n, double* eigenvalues,
                           double* scratch) {
  if (n == 0) return true;
  double* d = eigenvalues;
  double* e = scratch;
  const auto row = [a, n](size_t i) { return a + i * n; };

  // ---- tred2: Householder reduction to tridiagonal form (diagonal in d,
  // sub-diagonal in e[1..n)), accumulating W.
  for (size_t j = 0; j < n; ++j) d[j] = row(j)[n - 1];
  for (size_t i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (size_t k = 0; k < i; ++k) scale += std::fabs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (size_t j = 0; j < i; ++j) {
        d[j] = row(j)[i - 1];
        row(j)[i] = 0.0;
        row(i)[j] = 0.0;
      }
    } else {
      // Householder vector, scaled against under/overflow.
      for (size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = std::sqrt(h);
      if (f > 0.0) g = -g;
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      for (size_t j = 0; j < i; ++j) e[j] = 0.0;

      // Similarity transformation of the leading i x i block: e = A u
      // from the upper triangle (one dot and one axpy per row).
      for (size_t j = 0; j < i; ++j) {
        double* wj = row(j);
        f = d[j];
        row(i)[j] = f;
        g = e[j] + wj[j] * f;
        for (size_t k = j + 1; k < i; ++k) {
          g += wj[k] * d[k];
          e[k] += wj[k] * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (size_t j = 0; j < i; ++j) {
        double* wj = row(j);
        f = d[j];
        g = e[j];
        for (size_t k = j; k < i; ++k) wj[k] -= f * e[k] + g * d[k];
        d[j] = wj[i - 1];
        wj[i] = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate the Householder reflections into W.
  for (size_t i = 0; i + 1 < n; ++i) {
    double* wi = row(i);
    wi[n - 1] = wi[i];
    wi[i] = 1.0;
    const double h = d[i + 1];
    double* u = row(i + 1);  // reflection i+1, stored in row i+1
    if (h != 0.0) {
      for (size_t k = 0; k <= i; ++k) d[k] = u[k] / h;
      for (size_t j = 0; j <= i; ++j) {
        double* wj = row(j);
        double g = 0.0;
        for (size_t k = 0; k <= i; ++k) g += u[k] * wj[k];
        for (size_t k = 0; k <= i; ++k) wj[k] -= g * d[k];
      }
    }
    for (size_t k = 0; k <= i; ++k) u[k] = 0.0;
  }
  for (size_t j = 0; j < n; ++j) {
    d[j] = row(j)[n - 1];
    row(j)[n - 1] = 0.0;
  }
  row(n - 1)[n - 1] = 1.0;
  e[0] = 0.0;

  // ---- tql2: implicit-shift QL on the tridiagonal (d, e), rotating the
  // rows of W along.
  for (size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  const double eps = std::ldexp(1.0, -52);
  bool converged = true;
  double f = 0.0;
  double tst1 = 0.0;
  for (size_t l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::fabs(d[l]) + std::fabs(e[l]));
    // First negligible sub-diagonal at or after l (e[n-1] is always 0).
    // The negated test sends NaN to the end instead of past it.
    size_t m = l;
    while (m + 1 < n && !(std::fabs(e[m]) <= eps * tst1)) ++m;
    if (m > l) {
      int iter = 0;
      do {
        if (++iter > kMaxQLIterations) {
          converged = false;
          break;
        }
        // Implicit shift from the leading 2 x 2 block.
        double g = d[l];
        double p = (d[l + 1] - g) / (2.0 * e[l]);
        double r = Pythag(p, 1.0);
        if (p < 0.0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const double dl1 = d[l + 1];
        double h = g - d[l];
        for (size_t i = l + 2; i < n; ++i) d[i] -= h;
        f += h;

        // One QL sweep from m - 1 down to l.
        p = d[m];
        double c = 1.0;
        double c2 = c;
        double c3 = c;
        const double el1 = e[l + 1];
        double s = 0.0;
        double s2 = 0.0;
        for (size_t i = m; i-- > l;) {
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * e[i];
          h = c * p;
          r = Pythag(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = h + s * (c * g + s * d[i]);
          RotateRows(c, s, row(i), row(i + 1), n);
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::fabs(e[l]) > eps * tst1);
    }
    d[l] += f;
    e[l] = 0.0;
  }
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(d[i])) converged = false;
  }

  // Selection sort, descending, ties by QL output index (carried in e as
  // exact small integers): at most n - 1 row swaps, and it terminates
  // for any input, NaN included.
  for (size_t i = 0; i < n; ++i) e[i] = static_cast<double>(i);
  for (size_t i = 0; i + 1 < n; ++i) {
    size_t best = i;
    for (size_t j = i + 1; j < n; ++j) {
      if (d[j] > d[best] || (d[j] == d[best] && e[j] < e[best])) best = j;
    }
    if (best == i) continue;
    std::swap(d[i], d[best]);
    std::swap(e[i], e[best]);
    SwapRows(row(i), row(best), n);
  }
  return converged;
}

EigenDecomposition SymmetricEigen(const Matrix& s) {
  DMT_CHECK_EQ(s.rows(), s.cols());
  const size_t n = s.rows();
  Matrix w = s;  // factored in place: row i becomes eigenvector i
  std::vector<double> scratch(n);
  EigenDecomposition out;
  out.eigenvalues.resize(n);
  SymmetricEigenInPlace(w.Row(0), n, out.eigenvalues.data(),
                        scratch.data());
  out.eigenvectors = w.Transposed();
  return out;
}

DMT_NO_ALLOC
size_t JacobiDiagonalizeInPlace(Matrix* g, Matrix* v) {
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
        // the warm-start case the FD reference backend relies on.
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

double SpectralNormSymmetric(const Matrix& s) {
  EigenDecomposition e = SymmetricEigen(s);
  double mx = 0.0;
  for (double l : e.eigenvalues) mx = std::max(mx, std::fabs(l));
  return mx;
}

}  // namespace linalg
}  // namespace dmt
