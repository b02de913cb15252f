#include "linalg/lanczos.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "linalg/jacobi_eigen.h"
#include "linalg/kernels.h"
#include "linalg/vec_ops.h"
#include "util/check.h"
#include "util/contracts.h"

namespace dmt {
namespace linalg {

namespace {

constexpr double kTiny = 1e-300;

// Deterministic quasi-random seed fill (splitmix64 mapped to [-1, 1]).
// Fixed so solves are a pure function of the operator — no RNG
// dependency, same contract as the kernel layer.
void DeterministicFill(double* x, size_t d) {
  uint64_t state = 0x9E3779B97F4A7C15ull ^ (0x243F6A8885A308D3ull * d);
  for (size_t i = 0; i < d; ++i) {
    state += 0x9E3779B97F4A7C15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    x[i] = 2.0 * (static_cast<double>(z >> 11) * 0x1.0p-53) - 1.0;
  }
}

// Krylov basis rows per restart cycle of a top-k solve on R^d (k <= d).
size_t BasisRows(size_t d, size_t k, const LanczosOptions& opts) {
  const size_t m = opts.basis_size != 0 ? opts.basis_size : 2 * k + 8;
  return std::min(std::max(m, k + 2), d);
}

// Two full modified-Gram-Schmidt passes of `x` against the first j rows
// of q ("twice is enough" — Giraud et al.). Returns the final norm of x.
double Reorthogonalize(double* x, const Matrix& q, size_t j, size_t d) {
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < j; ++i) {
      const double c = Dot(x, q.Row(i), d);
      Axpy(-c, q.Row(i), x, d);
    }
  }
  return Norm(x, d);
}

}  // namespace

DMT_ALLOC_OK("one-time workspace setup; reallocates only on (d, m) shape change")
void LanczosSolver::EnsureWorkspace(size_t d, size_t m) {
  if (q_.rows() != m || q_.cols() != d) {
    q_ = Matrix(m, d);
    sq_ = Matrix(m, d);
    u_ = Matrix(m, d);
    su_ = Matrix(m, d);
  }
  if (cand_.size() != d) cand_.resize(d);
  if (theta_.size() < m) theta_.resize(m);
  if (eig_scratch_.size() < m) eig_scratch_.resize(m);
}

DMT_ALLOC_OK("shape change only: the basis size moves on the first cycle and a final truncated cycle")
void LanczosSolver::EnsureRitzWorkspace(size_t j) {
  if (t_.rows() != j) t_ = Matrix(j, j);
}

DMT_ALLOC_OK("grow-once n-length scratch; steady-state solves of a fixed shape do not reallocate")
void LanczosSolver::EnsureRowScratch(size_t n) {
  if (rowmv_.size() < n) rowmv_.resize(n);
}

DMT_ALLOC_OK("one-time d x d Gram workspace for tall TopKOfRows solves; reallocates only on a change of d")
void LanczosSolver::EnsureGramWorkspace(size_t d) {
  if (gram_.rows() != d) gram_ = Matrix(d, d);
}

DMT_ALLOC_OK("caller-visible output sizing; no-op when outputs already have the solve's shape")
void LanczosSolver::SizeOutputs(size_t need, size_t d,
                                std::vector<double>* eigenvalues,
                                Matrix* eigenvectors) {
  eigenvalues->assign(need, 0.0);
  if (eigenvectors->rows() != need || eigenvectors->cols() != d) {
    *eigenvectors = Matrix(need, d);
  } else {
    eigenvectors->SetZero();
  }
}

DMT_NO_ALLOC
void LanczosSolver::RitzVector(size_t i, size_t j, size_t d) {
  double* u = u_.Row(i);
  double* su = su_.Row(i);
  std::fill(u, u + d, 0.0);
  std::fill(su, su + d, 0.0);
  const double* coef = t_.Row(i);
  for (size_t a = 0; a < j; ++a) {
    const double c = coef[a];
    if (c == 0.0) continue;
    Axpy(c, q_.Row(a), u, d);
    Axpy(c, sq_.Row(a), su, d);
  }
}

bool LanczosSolver::UsesDenseRoute(size_t d, size_t k,
                                   const LanczosOptions& opts) {
  return d > 0 && k > 0 && BasisRows(d, std::min(k, d), opts) == d;
}

DMT_NO_ALLOC
LanczosInfo LanczosSolver::DenseTopK(size_t d, size_t k,
                                     std::vector<double>* eigenvalues,
                                     Matrix* eigenvectors) {
  LanczosInfo info;
  // sq_ holds S^T, so its upper triangle is the lower triangle of S — for
  // a symmetric operator the same matrix.
  std::memcpy(u_.Row(0), sq_.Row(0), d * d * sizeof(double));
  info.converged = SymmetricEigenInPlace(u_.Row(0), d, theta_.data(),
                                         eig_scratch_.data());

  // Residuals against the formed S itself: row i of U_k S^T is S u_i, one
  // blocked GEMM over the stored columns, so an asymmetric operator is
  // not flattered. Each one is padded by (d + 2) eps (||S||_F + |theta|),
  // the standard error bound of evaluating S u - theta u, so
  // residual_bound stays above the exact residual even at roundoff level
  // — MP2's trace certificate adds it.
  kernels::Gemm(u_.Row(0), sq_.Row(0), su_.Row(0), k, d, d);
  double frob_sq = 0.0;
  for (size_t i = 0; i < d; ++i) frob_sq += SquaredNorm(sq_.Row(i), d);
  const double rounding =
      static_cast<double>(d + 2) * std::ldexp(1.0, -52);
  SizeOutputs(k, d, eigenvalues, eigenvectors);
  double resid_sq_sum = 0.0;
  for (size_t i = 0; i < k; ++i) {
    const double* u = u_.Row(i);
    const double* su = su_.Row(i);
    const double th = theta_[i];
    (*eigenvalues)[i] = th;
    std::memcpy(eigenvectors->Row(i), u, d * sizeof(double));
    double rsq = 0.0;
    for (size_t t = 0; t < d; ++t) {
      const double r = su[t] - th * u[t];
      rsq += r * r;
    }
    const double r = std::sqrt(rsq) +
                     rounding * (std::sqrt(frob_sq) + std::fabs(th));
    resid_sq_sum += r * r;
  }
  info.residual_bound = std::sqrt(resid_sq_sum);
  return info;
}

DMT_NO_ALLOC
LanczosInfo LanczosSolver::TopK(size_t d, size_t k,
                                const SymmetricMatvec& matvec,
                                std::vector<double>* eigenvalues,
                                Matrix* eigenvectors,
                                const LanczosOptions& opts) {
  if (!UsesDenseRoute(d, k, opts)) {
    return KrylovTopK(d, k, matvec, eigenvalues, eigenvectors, opts);
  }
  // A caller-supplied operator is only known through its matvecs: row i
  // of sq_ is S e_i (= column i of S).
  EnsureWorkspace(d, d);
  std::fill(cand_.begin(), cand_.end(), 0.0);
  for (size_t i = 0; i < d; ++i) {
    cand_[i] = 1.0;
    // dmt-lint: allow(noalloc-violation): indirect call, same operator
    // contract as KrylovTopK's matvecs.
    matvec(cand_.data(), sq_.Row(i));
    cand_[i] = 0.0;
  }
  LanczosInfo info = DenseTopK(d, std::min(k, d), eigenvalues, eigenvectors);
  info.matvecs = d;
  return info;
}

DMT_NO_ALLOC
LanczosInfo LanczosSolver::KrylovTopK(size_t d, size_t k,
                                      const SymmetricMatvec& matvec,
                                      std::vector<double>* eigenvalues,
                                      Matrix* eigenvectors,
                                      const LanczosOptions& opts) {
  LanczosInfo info;
  eigenvalues->clear();
  if (d == 0 || k == 0) {
    SizeOutputs(0, d, eigenvalues, eigenvectors);
    info.converged = true;
    return info;
  }
  k = std::min(k, d);
  const size_t m = BasisRows(d, k, opts);
  EnsureWorkspace(d, m);

  // Seed the basis.
  double* q0 = q_.Row(0);
  if (opts.seed != nullptr) {
    std::memcpy(q0, opts.seed, d * sizeof(double));
  } else {
    DeterministicFill(q0, d);
  }
  double nrm = Norm(q0, d);
  if (nrm <= kTiny) {
    std::fill(q0, q0 + d, 0.0);
    q0[0] = 1.0;
  } else {
    Scale(1.0 / nrm, q0, d);
  }
  // dmt-lint: allow(noalloc-violation): indirect call — every operator
  // passed in-tree is an allocation-free row-dot loop (see TopKOfGram /
  // TopKOfRows); out-of-tree operators must honor the same contract.
  matvec(q_.Row(0), sq_.Row(0));
  ++info.matvecs;

  size_t j = 1;          // current basis rows
  size_t fresh = 0;      // next canonical direction for breakdown recovery
  const size_t need = k; // pairs the caller asked for (k <= m <= d)

  for (;; ++info.restarts) {
    // ---- Expand the basis to m rows: candidate = S q_{last}, fully
    // reorthogonalized; on (happy) breakdown — the current span is
    // invariant — insert a deterministic canonical direction so repeated
    // and zero eigenvalues are reachable.
    while (j < m) {
      const double* src = sq_.Row(j - 1);
      std::memcpy(cand_.data(), src, d * sizeof(double));
      const double src_norm = Norm(src, d);
      nrm = Reorthogonalize(cand_.data(), q_, j, d);
      if (nrm <= 1e-10 * src_norm + kTiny) {
        bool replaced = false;
        while (fresh < d) {
          const size_t t = fresh++;
          std::fill(cand_.begin(), cand_.end(), 0.0);
          cand_[t] = 1.0;
          nrm = Reorthogonalize(cand_.data(), q_, j, d);
          // Some e_t must keep norm >= 1/sqrt(d) while j < d, so this
          // floor cannot exhaust the supply before the basis spans R^d.
          if (nrm > 1e-6) {
            replaced = true;
            break;
          }
        }
        if (!replaced) break;  // basis numerically spans R^d
      }
      Scale(1.0 / nrm, cand_.data(), d);
      std::memcpy(q_.Row(j), cand_.data(), d * sizeof(double));
      // dmt-lint: allow(noalloc-violation): indirect call, same operator
      // contract as the seeding matvec above.
      matvec(q_.Row(j), sq_.Row(j));
      ++info.matvecs;
      ++j;
    }

    // ---- Rayleigh-Ritz on the j-row basis: T = Q S Q^T (j x j, upper
    // triangle only — all the dense solver reads). Afterwards theta_ is
    // descending and row i of t_ holds the basis coefficients of Ritz
    // vector i.
    EnsureRitzWorkspace(j);
    for (size_t a = 0; a < j; ++a) {
      for (size_t b = a; b < j; ++b) t_(a, b) = Dot(q_.Row(a), sq_.Row(b), d);
    }
    const bool ritz_ok = SymmetricEigenInPlace(t_.Row(0), j, theta_.data(),
                                               eig_scratch_.data());

    // Spectral scale for the relative residual test: the largest |Ritz
    // value| seen, a faithful stand-in for ||S||.
    double scale = kTiny;
    for (size_t i = 0; i < j; ++i) {
      scale = std::max(scale, std::fabs(theta_[i]));
    }

    // ---- Ritz vectors u_i = sum_a t(i, a) q_a and their operator
    // images (exact linear combinations of stored rows — no matvecs),
    // plus residuals r_i = ||S u_i - theta_i u_i|| for the top `need`.
    const size_t avail = std::min(j, need);
    bool all_converged = true;
    double resid_sq_sum = 0.0;
    for (size_t i = 0; i < avail; ++i) {
      RitzVector(i, j, d);
      const double* u = u_.Row(i);
      const double* su = su_.Row(i);
      const double th = theta_[i];
      double rsq = 0.0;
      for (size_t t = 0; t < d; ++t) {
        const double r = su[t] - th * u[t];
        rsq += r * r;
      }
      resid_sq_sum += rsq;
      if (std::sqrt(rsq) > opts.tol * scale + kTiny) all_converged = false;
    }

    // j <= m < d here (m == d took the dense route), so the basis never
    // spans R^d and convergence is decided by the residuals alone.
    if (!ritz_ok || all_converged || avail < need ||
        info.restarts >= opts.max_restarts) {
      // `avail < need` only happens when expansion exhausted every
      // direction with j < k, i.e. the basis already spans the reachable
      // space; Rayleigh-Ritz is then exact on it. Pad with zeros.
      SizeOutputs(need, d, eigenvalues, eigenvectors);
      for (size_t i = 0; i < avail; ++i) {
        (*eigenvalues)[i] = theta_[i];
        std::memcpy(eigenvectors->Row(i), u_.Row(i), d * sizeof(double));
      }
      info.residual_bound = std::sqrt(resid_sq_sum);
      info.converged = ritz_ok && all_converged;
      return info;
    }

    // ---- Thick restart: keep the leading p Ritz rows and their operator
    // images (no matvecs), then keep expanding. The kept rows stay
    // orthonormal because the coefficient matrix t_ is orthogonal.
    const size_t p = std::min(j - 1, k + std::min(k, size_t{8}));
    for (size_t i = avail; i < p; ++i) RitzVector(i, j, d);
    std::swap(q_, u_);
    std::swap(sq_, su_);
    j = p;
    // The restart shrank the span, so canonical directions rejected as
    // in-span earlier may be valid breakdown replacements again.
    fresh = 0;
  }
}

DMT_NO_ALLOC
LanczosInfo LanczosSolver::TopKOfGram(const Matrix& gram, size_t k,
                                      std::vector<double>* eigenvalues,
                                      Matrix* eigenvectors,
                                      const LanczosOptions& opts) {
  DMT_CHECK_EQ(gram.rows(), gram.cols());
  const size_t d = gram.rows();
  if (UsesDenseRoute(d, k, opts)) {
    // Row i of G^T is the column a matvec on e_i would read out of G.
    EnsureWorkspace(d, d);
    kernels::Transpose(gram.Row(0), d, d, sq_.Row(0));
    return DenseTopK(d, std::min(k, d), eigenvalues, eigenvectors);
  }
  return KrylovTopK(
      d, k,
      [&gram, d](const double* x, double* y) {
        for (size_t i = 0; i < d; ++i) y[i] = Dot(gram.Row(i), x, d);
      },
      eigenvalues, eigenvectors, opts);
}

LanczosInfo LanczosTopKOfGram(const Matrix& gram, size_t k,
                              std::vector<double>* eigenvalues,
                              Matrix* eigenvectors,
                              const LanczosOptions& opts) {
  LanczosSolver solver;
  return solver.TopKOfGram(gram, k, eigenvalues, eigenvectors, opts);
}

DMT_NO_ALLOC
LanczosInfo LanczosSolver::TopKOfRows(const Matrix& rows, size_t k,
                                      std::vector<double>* eigenvalues,
                                      Matrix* eigenvectors,
                                      const LanczosOptions& opts) {
  const size_t n = rows.rows();
  const size_t d = rows.cols();
  if (UsesDenseRoute(d, k, opts)) {
    EnsureWorkspace(d, d);
    kernels::Gram(rows.Row(0), n, d, sq_.Row(0));
    return DenseTopK(d, std::min(k, d), eigenvalues, eigenvectors);
  }
  if (n >= d) {
    // Tall: one blocked Gram build, then d^2-flop matvecs on it instead
    // of 2nd-flop passes over the rows.
    EnsureGramWorkspace(d);
    kernels::Gram(rows.Row(0), n, d, gram_.Row(0));
    return TopKOfGram(gram_, k, eigenvalues, eigenvectors, opts);
  }
  EnsureRowScratch(n);
  return KrylovTopK(
      d, k,
      [this, &rows, n, d](const double* x, double* y) {
        for (size_t i = 0; i < n; ++i) rowmv_[i] = Dot(rows.Row(i), x, d);
        std::fill(y, y + d, 0.0);
        for (size_t i = 0; i < n; ++i) Axpy(rowmv_[i], rows.Row(i), y, d);
      },
      eigenvalues, eigenvectors, opts);
}

LanczosInfo LanczosTopKOfRows(const Matrix& rows, size_t k,
                              std::vector<double>* eigenvalues,
                              Matrix* eigenvectors,
                              const LanczosOptions& opts) {
  LanczosSolver solver;
  return solver.TopKOfRows(rows, k, eigenvalues, eigenvectors, opts);
}

void SymmetricEigenExtremesLanczos(const Matrix& s, double* lambda_min,
                                   double* lambda_max, double tol) {
  DMT_CHECK_EQ(s.rows(), s.cols());
  const size_t d = s.rows();
  *lambda_min = 0.0;
  *lambda_max = 0.0;
  if (d == 0) return;
  LanczosSolver solver;
  LanczosOptions opts;
  opts.tol = tol;
  std::vector<double> vals;
  Matrix vecs;
  LanczosInfo pos = solver.TopKOfGram(s, 1, &vals, &vecs, opts);
  const double hi = vals.empty() ? 0.0 : vals[0];
  LanczosInfo neg;
  double lo = 0.0;
  if (pos.converged) {  // the fallback discards both, so don't start -S
    neg = solver.TopK(
        d, 1,
        [&s, d](const double* x, double* y) {
          for (size_t i = 0; i < d; ++i) y[i] = -Dot(s.Row(i), x, d);
        },
        &vals, &vecs, opts);
    lo = vals.empty() ? 0.0 : -vals[0];
  }
  if (!pos.converged || !neg.converged) {
    EigenDecomposition e = SymmetricEigen(s);  // exact reference fallback
    *lambda_max = e.eigenvalues.front();
    *lambda_min = e.eigenvalues.back();
    return;
  }
  *lambda_max = hi;
  *lambda_min = lo;
}

double SpectralNormSymmetricLanczos(const Matrix& s, double tol) {
  double lo = 0.0, hi = 0.0;
  SymmetricEigenExtremesLanczos(s, &lo, &hi, tol);
  return std::max(0.0, std::max(hi, -lo));
}

}  // namespace linalg
}  // namespace dmt
