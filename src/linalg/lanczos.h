// Partial symmetric eigensolver: thick-restart Lanczos with full
// reorthogonalization and residual-based stopping.
//
// Every hot decomposition in this library needs only a few leading
// eigenpairs: the Frequent Directions shrink uses the top ell+1 pairs of
// a (at most 4*ell) x d buffer's Gram, MP2's threshold checks need just
// the eigenvalues at or above the send threshold, and the covariance
// error metric needs the two spectral extremes. Diagonalizing the full
// d x d spectrum for those is the dominant cost at large d; this solver
// computes the top-k pairs at O(k) matrix-vector products plus small
// dense work instead.
//
// Algorithm: build an orthonormal Krylov basis (full reorthogonalization
// against the whole basis, twice — the small basis makes this cheap and
// unconditionally stable), Rayleigh-Ritz on the explicit projected
// matrix, then thick restart: keep the leading Ritz vectors AND their
// operator images (both are exact linear combinations of stored
// quantities, so a restart costs no matvecs) and continue expanding.
// Thick restart is the symmetric form of implicit restarting [Wu &
// Simon, SIAM J. Matrix Anal. 2000]. A Ritz pair (theta, u) counts as
// converged when ||S u - theta u|| <= tol * spectral-scale; on an exact
// invariant subspace (happy breakdown: a reorthogonalized candidate
// shorter than 1e-13 ||S q||, below every tolerance in use) the expansion
// inserts deterministic canonical directions so repeated and zero
// eigenvalues are still found. The projected matrix is factored by the
// dense Householder-QL kernel (SymmetricEigenInPlace,
// linalg/symmetric_eigen.h), the library's only dense eigensolver.
//
// Dense route: when the basis would span R^d anyway (m = min(2k + 8, d)
// equals d — e.g. FD's k = ell + 1 = 21 or MP2's full-spectrum step at
// PAMAP's d = 44) Krylov iteration only adds d^2 reorthogonalization work
// to a full Rayleigh-Ritz. The solver then forms S and factors it
// directly with the QL kernel; the choice depends on the shape alone
// (UsesDenseRoute). S comes from the explicit operator where there is
// one — a transposed copy of TopKOfGram's matrix, one blocked Gram of
// TopKOfRows' rows — and from d matvecs on unit vectors only for a
// caller-supplied operator. `residual_bound` is still computed from the
// formed S, in one blocked GEMM.
//
// Determinism: no RNG anywhere — the default seed vector is a fixed
// quasi-random fill, restarts and breakdown replacements are
// deterministic, so results are a pure function of the operator and the
// options (the same contract the kernel layer keeps).
//
// Caveat shared by every Krylov method: a seed vector *exactly*
// orthogonal to a dominant eigenvector (probability zero for generic
// data, but constructible) can converge inside an invariant subspace and
// miss that eigenvector. Callers that need certified bounds combine the
// returned Ritz values with an exactly-tracked trace (see MP2) or fall
// back to a full-spectrum solve when `converged` is false.
#ifndef DMT_LINALG_LANCZOS_H_
#define DMT_LINALG_LANCZOS_H_

#include <cstddef>
#include <type_traits>
#include <vector>

#include "linalg/matrix.h"
#include "util/contracts.h"

namespace dmt {
namespace linalg {

/// y = S x for an implicit symmetric operator S (x, y both length d;
/// y never aliases x).
///
/// Non-owning callable reference (a "function_ref"): the solver only
/// invokes the operator during TopK, so it borrows the callable instead
/// of owning it. This replaces std::function in the hot path —
/// libstdc++'s std::function heap-allocates any capture larger than 16
/// bytes on construction, which made every TopKOfRows solve allocate.
class SymmetricMatvec {
 public:
  template <typename F,
            typename = typename std::enable_if<!std::is_same<
                typename std::decay<F>::type, SymmetricMatvec>::value>::type>
  SymmetricMatvec(const F& f)  // NOLINT(google-explicit-constructor)
      : obj_(&f), call_(&Trampoline<F>) {}

  void operator()(const double* x, double* y) const { call_(obj_, x, y); }

 private:
  template <typename F>
  static void Trampoline(const void* obj, const double* x, double* y) {
    (*static_cast<const F*>(obj))(x, y);
  }

  const void* obj_;
  void (*call_)(const void* obj, const double* x, double* y);
};

struct LanczosOptions {
  /// Residual stopping: pair i is converged when
  /// ||S u_i - theta_i u_i|| <= tol * max_j |theta_j|.
  double tol = 1e-10;
  /// Krylov basis rows per restart cycle; 0 = min(d, 2k + 8). A basis
  /// of d rows selects the dense route.
  size_t basis_size = 0;
  /// Thick-restart cycles before giving up (`converged` = false).
  size_t max_restarts = 200;
  /// Optional warm-start seed of length d (e.g. the previous solve's
  /// leading eigenvector); nullptr = deterministic default fill. The
  /// dense route does not use it.
  const double* seed = nullptr;
};

struct LanczosInfo {
  bool converged = false;
  /// Operator applications. The dense route of TopKOfGram / TopKOfRows
  /// forms S without any (0); TopK's dense route applies the caller's
  /// operator to each of the d unit vectors (d).
  size_t matvecs = 0;
  size_t restarts = 0;
  /// sqrt(sum of squared residual norms) of the returned pairs — an upper
  /// bound on the coupling between the returned subspace and the rest of
  /// the spectrum (MP2's certified gating adds this to its trace bound).
  /// On the dense route each residual is measured against the formed S
  /// and padded by its own rounding-error bound.
  double residual_bound = 0.0;
};

/// Reusable top-k solver. All workspaces persist across Solve calls, so
/// steady-state solves of a fixed (d, k) shape do not allocate — the same
/// contract as the FD shrink pipeline that owns one of these.
class LanczosSolver {
 public:
  /// Computes the top-k (largest algebraic) eigenpairs of the symmetric
  /// operator given by `matvec` on R^d. On return `eigenvalues` holds
  /// min(k, d) values in non-increasing order (not clamped — small
  /// negatives from a PSD operator are reported as computed) and row i of
  /// `eigenvectors` (min(k,d) x d) is the matching unit eigenvector.
  /// `info.converged` is true when every returned pair passed the
  /// residual test — on the dense route, when the QL factorization
  /// converged. It is false for NaN or Inf operators, which return
  /// promptly.
  LanczosInfo TopK(size_t d, size_t k, const SymmetricMatvec& matvec,
                   std::vector<double>* eigenvalues, Matrix* eigenvectors,
                   const LanczosOptions& opts = LanczosOptions());

  /// TopK on an explicit symmetric matrix. The Krylov route iterates on
  /// row-dot matvecs (DotRows: every y[i] bit for bit Dot(gram row i, x),
  /// so TopK with a per-row Dot operator returns the same pairs); the
  /// dense route factors a transposed copy of `gram` — value for value
  /// the S that d unit-vector matvecs would form, so the same holds there.
  LanczosInfo TopKOfGram(const Matrix& gram, size_t k,
                         std::vector<double>* eigenvalues,
                         Matrix* eigenvectors,
                         const LanczosOptions& opts = LanczosOptions());

  /// TopK of A^T A for a row matrix A (n x d). The solver picks the
  /// operator from the shape: the dense route factors one blocked Gram
  /// of the rows; the Krylov route iterates on the rows themselves when
  /// n < d — two GEMV-shaped passes per matvec, y = A^T (A x), the d x d
  /// Gram never materialized — and otherwise builds the Gram once in a
  /// solver-owned workspace and iterates on it exactly as TopKOfGram
  /// would. All scratch is solver-owned, so steady-state solves stay
  /// allocation-free.
  LanczosInfo TopKOfRows(const Matrix& rows, size_t k,
                         std::vector<double>* eigenvalues,
                         Matrix* eigenvectors,
                         const LanczosOptions& opts = LanczosOptions());

  /// True when a top-k solve on R^d with these options takes the dense
  /// route: its Krylov basis, m = min(max(basis_size or 2k + 8, k + 2), d)
  /// rows with k clamped to d, would span R^d. Callers that would
  /// otherwise ask for fewer pairs on this route can ask for all d at no
  /// extra factorization cost.
  static bool UsesDenseRoute(size_t d, size_t k,
                             const LanczosOptions& opts = LanczosOptions());

 private:
  // Allocation is confined to these DMT_ALLOC_OK setup helpers (see the
  // definitions); the solve loops themselves are DMT_NO_ALLOC.
  void EnsureWorkspace(size_t d, size_t m);
  void EnsureRitzWorkspace(size_t j);
  void EnsureRowScratch(size_t n);
  void EnsureGramWorkspace(size_t d);
  static void SizeOutputs(size_t need, size_t d,
                          std::vector<double>* eigenvalues,
                          Matrix* eigenvectors);

  /// The m == d route, once the caller has formed S^T in sq_ (d x d, row
  /// i = S e_i): factors it with SymmetricEigenInPlace and measures the
  /// top-k residuals against it. k <= d.
  LanczosInfo DenseTopK(size_t d, size_t k, std::vector<double>* eigenvalues,
                        Matrix* eigenvectors);
  /// The m < d route: thick-restart Lanczos on `matvec`.
  LanczosInfo KrylovTopK(size_t d, size_t k, const SymmetricMatvec& matvec,
                         std::vector<double>* eigenvalues,
                         Matrix* eigenvectors, const LanczosOptions& opts);
  /// u_ row i and su_ row i <- Ritz vector i (coefficients: row i of t_
  /// over the j basis rows) and its operator image.
  void RitzVector(size_t i, size_t j, size_t d);

  Matrix q_;    // basis rows (m x d), orthonormal
  Matrix sq_;   // S * basis rows (m x d); dense route: row i = S e_i
  Matrix u_;    // Ritz-vector scratch (m x d); dense route: factored S
  Matrix su_;   // S * Ritz-vector scratch (m x d); dense route: row i = S u_i
  Matrix t_;    // projected operator (j x j); rows become its eigenvectors
  Matrix gram_; // d x d Gram of TopKOfRows' rows on the tall Krylov route
  std::vector<double> cand_;         // expansion candidate (d)
  std::vector<double> theta_;        // Ritz values, descending
  std::vector<double> eig_scratch_;  // SymmetricEigenInPlace scratch (m)
  std::vector<double> rowmv_;        // n-length scratch for TopKOfRows
};

/// Top-k eigenpairs of an explicit symmetric matrix (e.g. a Gram).
LanczosInfo LanczosTopKOfGram(const Matrix& gram, size_t k,
                              std::vector<double>* eigenvalues,
                              Matrix* eigenvectors,
                              const LanczosOptions& opts = LanczosOptions());

/// One-shot convenience over LanczosSolver::TopKOfRows (throwaway
/// workspaces; callers in a loop should own a solver instead).
LanczosInfo LanczosTopKOfRows(const Matrix& rows, size_t k,
                              std::vector<double>* eigenvalues,
                              Matrix* eigenvectors,
                              const LanczosOptions& opts = LanczosOptions());

/// Both spectral extremes (algebraic min and max eigenvalue) of a
/// symmetric matrix via two top-1 Lanczos solves (on S and on -S, so
/// indefinite difference matrices are handled). Falls back to the exact
/// full-spectrum SymmetricEigen if either solve misses its residual
/// tolerance, so the result is always trustworthy.
void SymmetricEigenExtremesLanczos(const Matrix& s, double* lambda_min,
                                   double* lambda_max, double tol = 1e-12);

/// Spectral norm (largest |eigenvalue|) of a symmetric matrix — the
/// max-magnitude reduction of SymmetricEigenExtremesLanczos.
double SpectralNormSymmetricLanczos(const Matrix& s, double tol = 1e-12);

}  // namespace linalg
}  // namespace dmt

#endif  // DMT_LINALG_LANCZOS_H_
