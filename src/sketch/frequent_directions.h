// Frequent Directions matrix sketch [Liberty, KDD 2013].
//
// Maintains a sketch B with at most `ell` rows such that for the stream
// matrix A (rows appended so far) and every unit vector x:
//
//   0 <= ||Ax||^2 - ||Bx||^2 <= ||A||_F^2 / (ell + 1).
//
// Implementation notes:
//  * We use the doubled-buffer ("fast FD") variant: rows accumulate in a
//    buffer of capacity 2*ell; when full, one shrink keeps <= ell rows.
//    Amortized update cost is O(d^2) per row.
//  * A shrink only ever needs the top ell+1 eigenpairs of the buffer's
//    Gram (the FD analysis [Liberty KDD'13; Ghashami & Phillips SODA'14]
//    depends only on delta = lambda_{ell+1} and the leading subspace).
//    The default shrink backend is therefore a thick-restart Lanczos
//    partial eigensolver (linalg/lanczos.h), and a shrink is one
//    LanczosSolver::TopKOfRows call on the buffer: the solver picks the
//    operator from the shape. When the buffer is wider than tall (fewer
//    rows than columns — always the case when 4*ell < d, and for
//    streaming 2*ell-row shrinks whenever 2*ell < d) it iterates on the
//    rows — two GEMV-shaped passes per matvec, never materializing the
//    d x d Gram — and otherwise on one blocked Gram of the buffer. When
//    the Krylov basis would span R^d (2 ell + 10 >= d, e.g. MP1 at
//    eps = 0.1 on PAMAP's d = 44) it takes its dense route instead: one
//    blocked Gram, factored directly by the Householder-QL kernel. The
//    Krylov seed is warm-started from the previous shrink's leading
//    eigenvector. If a solve fails its residual test (rare: one
//    warm-seeded shrink in BENCH_partial_eigen.json's (64, 1024) stream;
//    see lanczos_fallback_count) the shrink transparently reruns on the
//    Jacobi reference path.
//  * The full-spectrum Jacobi pipeline is kept as the reference backend
//    (set_shrink_backend / DMT_FD_BACKEND=jacobi): allocation-free and
//    warm-started, it keeps the surviving rows as exact scaled
//    eigenvectors of a retained rotation basis V so only rows appended
//    since the last shrink are rotated in (one blocked GEMM + one
//    blocked symmetric accumulation) before a warm cyclic Jacobi sweep.
//  * Both backends shrink at the Gram level (subtract the (ell+1)-th
//    eigenvalue from every kept eigenvalue, clamp at 0, rebuild rows as
//    sqrt(lambda') * v^T in place), numerically equivalent to the SVD
//    formulation in the paper; tests/fd_shrink_test.cc pins both against
//    a cold RightSingularOf reference and against each other.
//  * Sketches are mergeable [Agarwal et al. 2012]: Merge() bulk-appends
//    the other sketch's rows and lets one shrink re-compress; errors add,
//    so the combined sketch still satisfies the bound for A1 stacked on
//    A2. Protocol MP1 relies on this at the coordinator. AppendRows uses
//    the same bulk path: it fills the buffer to capacity before each
//    shrink, so a block of n rows costs ~n/(3*ell) shrinks instead of the
//    row-at-a-time n/ell.
#ifndef DMT_SKETCH_FREQUENT_DIRECTIONS_H_
#define DMT_SKETCH_FREQUENT_DIRECTIONS_H_

#include <cstddef>
#include <vector>

#include "linalg/lanczos.h"
#include "linalg/matrix.h"

namespace dmt {
namespace sketch {

/// Which eigensolver a FrequentDirections shrink uses.
enum class FdShrinkBackend {
  /// Thick-restart Lanczos, top ell+1 pairs only (the default fast path).
  kLanczos,
  /// Full-spectrum warm-started cyclic Jacobi (the reference path).
  kJacobi,
};

/// Streaming Frequent Directions sketch.
class FrequentDirections {
 public:
  /// `ell` >= 1: maximum rows retained after a shrink. `dim` may be 0 to
  /// infer the dimension from the first appended row.
  explicit FrequentDirections(size_t ell, size_t dim = 0);

  /// Sketch sized so the directional error is <= eps * ||A||_F^2
  /// (ell = ceil(1/eps), so ||A||_F^2/(ell+1) < eps * ||A||_F^2; eps > 0).
  static FrequentDirections WithEpsilon(double eps, size_t dim = 0);

  /// Appends one row of the stream matrix.
  void Append(const std::vector<double>& row);
  void Append(const double* row, size_t n);

  /// Appends every row of `rows` through the bulk path: the buffer fills
  /// to its full (4*ell) capacity between shrinks, amortizing one shrink
  /// over ~3*ell rows instead of the row-at-a-time ell. Self-alias with
  /// the sketch buffer is safe.
  void AppendRows(const linalg::Matrix& rows);

  /// Merges another FD sketch (same ell) into this one. Mergeability
  /// [Agarwal et al. 2012]: the errors add, so the combined sketch
  /// satisfies the class bound for A1 stacked on A2 with no loss over
  /// sketching the concatenated stream directly.
  void Merge(const FrequentDirections& other);

  /// Forces compression down to <= ell rows (a query-time convenience; the
  /// guarantee holds with or without the final shrink).
  void Compress();

  /// Current sketch rows (between ell and 2*ell rows; call Compress() first
  /// if a hard ell-row budget is required).
  const linalg::Matrix& sketch() const { return buffer_; }

  /// ‖Bx‖² for unit-vector queries (x length dim()). Guarantee: for the
  /// stream matrix A, 0 ≤ ‖Ax‖² − ‖Bx‖² ≤ total_shrinkage()
  ///                                     ≤ stream_squared_frobenius()/(ell+1).
  double SquaredNormAlong(const std::vector<double>& x) const;

  /// B^T B of the current sketch.
  linalg::Matrix Gram() const { return buffer_.Gram(); }

  /// Total squared Frobenius mass of all appended rows (i.e. ||A||_F^2).
  double stream_squared_frobenius() const { return stream_sq_frob_; }

  /// Sum of shrink cutoffs so far. The FD analysis guarantees that the
  /// directional undercount is between 0 and this value, and that it is at
  /// most stream_squared_frobenius() / (ell+1).
  double total_shrinkage() const { return total_shrinkage_; }

  size_t ell() const { return ell_; }
  size_t dim() const { return dim_; }
  size_t rows() const { return buffer_.rows(); }
  /// Number of shrink (eigendecomposition) events so far.
  size_t shrink_count() const { return shrink_count_; }

  /// Selects the shrink eigensolver. May be switched at any time — the
  /// Jacobi path cold-starts after a Lanczos shrink (its warm-start
  /// invariant no longer holds) and re-warms from there.
  void set_shrink_backend(FdShrinkBackend backend) { backend_ = backend; }
  FdShrinkBackend shrink_backend() const { return backend_; }
  /// Process-wide default backend: Lanczos unless DMT_FD_BACKEND=jacobi.
  static FdShrinkBackend DefaultShrinkBackend();
  /// Shrinks where the Lanczos solve missed its residual tolerance and
  /// the Jacobi reference path ran instead (usually 0; observability).
  size_t lanczos_fallback_count() const { return lanczos_fallbacks_; }

 private:
  /// Buffer capacity in rows: 2*ell for streaming plus head-room so the
  /// Merge/AppendRows bulk paths never reallocate.
  size_t BufferCapacityRows() const { return 4 * ell_; }

  /// One-time (per sketch) allocation of what every shrink needs:
  /// full-capacity buffer reservation and warm-seed storage. Shrink calls
  /// it first, so the shrink paths themselves are DMT_NO_ALLOC.
  void EnsureShrinkWorkspace();

  /// One-time (per sketch) allocation of the Jacobi-path workspaces,
  /// deferred until the first Jacobi shrink so Lanczos-backed sketches
  /// never pay for the three d x d matrices.
  void EnsureJacobiWorkspace();

  void ShrinkIfNeeded();
  void Shrink();
  /// Jacobi reference shrink (cold-starts when jacobi_warm_valid_ is
  /// false, e.g. right after a Lanczos shrink).
  void ShrinkJacobi();
  /// Lanczos partial shrink; returns false if the solve did not converge
  /// (caller then runs ShrinkJacobi on the untouched buffer).
  bool ShrinkLanczos();

  size_t ell_;
  size_t dim_;
  linalg::Matrix buffer_;  // up to 2*ell_ rows between public calls
  double stream_sq_frob_ = 0.0;
  double total_shrinkage_ = 0.0;
  size_t shrink_count_ = 0;
  FdShrinkBackend backend_;
  size_t lanczos_fallbacks_ = 0;

  // --- Lanczos backend state (allocated lazily on first use) ---
  linalg::LanczosSolver eigensolver_;
  std::vector<double> eigenvalues_;   // top ell+1, descending
  linalg::Matrix eigenvectors_;       // (ell+1) x d eigenvector rows
  std::vector<double> warm_seed_;     // previous shrink's leading vector
  bool warm_seed_valid_ = false;      // warm_seed_ holds a real eigenvector

  // --- Jacobi backend state (see EnsureJacobiWorkspace) ---
  bool jacobi_ready_ = false;
  // True when the warm-start invariant holds: buffer rows [0, kept_rows_)
  // are exact scaled eigenvectors of basis_ with diagonal Gram stored in
  // gram_work_. A Lanczos shrink invalidates it.
  bool jacobi_warm_valid_ = false;
  size_t kept_rows_ = 0;
  linalg::Matrix basis_;       // d x d rotation carried across shrinks
  linalg::Matrix gram_work_;   // d x d rotated Gram (diagonal after shrink)
  linalg::Matrix basis_work_;  // d x d column-permutation scratch
  linalg::Matrix rotated_;     // new rows rotated into basis_ (<= 4*ell x d)
  std::vector<double> diag_;   // eigenvalue scratch
  std::vector<size_t> order_;  // descending sort permutation scratch
};

}  // namespace sketch
}  // namespace dmt

#endif  // DMT_SKETCH_FREQUENT_DIRECTIONS_H_
