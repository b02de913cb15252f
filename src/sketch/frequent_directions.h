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
//    depends only on delta = lambda_{ell+1} and the leading subspace), so
//    it is one LanczosSolver::TopKOfRows call on the buffer
//    (linalg/lanczos.h), which picks the operator from the shape: row
//    matvecs — two GEMV-shaped passes, the d x d Gram never materialized
//    — when the buffer has fewer rows than columns (always for Append
//    and AppendRows when 4*ell < d; a batch Merge may stack more rows),
//    one blocked Gram otherwise, and its dense route — one
//    blocked Gram factored by Householder-QL — when the Krylov basis
//    would span R^d (2 ell + 10 >= d, e.g. MP1 at eps = 0.1 on PAMAP's
//    d = 44). The Krylov seed is the previous shrink's leading
//    eigenvector. A Krylov solve that misses its residual test reruns on
//    the dense route (lanczos_fallback_count).
//  * The reference backend (set_shrink_backend / DMT_FD_BACKEND=dense)
//    always takes the dense route.
//  * Both backends shrink at the Gram level (subtract the (ell+1)-th
//    eigenvalue from every kept eigenvalue, clamp at 0, rebuild rows as
//    sqrt(lambda') * v^T in place), numerically equivalent to the SVD
//    formulation in the paper; tests/fd_shrink_test.cc pins both against
//    a cold reference SVD of every buffer and against each other.
//  * Factored state: right after a shrink the rows are B = Σ̃Vᵀ, row i
//    being sqrt(lambda_i - delta) v_i^T from the shrink's own solve, so
//    B's right singular structure is already known. FactoredSketch()
//    hands it out, bit for bit the factors the rows were built from,
//    until the next row enters the buffer (Append, AppendRows, a Merge
//    with a non-empty part). A shrink whose solve did not converge
//    (non-finite rows) leaves no factorization. The eigenpairs persist
//    until the next shrink anyway, so this costs the shrink nothing.
//    Protocol MP1 forwards it to its serving snapshots.
//  * Sketches are mergeable [Agarwal et al. 2012]: errors add, so a
//    sketch merged from parts satisfies the bound for the parts' streams
//    stacked, under any grouping of the merges. A merge is one shrink of
//    the stacked rows: a batch Merge of k sketches appends every part's
//    rows behind the kept ones and shrinks once at the end, however many
//    rows that stacks. Each shrink removes at least (ell+1)*delta of mass
//    whatever the buffer's length, so the bound needs no cap on it.
//    Protocol MP1's coordinator merges each window's flushes as one
//    batch, so it shrinks at most once per window. The transient space is
//    the batch's rows held once more (the buffer keeps the largest
//    batch's capacity); MP1's outboxes hold those rows already.
//  * AppendRows keeps a bounded buffer instead: its input is raw rows of
//    any length, so it fills the buffer to its 4*ell capacity before each
//    shrink, and n rows cost ~n/(3*ell) shrinks instead of the
//    row-at-a-time n/ell.
#ifndef DMT_SKETCH_FREQUENT_DIRECTIONS_H_
#define DMT_SKETCH_FREQUENT_DIRECTIONS_H_

#include <cstddef>
#include <vector>

#include "linalg/lanczos.h"
#include "linalg/matrix.h"
#include "linalg/svd.h"

namespace dmt {
namespace sketch {

/// Which eigensolver a FrequentDirections shrink uses.
enum class FdShrinkBackend {
  /// Thick-restart Lanczos, top ell+1 pairs only (the default fast path).
  kLanczos,
  /// One blocked Gram plus a full Householder-QL solve (the reference
  /// path, and the Lanczos backend's fallback).
  kDense,
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
  /// sketching the concatenated stream directly. The batch of one below.
  void Merge(const FrequentDirections& other);

  /// Merges `count` sketches (same ell) as one shrink of the stacked
  /// rows: every part's rows land behind this sketch's rows in batch
  /// order, and one shrink at the end (when they reach 2*ell) restores the
  /// < 2*ell invariant; no shrink runs mid-batch. Stream mass and
  /// total_shrinkage() add each part's. The batch may hold `this`, or one
  /// sketch several times; each entry reads the state before the call.
  void Merge(const FrequentDirections* const* others, size_t count);

  /// Forces compression down to <= ell rows (a query-time convenience; the
  /// guarantee holds with or without the final shrink).
  void Compress();

  /// Current sketch rows (between ell and 2*ell rows; call Compress() first
  /// if a hard ell-row budget is required).
  const linalg::Matrix& sketch() const { return buffer_; }

  /// The sketch's right singular structure, when its rows are exactly the
  /// output of the last shrink (no row has entered since, and that
  /// shrink's solve converged): `squared_sigma` holds rows() values,
  /// descending, each max(0, lambda_i - delta) as in the row rebuild, and
  /// `v` is dim() x rows() with column i the eigenvector row i was built
  /// from. So sketch()(i, j) == sqrt(squared_sigma[i]) * v(j, i) exactly.
  /// Returns false, leaving *out untouched, in any other state.
  bool FactoredSketch(linalg::RightSingular* out) const;

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

  /// Selects the shrink eigensolver. May be switched at any time.
  void set_shrink_backend(FdShrinkBackend backend) { backend_ = backend; }
  FdShrinkBackend shrink_backend() const { return backend_; }
  /// Process-wide default backend: Lanczos unless DMT_FD_BACKEND=dense.
  static FdShrinkBackend DefaultShrinkBackend();
  /// Shrinks where the Krylov solve missed its residual tolerance and the
  /// dense route ran instead (usually 0; non-finite rows always fall
  /// back; observability).
  size_t lanczos_fallback_count() const { return lanczos_fallbacks_; }

 private:
  /// Buffer capacity in rows that AppendRows fills between shrinks: 2*ell
  /// for streaming plus head-room. A batch Merge may reserve more.
  size_t BufferCapacityRows() const { return 4 * ell_; }

  /// Allocation of what every shrink needs: a buffer reservation of at
  /// least `rows` rows and never below BufferCapacityRows(), and
  /// warm-seed storage. A no-op once both have their size. Shrink calls
  /// it first, so the shrink paths themselves are DMT_NO_ALLOC, and a
  /// batch Merge calls it once with its stacked row count.
  void EnsureShrinkWorkspace(size_t rows);

  void ShrinkIfNeeded();
  void Shrink();
  /// One shrink through the eigensolver. `basis_size` 0 lets the solver
  /// pick Krylov or its dense route from the shape; dim_ forces the
  /// dense route. Returns false, with the buffer untouched, when a
  /// Krylov solve missed its residual test. A dense solve is applied as
  /// computed: it only reports unconverged on non-finite rows.
  bool ShrinkLanczos(size_t basis_size);
  /// The last solve's cutoff delta = lambda_{ell+1} (0 when ell >= d).
  double ShrinkCutoff() const;

  size_t ell_;
  size_t dim_;
  linalg::Matrix buffer_;  // up to 2*ell_ rows between public calls
  double stream_sq_frob_ = 0.0;
  double total_shrinkage_ = 0.0;
  size_t shrink_count_ = 0;
  FdShrinkBackend backend_;
  size_t lanczos_fallbacks_ = 0;

  // --- Eigensolver state (allocated lazily on first use) ---
  linalg::LanczosSolver eigensolver_;
  std::vector<double> eigenvalues_;   // top ell+1, descending
  linalg::Matrix eigenvectors_;       // (ell+1) x d eigenvector rows
  std::vector<double> warm_seed_;     // previous shrink's leading vector
  bool warm_seed_valid_ = false;      // warm_seed_ holds a real eigenvector
  // buffer_ is exactly the last shrink's output, built from a converged
  // solve whose pairs are still in eigenvalues_ / eigenvectors_.
  bool factored_ = false;
};

}  // namespace sketch
}  // namespace dmt

#endif  // DMT_SKETCH_FREQUENT_DIRECTIONS_H_
