#include "sketch/frequent_directions.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "linalg/jacobi_eigen.h"
#include "linalg/kernels.h"
#include "linalg/vec_ops.h"
#include "util/check.h"
#include "util/contracts.h"
#include "util/env.h"

namespace dmt {
namespace sketch {

FrequentDirections::FrequentDirections(size_t ell, size_t dim)
    : ell_(ell), dim_(dim), backend_(DefaultShrinkBackend()) {
  DMT_CHECK_GE(ell, 1u);
}

FdShrinkBackend FrequentDirections::DefaultShrinkBackend() {
  static const FdShrinkBackend def =
      GetEnvString("DMT_FD_BACKEND", "lanczos") == "jacobi"
          ? FdShrinkBackend::kJacobi
          : FdShrinkBackend::kLanczos;
  return def;
}

FrequentDirections FrequentDirections::WithEpsilon(double eps, size_t dim) {
  DMT_CHECK_GT(eps, 0.0);
  return FrequentDirections(static_cast<size_t>(std::ceil(1.0 / eps)), dim);
}

void FrequentDirections::Append(const std::vector<double>& row) {
  Append(row.data(), row.size());
}

void FrequentDirections::Append(const double* row, size_t n) {
  if (dim_ == 0) dim_ = n;
  DMT_CHECK_EQ(n, dim_);
  buffer_.AppendRow(row, n);
  stream_sq_frob_ += linalg::SquaredNorm(row, n);
  ShrinkIfNeeded();
}

void FrequentDirections::AppendRows(const linalg::Matrix& rows) {
  if (rows.rows() == 0) return;
  if (dim_ == 0) dim_ = rows.cols();
  DMT_CHECK_EQ(rows.cols(), dim_);
  // Self-alias guard (same as Merge): appending from our own buffer while
  // it grows and shrinks would read through dangling row pointers.
  linalg::Matrix self_copy;
  const linalg::Matrix* src = &rows;
  if (&rows == &buffer_) {
    self_copy = buffer_;
    src = &self_copy;
  }
  // Bulk path: fill the buffer to its full capacity between shrinks, so a
  // block of n rows costs ~n / (capacity - ell) shrinks instead of the
  // row-at-a-time n / ell. The FD guarantee is unaffected: each shrink's
  // cutoff is the (ell+1)-th eigenvalue of whatever buffer it compresses,
  // and errors remain additive across shrinks.
  const size_t cap = BufferCapacityRows();
  const size_t n = src->rows();
  for (size_t i = 0; i < n; ++i) {
    if (buffer_.rows() >= cap) Shrink();
    buffer_.AppendRow(src->Row(i), dim_);
    stream_sq_frob_ += linalg::SquaredNorm(src->Row(i), dim_);
  }
  ShrinkIfNeeded();  // restore the < 2*ell streaming invariant
}

void FrequentDirections::Merge(const FrequentDirections& other) {
  DMT_CHECK_EQ(ell_, other.ell_);
  if (other.dim_ == 0) return;
  if (dim_ == 0) dim_ = other.dim_;
  DMT_CHECK_EQ(dim_, other.dim_);
  // Bulk-append the other sketch's rows, then shrink once. One shrink of
  // the (at most 4*ell-row) combined buffer restores the <= 2*ell
  // invariant, versus up to one shrink per ell_ appended rows on the
  // row-at-a-time path. The FD guarantee is unaffected: errors are
  // additive under merge and the single shrink's cutoff is accounted in
  // total_shrinkage_ as usual.
  //
  // Snapshots first: self-merge aliases other's counters with ours, and
  // ShrinkIfNeeded may bump total_shrinkage_. Matrix::AppendRows handles
  // the aliased-buffer case itself.
  const double other_sq_frob = other.stream_sq_frob_;
  const double other_shrinkage = other.total_shrinkage_;
  buffer_.AppendRows(other.buffer_);
  ShrinkIfNeeded();
  stream_sq_frob_ += other_sq_frob;
  total_shrinkage_ += other_shrinkage;
}

void FrequentDirections::ShrinkIfNeeded() {
  if (buffer_.rows() >= 2 * ell_) Shrink();
}

void FrequentDirections::Compress() {
  if (buffer_.rows() > ell_) Shrink();
}

DMT_ALLOC_OK("one-time Jacobi-path workspace setup, gated on jacobi_ready_")
void FrequentDirections::EnsureJacobiWorkspace() {
  if (jacobi_ready_) return;
  DMT_CHECK_GT(dim_, 0u);
  basis_ = linalg::Matrix(dim_, dim_);
  gram_work_ = linalg::Matrix(dim_, dim_);
  basis_work_ = linalg::Matrix(dim_, dim_);
  rotated_ = linalg::Matrix(0, dim_);
  rotated_.ReserveRows(BufferCapacityRows());
  diag_.assign(dim_, 0.0);
  order_.resize(dim_);
  jacobi_ready_ = true;
}

DMT_ALLOC_OK("one-time shrink workspace setup; no-op once buffer and seed have the sketch's shape")
void FrequentDirections::EnsureShrinkWorkspace() {
  buffer_.ReserveRows(BufferCapacityRows());
  if (warm_seed_.size() != dim_) {
    warm_seed_.assign(dim_, 0.0);
    warm_seed_valid_ = false;
  }
}

DMT_NO_ALLOC
void FrequentDirections::Shrink() {
  ++shrink_count_;
  DMT_CHECK_GT(dim_, 0u);
  EnsureShrinkWorkspace();
  if (backend_ == FdShrinkBackend::kJacobi) {
    ShrinkJacobi();
    return;
  }
  if (!ShrinkLanczos()) {
    // Residual tolerance missed (adversarial seed/spectrum): rerun this
    // shrink on the exact reference path. The buffer is untouched until a
    // Lanczos solve succeeds, so the rerun sees the same rows.
    ++lanczos_fallbacks_;
    ShrinkJacobi();
  }
}

DMT_NO_ALLOC
bool FrequentDirections::ShrinkLanczos() {
  const size_t d = dim_;
  const size_t k = std::min(ell_ + 1, d);

  linalg::LanczosOptions opts;
  opts.tol = 1e-11;
  if (warm_seed_valid_) opts.seed = warm_seed_.data();

  // The solver picks the operator (rows, Gram or the dense route) from
  // the buffer's shape.
  const linalg::LanczosInfo info =
      eigensolver_.TopKOfRows(buffer_, k, &eigenvalues_, &eigenvectors_, opts);
  if (!info.converged) return false;

  const double delta =
      ell_ < d ? std::max(0.0, eigenvalues_[ell_]) : 0.0;
  total_shrinkage_ += delta;

  size_t kept = 0;
  for (size_t i = 0; i < ell_ && i < d; ++i) {
    if (eigenvalues_[i] - delta <= 0.0) break;  // sorted descending
    kept = i + 1;
  }

  // Warm seed for the next shrink, captured before the rebuild below
  // (storage pre-sized by EnsureShrinkWorkspace, so this never allocates).
  std::copy(eigenvectors_.Row(0), eigenvectors_.Row(0) + d,
            warm_seed_.begin());
  warm_seed_valid_ = true;

  for (size_t i = 0; i < kept; ++i) {
    // Clamp before the sqrt: near-tied lambda_ell ~ lambda_{ell+1} can
    // leave the difference a roundoff hair negative.
    const double lam = std::max(0.0, eigenvalues_[i] - delta);
    const double scale = std::sqrt(lam);
    const double* v = eigenvectors_.Row(i);
    double* row = buffer_.Row(i);
    for (size_t j = 0; j < d; ++j) row[j] = scale * v[j];
  }
  buffer_.ResizeRows(kept);
  jacobi_warm_valid_ = false;  // kept rows are no longer basis_ columns
  return true;
}

DMT_NO_ALLOC
void FrequentDirections::ShrinkJacobi() {
  EnsureJacobiWorkspace();
  if (!jacobi_warm_valid_) {
    // Cold start: no rows are pre-diagonalized, the rotation basis is
    // fresh. The warm machinery below then rotates every buffer row in.
    basis_.SetZero();
    for (size_t i = 0; i < dim_; ++i) basis_(i, i) = 1.0;
    gram_work_.SetZero();
    kept_rows_ = 0;
    jacobi_warm_valid_ = true;
  }
  const size_t d = dim_;
  const size_t n = buffer_.rows();

  // Invariant on entry: buffer rows [0, kept_rows_) are exact scaled
  // eigenvectors of basis_, so their Gram in that basis is the diagonal
  // already stored in gram_work_. Only the rows appended since the last
  // shrink need to be rotated in: one blocked GEMM (R = New * V) plus one
  // blocked symmetric accumulation (G += R^T R).
  const size_t nn = n - kept_rows_;
  if (nn > 0) {
    rotated_.ResizeRows(nn);
    linalg::kernels::Gemm(buffer_.Row(kept_rows_), basis_.Row(0),
                          rotated_.Row(0), nn, d, d);
    linalg::kernels::GramAccumulate(rotated_.Row(0), nn, d,
                                    gram_work_.Row(0));
  }

  // Warm-started cyclic Jacobi: the kept block is already diagonal, so
  // only couplings introduced by the new rows cost rotations. basis_
  // absorbs the rotations and stays the full eigenbasis.
  linalg::JacobiDiagonalizeInPlace(&gram_work_, &basis_);

  for (size_t i = 0; i < d; ++i) diag_[i] = gram_work_(i, i);
  std::iota(order_.begin(), order_.end(), size_t{0});
  std::sort(order_.begin(), order_.end(), [this](size_t x, size_t y) {
    // Index tie-break keeps the permutation deterministic under std::sort.
    if (diag_[x] != diag_[y]) return diag_[x] > diag_[y];
    return x < y;
  });

  // Cutoff: the (ell+1)-th largest eigenvalue of B^T B, clamped at 0
  // (trailing eigenvalues of a rank-deficient Gram are roundoff noise).
  const double delta =
      ell_ < d ? std::max(0.0, diag_[order_[ell_]]) : 0.0;
  total_shrinkage_ += delta;

  size_t kept = 0;
  for (size_t i = 0; i < ell_ && i < d; ++i) {
    if (diag_[order_[i]] - delta <= 0.0) break;  // sorted descending
    kept = i + 1;
  }

  // Rebuild the surviving rows in place: row i = sqrt(lambda_i - delta)
  // times eigenvector order_[i]. Safe because kept <= ell < n and the
  // source is basis_, not the buffer. The max() clamps the subtraction
  // against roundoff-negative differences (near-tied lambda_ell ~
  // lambda_{ell+1}) that would otherwise sqrt into NaN.
  for (size_t i = 0; i < kept; ++i) {
    const double scale = std::sqrt(std::max(0.0, diag_[order_[i]] - delta));
    const size_t c = order_[i];
    double* row = buffer_.Row(i);
    for (size_t j = 0; j < d; ++j) row[j] = scale * basis_(j, c);
  }
  buffer_.ResizeRows(kept);

  // Re-establish the invariant for the next warm start: permute the basis
  // columns into eigenvalue order (row i <-> column i) and store the
  // shrunk spectrum as the new diagonal Gram.
  for (size_t r = 0; r < d; ++r) {
    const double* src = basis_.Row(r);
    double* dst = basis_work_.Row(r);
    for (size_t i = 0; i < d; ++i) dst[i] = src[order_[i]];
  }
  std::swap(basis_, basis_work_);
  gram_work_.SetZero();
  for (size_t i = 0; i < kept; ++i) {
    gram_work_(i, i) = std::max(0.0, diag_[order_[i]] - delta);
  }
  kept_rows_ = kept;

  // Keep the Lanczos warm seed fresh too, so switching backends
  // mid-stream still warm-starts (column 0 of the permuted basis is the
  // leading eigenvector; storage pre-sized by EnsureShrinkWorkspace).
  for (size_t r = 0; r < d; ++r) warm_seed_[r] = basis_(r, 0);
  warm_seed_valid_ = true;
}

double FrequentDirections::SquaredNormAlong(
    const std::vector<double>& x) const {
  if (buffer_.rows() == 0) return 0.0;
  return buffer_.SquaredNormAlong(x);
}

}  // namespace sketch
}  // namespace dmt
