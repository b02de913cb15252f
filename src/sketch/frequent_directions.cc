#include "sketch/frequent_directions.h"

#include <algorithm>
#include <cmath>

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
      GetEnvString("DMT_FD_BACKEND", "lanczos") == "dense"
          ? FdShrinkBackend::kDense
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
  if (backend_ == FdShrinkBackend::kLanczos) {
    if (ShrinkLanczos(0)) return;
    ++lanczos_fallbacks_;  // rerun on the same, untouched rows
  }
  ShrinkLanczos(dim_);
}

DMT_NO_ALLOC
bool FrequentDirections::ShrinkLanczos(size_t basis_size) {
  const size_t d = dim_;
  const size_t k = std::min(ell_ + 1, d);

  linalg::LanczosOptions opts;
  opts.tol = 1e-11;
  opts.basis_size = basis_size;
  if (warm_seed_valid_) opts.seed = warm_seed_.data();

  // The solver picks the operator (rows, Gram or the dense route) from
  // the buffer's shape and basis_size.
  const linalg::LanczosInfo info =
      eigensolver_.TopKOfRows(buffer_, k, &eigenvalues_, &eigenvectors_, opts);
  if (!info.converged && basis_size != d) return false;

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
  return true;
}

double FrequentDirections::SquaredNormAlong(
    const std::vector<double>& x) const {
  if (buffer_.rows() == 0) return 0.0;
  return buffer_.SquaredNormAlong(x);
}

}  // namespace sketch
}  // namespace dmt
