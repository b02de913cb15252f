#include "sketch/frequent_directions.h"

#include <algorithm>
#include <cmath>

#include "linalg/vec_ops.h"
#include "util/check.h"
#include "util/contracts.h"
#include "util/env.h"

namespace dmt {
namespace sketch {
namespace {

// A kept eigenvalue after the shrink, lambda - delta clamped at 0 (a
// near-tied lambda_ell ~ lambda_{ell+1} can leave the difference a
// roundoff hair negative). The row rebuild and FactoredSketch share it,
// so each reported sigma^2 has exactly its row's scale as square root.
double ShrunkEigenvalue(double lambda, double delta) {
  return std::max(0.0, lambda - delta);
}

}  // namespace

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
  factored_ = false;
  stream_sq_frob_ += linalg::SquaredNorm(row, n);
  ShrinkIfNeeded();
}

void FrequentDirections::AppendRows(const linalg::Matrix& rows) {
  if (rows.rows() == 0) return;
  if (dim_ == 0) dim_ = rows.cols();
  DMT_CHECK_EQ(rows.cols(), dim_);
  // Self-alias guard (same as Merge): appending from our own buffer while
  // it grows and shrinks would read through dangling row pointers.
  if (&rows == &buffer_) {
    const linalg::Matrix self_copy = buffer_;
    AppendRows(self_copy);
    return;
  }
  // Fill the buffer to its full capacity between shrinks, so a block of n
  // rows costs ~n / (capacity - ell) shrinks instead of the row-at-a-time
  // n / ell. Each shrink's cutoff is the (ell+1)-th eigenvalue of
  // whatever buffer it compresses, and errors remain additive across
  // shrinks.
  const size_t cap = BufferCapacityRows();
  const size_t n = rows.rows();
  size_t i = 0;
  while (i < n) {
    if (buffer_.rows() >= cap) Shrink();
    const size_t take = std::min(n - i, cap - buffer_.rows());
    buffer_.AppendRows(rows.Row(i), take, dim_);
    factored_ = false;
    for (size_t r = i; r < i + take; ++r) {
      stream_sq_frob_ += linalg::SquaredNorm(rows.Row(r), dim_);
    }
    i += take;
  }
  ShrinkIfNeeded();  // restore the < 2*ell streaming invariant
}

void FrequentDirections::Merge(const FrequentDirections& other) {
  const FrequentDirections* batch = &other;
  Merge(&batch, 1);
}

void FrequentDirections::Merge(const FrequentDirections* const* others,
                               size_t count) {
  // Snapshots first: `this` may be in the batch (even twice), and the
  // appends below grow our buffer.
  double merged_sq_frob = stream_sq_frob_;
  double merged_shrinkage = 0.0;
  size_t stacked = buffer_.rows();
  linalg::Matrix self_copy;
  for (size_t i = 0; i < count; ++i) {
    const FrequentDirections& other = *others[i];
    DMT_CHECK_EQ(ell_, other.ell_);
    if (other.dim_ == 0) continue;
    if (dim_ == 0) dim_ = other.dim_;
    DMT_CHECK_EQ(dim_, other.dim_);
    merged_sq_frob += other.stream_sq_frob_;
    merged_shrinkage += other.total_shrinkage_;
    stacked += other.rows();
    if (&other == this) self_copy = buffer_;
  }
  // A merge is one shrink of the stacked rows [Agarwal et al. 2012]: every
  // part's rows land behind the kept ones in batch order, and one shrink
  // at the end restores the < 2*ell invariant. A batch of one never holds
  // 4*ell rows (both sides hold < 2*ell), so it shrinks as AppendRows of
  // the part's rows would.
  if (stacked > buffer_.rows()) EnsureShrinkWorkspace(stacked);
  for (size_t i = 0; i < count; ++i) {
    const FrequentDirections& other = *others[i];
    const linalg::Matrix& rows = &other == this ? self_copy : other.buffer_;
    if (rows.rows() == 0) continue;
    buffer_.AppendRows(rows.Row(0), rows.rows(), dim_);
    factored_ = false;
  }
  ShrinkIfNeeded();
  stream_sq_frob_ = merged_sq_frob;
  total_shrinkage_ += merged_shrinkage;
}

void FrequentDirections::ShrinkIfNeeded() {
  if (buffer_.rows() >= 2 * ell_) Shrink();
}

void FrequentDirections::Compress() {
  if (buffer_.rows() > ell_) Shrink();
}

DMT_ALLOC_OK("shrink workspace setup; no-op once the buffer holds the largest batch and the seed has the sketch's shape")
void FrequentDirections::EnsureShrinkWorkspace(size_t rows) {
  if (buffer_.cols() == 0) buffer_ = linalg::Matrix(0, dim_);
  buffer_.ReserveRows(std::max(rows, BufferCapacityRows()));
  if (warm_seed_.size() != dim_) {
    warm_seed_.assign(dim_, 0.0);
    warm_seed_valid_ = false;
  }
}

DMT_NO_ALLOC
void FrequentDirections::Shrink() {
  ++shrink_count_;
  DMT_CHECK_GT(dim_, 0u);
  EnsureShrinkWorkspace(buffer_.rows());
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
  // The pairs just overwritten factor the rows rebuilt below only when
  // the solve converged; a failed Krylov solve leaves the rows as they
  // were, and they held appended rows anyway.
  factored_ = info.converged;
  if (!info.converged && basis_size != d) return false;

  const double delta = ShrinkCutoff();
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
    const double scale = std::sqrt(ShrunkEigenvalue(eigenvalues_[i], delta));
    const double* v = eigenvectors_.Row(i);
    double* row = buffer_.Row(i);
    for (size_t j = 0; j < d; ++j) row[j] = scale * v[j];
  }
  buffer_.ResizeRows(kept);
  return true;
}

double FrequentDirections::ShrinkCutoff() const {
  return ell_ < dim_ ? std::max(0.0, eigenvalues_[ell_]) : 0.0;
}

bool FrequentDirections::FactoredSketch(linalg::RightSingular* out) const {
  if (!factored_) return false;
  const size_t r = buffer_.rows();  // the shrink's `kept`
  DMT_CHECK_LE(r, eigenvectors_.rows());
  const double delta = ShrinkCutoff();
  out->squared_sigma.resize(r);
  out->v = linalg::Matrix(dim_, r);
  for (size_t i = 0; i < r; ++i) {
    out->squared_sigma[i] = ShrunkEigenvalue(eigenvalues_[i], delta);
    const double* v = eigenvectors_.Row(i);
    for (size_t j = 0; j < dim_; ++j) out->v(j, i) = v[j];
  }
  return true;
}

double FrequentDirections::SquaredNormAlong(
    const std::vector<double>& x) const {
  if (buffer_.rows() == 0) return 0.0;
  return buffer_.SquaredNormAlong(x);
}

}  // namespace sketch
}  // namespace dmt
