#include "matrix/mp1_batched_fd.h"

#include <utility>

#include "linalg/vec_ops.h"
#include "util/check.h"

namespace dmt {
namespace matrix {

MP1BatchedFD::MP1BatchedFD(size_t num_sites, double eps)
    : eps_(eps),
      network_(num_sites),
      coordinator_sketch_(sketch::FrequentDirections::WithEpsilon(eps / 2)) {
  DMT_CHECK_GT(eps, 0.0);
  DMT_CHECK_LE(eps, 1.0);
  site_sketches_.reserve(num_sites);
  for (size_t i = 0; i < num_sites; ++i) {
    site_sketches_.push_back(
        sketch::FrequentDirections::WithEpsilon(eps / 2));
  }
  site_frob_.assign(num_sites, 0.0);
  site_fest_.assign(num_sites, 0.0);
  outbox_.resize(num_sites);
}

void MP1BatchedFD::SiteUpdate(size_t site, const std::vector<double>& row) {
  DMT_CHECK_LT(site, site_sketches_.size());
  site_sketches_[site].Append(row);
  site_frob_[site] += linalg::SquaredNorm(row);

  const double m = static_cast<double>(network_.num_sites());
  // site_fest_ is the F-hat of the last broadcast the site has seen; it
  // only changes in a drain, so this read is round-stable.
  const double tau = (eps_ / (2.0 * m)) * site_fest_[site];
  if (site_frob_[site] >= tau) EmitFlush(site);
}

void MP1BatchedFD::EmitFlush(size_t site) {
  sketch::FrequentDirections& sk = site_sketches_[site];
  // Each sketch row travels as one vector message; the scalar F_i
  // piggybacks on the batch (the paper's Algorithm 5.1 sends "(B_i, F_i)"
  // as one payload of |B_i| rows). An empty sketch still costs the scalar.
  for (size_t r = 0; r < sk.rows(); ++r) network_.RecordVector(site);
  if (sk.rows() == 0) network_.RecordScalar(site);

  const size_t dim = sk.dim();
  outbox_[site].push_back(PendingFlush{std::move(sk), site_frob_[site]});
  sk = sketch::FrequentDirections::WithEpsilon(eps_ / 2, dim);
  site_frob_[site] = 0.0;
}

void MP1BatchedFD::SynchronizeSites(const uint32_t* sites, size_t count) {
  // F_C and the F-hat broadcasts depend only on the Frobenius sums, so
  // they run flush by flush as in Algorithm 5.2; the sketches merge as
  // one batch, which shrinks at most once instead of once per flush that
  // crosses 2*ell rows.
  merge_batch_.clear();
  for (size_t i = 0; i < count; ++i) {
    for (const PendingFlush& flush : outbox_[sites[i]]) {
      coordinator_frob_ += flush.frob;
      if (broadcast_frob_ == 0.0 ||
          coordinator_frob_ / broadcast_frob_ > 1.0 + eps_ / 2.0) {
        broadcast_frob_ = coordinator_frob_;
        network_.RecordBroadcast();
        network_.RecordRound();
        for (auto& f : site_fest_) f = broadcast_frob_;
      }
      merge_batch_.push_back(&flush.sketch);
    }
  }
  coordinator_sketch_.Merge(merge_batch_.data(), merge_batch_.size());
  // Only now: the batch points into the outboxes.
  for (size_t i = 0; i < count; ++i) outbox_[sites[i]].clear();
}

void MP1BatchedFD::DrainSite(size_t site) {
  const uint32_t one = static_cast<uint32_t>(site);
  SynchronizeSites(&one, 1);
}

linalg::Matrix MP1BatchedFD::CoordinatorSketch() const {
  return coordinator_sketch_.sketch();
}

bool MP1BatchedFD::ExportSnapshotFactors(
    linalg::Matrix* sketch, linalg::RightSingular* factors) const {
  *sketch = coordinator_sketch_.sketch();
  return coordinator_sketch_.FactoredSketch(factors);
}

const stream::CommStats& MP1BatchedFD::comm_stats() const {
  return network_.stats();
}

}  // namespace matrix
}  // namespace dmt
