#include "hh/p1_batched_mg.h"

#include <utility>

#include "util/check.h"

namespace dmt {
namespace hh {

P1BatchedMG::P1BatchedMG(size_t num_sites, double eps)
    : eps_(eps),
      network_(num_sites),
      coordinator_summary_(sketch::WeightedMisraGries::WithEpsilon(eps / 2)) {
  DMT_CHECK_GT(eps, 0.0);
  DMT_CHECK_LE(eps, 1.0);
  site_summaries_.reserve(num_sites);
  for (size_t i = 0; i < num_sites; ++i) {
    site_summaries_.push_back(
        sketch::WeightedMisraGries::WithEpsilon(eps / 2));
  }
  site_weight_.assign(num_sites, 0.0);
  site_west_.assign(num_sites, 0.0);
  outbox_.resize(num_sites);
}

void P1BatchedMG::SiteUpdate(size_t site, uint64_t element, double weight) {
  DMT_CHECK_LT(site, site_summaries_.size());
  DMT_CHECK_GT(weight, 0.0);
  site_summaries_[site].Update(element, weight);
  site_weight_[site] += weight;

  const double m = static_cast<double>(network_.num_sites());
  // site_west_ is the W-hat from the last broadcast the site has seen; it
  // only changes in a drain, so this read is round-stable.
  const double tau = (eps_ / (2.0 * m)) * site_west_[site];
  // Before the first broadcast tau is 0 and every item triggers a flush;
  // this is the bootstrap the paper leaves implicit.
  if (site_weight_[site] >= tau) EmitFlush(site);
}

void P1BatchedMG::EmitFlush(size_t site) {
  // Message cost: every live counter travels as an (element, weight) pair;
  // the scalar W_i piggybacks on the batch (Algorithm 4.1 ships "(G_i,
  // W_i)" as one payload). An empty summary still costs the scalar.
  for (size_t c = 0; c < site_summaries_[site].size(); ++c) {
    network_.RecordElement(site);
  }
  if (site_summaries_[site].size() == 0) network_.RecordScalar(site);

  // Move, don't copy: Clear() below fully re-initializes the moved-from
  // summary (k is untouched by the move; counters/weights are reset).
  outbox_[site].push_back(
      PendingFlush{std::move(site_summaries_[site]), site_weight_[site]});
  site_summaries_[site].Clear();
  site_weight_[site] = 0.0;
}

void P1BatchedMG::ApplyFlush(const PendingFlush& flush) {
  coordinator_summary_.Merge(flush.summary);
  coordinator_weight_ += flush.weight;

  if (broadcast_weight_ == 0.0 ||
      coordinator_weight_ / broadcast_weight_ > 1.0 + eps_ / 2.0) {
    broadcast_weight_ = coordinator_weight_;
    network_.RecordBroadcast();
    network_.RecordRound();
    for (auto& w : site_west_) w = broadcast_weight_;
  }
}

void P1BatchedMG::DrainSite(size_t site) {
  for (const PendingFlush& flush : outbox_[site]) ApplyFlush(flush);
  outbox_[site].clear();
}

std::vector<P1BatchedMG::PendingFlush> P1BatchedMG::TakePendingFlushes(
    size_t site) {
  DMT_CHECK_LT(site, outbox_.size());
  std::vector<PendingFlush> out = std::move(outbox_[site]);
  outbox_[site].clear();
  return out;
}

void P1BatchedMG::DeliverFlush(size_t site, const PendingFlush& flush) {
  DMT_CHECK_LT(site, site_summaries_.size());
  // Accounting happens at delivery on the coordinator's instance — the
  // mirror image of EmitFlush, which accounts at emission on the site's
  // instance. The tally sees the same messages either way, so the wire
  // coordinator's CommStats matches the in-process oracle's.
  for (size_t c = 0; c < flush.summary.size(); ++c) {
    network_.RecordElement(site);
  }
  if (flush.summary.size() == 0) network_.RecordScalar(site);
  ApplyFlush(flush);
}

void P1BatchedMG::SetSiteBroadcastWeight(size_t site, double west) {
  DMT_CHECK_LT(site, site_west_.size());
  site_west_[site] = west;
}

double P1BatchedMG::EstimateElementWeight(uint64_t element) const {
  return coordinator_summary_.Estimate(element);
}

double P1BatchedMG::EstimateTotalWeight() const {
  return coordinator_weight_;
}

const stream::CommStats& P1BatchedMG::comm_stats() const {
  return network_.stats();
}

std::vector<uint64_t> P1BatchedMG::TrackedElements() const {
  std::vector<uint64_t> out;
  for (const auto& [e, w] : coordinator_summary_.Items()) out.push_back(e);
  return out;
}

}  // namespace hh
}  // namespace dmt
