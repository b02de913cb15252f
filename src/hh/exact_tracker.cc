#include "hh/exact_tracker.h"

namespace dmt {
namespace hh {

ExactTracker::ExactTracker(size_t num_sites)
    : network_(num_sites), outbox_(num_sites) {}

void ExactTracker::SiteUpdate(size_t site, uint64_t element, double weight) {
  network_.RecordElement(site);
  outbox_[site].emplace_back(element, weight);
}

void ExactTracker::DrainSite(size_t site) {
  for (const auto& [element, weight] : outbox_[site]) {
    weights_[element] += weight;
    total_ += weight;
  }
  outbox_[site].clear();
}

double ExactTracker::EstimateElementWeight(uint64_t element) const {
  auto it = weights_.find(element);
  return it == weights_.end() ? 0.0 : it->second;
}

double ExactTracker::EstimateTotalWeight() const { return total_; }

const stream::CommStats& ExactTracker::comm_stats() const {
  return network_.stats();
}

std::vector<uint64_t> ExactTracker::TrackedElements() const {
  std::vector<uint64_t> out;
  out.reserve(weights_.size());
  for (const auto& [e, w] : weights_) out.push_back(e);
  return out;
}

}  // namespace hh
}  // namespace dmt
