#include "core/continuous_hh_tracker.h"

#include "core/registry.h"
#include "stream/simulation_driver.h"
#include "util/check.h"

namespace dmt {

ContinuousHeavyHitterTracker::ContinuousHeavyHitterTracker(
    const HhTrackerConfig& config)
    : config_(config) {
  DMT_CHECK_GE(config.num_sites, 1u);
  protocol_ = MakeHhProtocol(config.protocol, config);
  DMT_CHECK(protocol_ != nullptr);
}

ContinuousHeavyHitterTracker::~ContinuousHeavyHitterTracker() = default;

void ContinuousHeavyHitterTracker::Observe(size_t site, uint64_t element,
                                           double weight) {
  DMT_CHECK_LT(site, config_.num_sites);
  protocol_->Process(site, element, weight);
  ++items_seen_;
}

void ContinuousHeavyHitterTracker::ObserveBatch(
    stream::SimulationDriver* driver, const std::vector<size_t>& sites,
    const std::vector<stream::WeightedUpdate>& items) {
  for (size_t site : sites) DMT_CHECK_LT(site, config_.num_sites);
  driver->Run(protocol_.get(), sites, items);
  items_seen_ += items.size();
}

double ContinuousHeavyHitterTracker::EstimateWeight(uint64_t element) const {
  return protocol_->EstimateElementWeight(element);
}

double ContinuousHeavyHitterTracker::EstimateTotalWeight() const {
  return protocol_->EstimateTotalWeight();
}

std::vector<uint64_t> ContinuousHeavyHitterTracker::HeavyHitters(
    double phi) const {
  return protocol_->HeavyHitters(phi, config_.epsilon);
}

const stream::CommStats& ContinuousHeavyHitterTracker::comm_stats() const {
  return protocol_->comm_stats();
}

std::string ContinuousHeavyHitterTracker::protocol_name() const {
  return protocol_->name();
}

}  // namespace dmt
