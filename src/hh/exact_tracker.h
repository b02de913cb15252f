// Exact baseline: every element is forwarded to the coordinator.
//
// Zero error, Theta(N) messages — the reference point the paper's
// "baseline ... would have no error" refers to in Section 6.1.
#ifndef DMT_HH_EXACT_TRACKER_H_
#define DMT_HH_EXACT_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hh/hh_protocol.h"
#include "stream/network.h"

namespace dmt {
namespace hh {

/// Forward-everything exact tracker.
class ExactTracker : public HeavyHitterProtocol {
 public:
  explicit ExactTracker(size_t num_sites);

  void SiteUpdate(size_t site, uint64_t element, double weight) override;
  size_t PendingOutboxSize(size_t site) const override {
    return outbox_[site].size();
  }
  double EstimateElementWeight(uint64_t element) const override;
  double EstimateTotalWeight() const override;
  const stream::CommStats& comm_stats() const override;
  std::vector<uint64_t> per_site_messages() const override {
    return network_.per_site_up();
  }
  std::string name() const override { return "Exact"; }
  std::vector<uint64_t> TrackedElements() const override;

 private:
  /// Delivers one site's queued forwards in emission order.
  void DrainSite(size_t site) override;

  stream::Network network_;
  // Per-site queue of forwarded (element, weight) pairs.
  std::vector<std::vector<std::pair<uint64_t, double>>> outbox_;
  std::unordered_map<uint64_t, double> weights_;
  double total_ = 0.0;
};

}  // namespace hh
}  // namespace dmt

#endif  // DMT_HH_EXACT_TRACKER_H_
