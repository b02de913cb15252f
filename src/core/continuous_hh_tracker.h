// Public facade: continuous distributed weighted heavy hitters.
//
//   dmt::HhTrackerConfig cfg;
//   cfg.num_sites = 50;
//   cfg.epsilon = 1e-3;
//   cfg.protocol = "p2";
//   dmt::ContinuousHeavyHitterTracker tracker(cfg);
//   tracker.Observe(site, element, weight);
//   auto hh = tracker.HeavyHitters(0.05);  // phi-heavy hitters, any time
#ifndef DMT_CORE_CONTINUOUS_HH_TRACKER_H_
#define DMT_CORE_CONTINUOUS_HH_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "hh/hh_protocol.h"

namespace dmt {
namespace stream {
class SimulationDriver;
struct WeightedUpdate;
}  // namespace stream

/// Continuous distributed weighted heavy-hitter tracker.
class ContinuousHeavyHitterTracker {
 public:
  explicit ContinuousHeavyHitterTracker(const HhTrackerConfig& config);
  ~ContinuousHeavyHitterTracker();

  ContinuousHeavyHitterTracker(const ContinuousHeavyHitterTracker&) = delete;
  ContinuousHeavyHitterTracker& operator=(
      const ContinuousHeavyHitterTracker&) = delete;

  /// Feeds one weighted element observed at `site`. `weight` > 0; the
  /// paper's analysis assumes weights in [1, beta].
  void Observe(size_t site, uint64_t element, double weight);

  /// Feeds a batch of weighted elements through the parallel simulation
  /// driver: items[i] arrives at sites[i]. Deterministic for a fixed
  /// driver configuration regardless of thread count.
  void ObserveBatch(stream::SimulationDriver* driver,
                    const std::vector<size_t>& sites,
                    const std::vector<stream::WeightedUpdate>& items);

  /// Estimate of element's cumulative weight.
  double EstimateWeight(uint64_t element) const;

  /// Estimate of the total stream weight W.
  double EstimateTotalWeight() const;

  /// The phi-heavy hitters under the paper's report rule
  /// (estimate/total >= phi - eps/2).
  std::vector<uint64_t> HeavyHitters(double phi) const;

  /// Messages used so far.
  const stream::CommStats& comm_stats() const;

  /// Items observed so far across all sites.
  size_t items_seen() const { return items_seen_; }

  std::string protocol_name() const;

  const HhTrackerConfig& config() const { return config_; }

 private:
  HhTrackerConfig config_;
  std::unique_ptr<hh::HeavyHitterProtocol> protocol_;
  size_t items_seen_ = 0;
};

}  // namespace dmt

#endif  // DMT_CORE_CONTINUOUS_HH_TRACKER_H_
