// Protocol P3: sampling-based trackers (paper Algorithms 4.5 / 4.6 and the
// with-replacement variant of Section 4.3.1).
//
// Without replacement (P3wor): sites forward an item when its priority
// rho = w / Unif(0,1] reaches the global threshold tau. The coordinator
// buckets arrivals into Q_cur (tau <= rho < 2 tau) and Q_next (rho >= 2
// tau); when |Q_next| reaches s it doubles tau, broadcasts it, discards
// Q_cur and re-partitions. The pool Q_cur + Q_next is at all times exactly
// {items with rho >= tau}, i.e. a priority sample, from which subset-sum
// estimates use adjusted weights max(w, rho_min).
//
// With replacement (P3wr): s independent single-item priority samplers.
// Each site conceptually draws s priorities per item and forwards the
// successes; we simulate the identical distribution with geometric skips
// so the cost is proportional to the number of *sent* messages, not s*N.
// The coordinator keeps the top-2 priorities per sampler; a round ends
// when every second-highest priority exceeds 2 tau.
#ifndef DMT_HH_P3_SAMPLING_H_
#define DMT_HH_P3_SAMPLING_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hh/hh_protocol.h"
#include "stream/network.h"
#include "util/rng.h"

namespace dmt {
namespace hh {

/// Returns the paper's sample size s = Theta((1/eps^2) log(1/eps)).
size_t SampleSizeForEpsilon(double eps);

/// One sampled stream item.
struct PriorityEntry {
  uint64_t element = 0;
  double weight = 0.0;   // original weight
  double priority = 0.0;
};

/// Priority sampling's estimate [Duffield, Lund, Thorup, JACM 2007]:
/// given sampled entries *including* the threshold item (the smallest
/// priority in the pool, which acts as tau and is excluded from the
/// estimate), returns per-entry adjusted weights max(w_i, tau) for the
/// remaining entries, in the same order (threshold item removed). Every
/// subset-sum estimate over the result is unbiased. A pool of at most one
/// entry yields an empty result (no estimate is possible).
std::vector<PriorityEntry> AdjustedSample(std::vector<PriorityEntry> entries);

/// Without-replacement sampling protocol (P3wor).
class P3SamplingWoR : public HeavyHitterProtocol {
 public:
  /// `sample_size` = 0 derives s from eps via SampleSizeForEpsilon.
  P3SamplingWoR(size_t num_sites, double eps, uint64_t seed,
                size_t sample_size = 0);

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
  std::string name() const override { return "p3wor"; }
  std::vector<uint64_t> TrackedElements() const override;

  size_t sample_size() const { return s_; }
  double threshold() const { return tau_; }
  size_t pool_size() const { return q_cur_.size() + q_next_.size(); }

 protected:
  /// Current adjusted sample (exact weights while still in round 1).
  std::vector<PriorityEntry> CurrentSample() const;

  size_t s_;
  stream::Network network_;
  // One private generator per site (seed = base ⊕ site), so sites draw
  // priorities independently and may run on concurrent threads.
  std::vector<Rng> site_rngs_;
  double tau_ = 1.0;
  bool tau_ever_doubled_ = false;
  std::vector<PriorityEntry> q_cur_;
  std::vector<PriorityEntry> q_next_;
  // Forwarded items awaiting coordinator bucketing (per-site, FIFO).
  std::vector<std::vector<PriorityEntry>> outbox_;

 private:
  /// Delivers one site's queued forwards in emission order.
  void DrainSite(size_t site) override;
  void EndRoundIfNeeded();
};

/// With-replacement sampling protocol (P3wr).
class P3SamplingWR : public HeavyHitterProtocol {
 public:
  P3SamplingWR(size_t num_sites, double eps, uint64_t seed,
               size_t sample_size = 0);

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
  std::string name() const override { return "p3wr"; }
  std::vector<uint64_t> TrackedElements() const override;

  size_t sample_size() const { return s_; }

 private:
  struct Slot {
    PriorityEntry top;
    double second_priority = 0.0;
  };

  /// All sampler successes one element scored at one site: (slot index,
  /// priority) pairs, delivered to the coordinator as one batch so round
  /// accounting matches the per-element serial schedule.
  struct PendingSends {
    uint64_t element;
    double weight;
    std::vector<std::pair<size_t, double>> hits;
  };

  void ApplySlotUpdate(size_t t, uint64_t element, double weight,
                       double rho);
  /// Delivers one site's queued sampler successes in emission order.
  void DrainSite(size_t site) override;
  void EndRoundIfNeeded();

  size_t s_;
  stream::Network network_;
  // One private generator per site (seed = base ⊕ site); see P3SamplingWoR.
  std::vector<Rng> site_rngs_;
  double tau_ = 1.0;
  std::vector<Slot> slots_;
  size_t slots_below_2tau_ = 0;  // count of slots with second <= 2 tau
  std::vector<std::vector<PendingSends>> outbox_;  // per-site, FIFO
};

}  // namespace hh
}  // namespace dmt

#endif  // DMT_HH_P3_SAMPLING_H_
