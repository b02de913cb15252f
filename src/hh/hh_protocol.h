// Common interface for distributed weighted heavy-hitter protocols
// (paper Section 4).
#ifndef DMT_HH_HH_PROTOCOL_H_
#define DMT_HH_HH_PROTOCOL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stream/comm_stats.h"

namespace dmt {
namespace hh {

/// One tracked element with its coordinator estimate, as exported for the
/// serving layer (serve::BuildSnapshot).
struct HHSnapshotEntry {
  uint64_t element = 0;
  double weight = 0.0;
};

/// A distributed weighted heavy-hitters tracking protocol: items arrive at
/// sites; the coordinator continuously answers weight queries.
///
/// Approximation contract (paper Section 4): with W the total stream
/// weight so far, at all times and for every element e,
///
///   |EstimateElementWeight(e) − w(e)| ≤ ε·W,
///
/// so every true φ-heavy hitter (w(e) ≥ φW) passes the report rule of
/// HeavyHitters() and nothing below (φ − ε)W does. The randomized
/// protocols (P3/P4) meet the bound with constant probability per
/// query. Weights are positive reals in [1, β] with β known to all
/// sites; communication is counted in messages (stream::CommStats) —
/// one site→coordinator report or one per-receiver broadcast each
/// count 1.
class HeavyHitterProtocol {
 public:
  virtual ~HeavyHitterProtocol() = default;

  /// Processes one stream element arriving at `site`. `weight` > 0.
  /// Serial entry point: any triggered site->coordinator messages are
  /// delivered (and broadcasts applied) before this returns. Default:
  /// SiteUpdate() then DrainSite(site), since only this site can have
  /// queued anything.
  virtual void Process(size_t site, uint64_t element, double weight) {
    SiteUpdate(site, element, weight);
    DrainSite(site);
  }

  /// Site half: updates only state owned by `site` (including that site's
  /// network shard) and queues outgoing messages in a per-site outbox for
  /// the next drain. When SupportsConcurrentSiteUpdates() is true, calls
  /// for *distinct* sites may run concurrently between two drains; calls
  /// for the same site must stay on one thread.
  virtual void SiteUpdate(size_t site, uint64_t element, double weight) = 0;

  /// Coordinator half: drains exactly the listed sites' outboxes, in the
  /// given order, applying merges and broadcasts. The driver passes the
  /// ascending set of sites whose outboxes are non-empty (collected from
  /// its lanes' pending buffers), so the total order is ascending site,
  /// emission order within a site, and idle sites are never touched.
  /// Every unlisted site's outbox must be empty. Must run on a single
  /// thread with no concurrent SiteUpdate; the simulation driver calls it
  /// at window boundaries. Default: DrainSite() for each listed site, in
  /// order.
  virtual void SynchronizeSites(const uint32_t* sites, size_t count) {
    for (size_t i = 0; i < count; ++i) DrainSite(sites[i]);
  }

  /// Messages queued in `site`'s outbox awaiting the next drain. Workers
  /// call this right after the site's last SiteUpdate of a window to
  /// decide whether to publish the site for draining — same concurrency
  /// contract as SiteUpdate (distinct sites from distinct threads).
  /// Default: SIZE_MAX, "unknown — always publish".
  virtual size_t PendingOutboxSize(size_t site) const {
    (void)site;
    return SIZE_MAX;
  }

  /// True when SiteUpdate() touches only per-site state and may therefore
  /// run concurrently for distinct sites. Default: true.
  virtual bool SupportsConcurrentSiteUpdates() const { return true; }

  /// The library never calls these two. They stay virtual only because
  /// pipebench's forwarding proxies (pipebench/layers.h) override them:
  /// Synchronize() does nothing and SupportsTargetedDrain() is true.
  virtual void Synchronize() {}
  virtual bool SupportsTargetedDrain() const { return true; }

  /// Coordinator's current estimate of element's total weight; within
  /// ε·W of the truth per the class contract. Returns 0 for untracked
  /// elements (correct up to the same bound).
  virtual double EstimateElementWeight(uint64_t element) const = 0;

  /// Coordinator's current estimate of the total stream weight W
  /// (within a (1 ± ε) factor for the threshold-style protocols).
  virtual double EstimateTotalWeight() const = 0;

  /// Communication counters so far.
  virtual const stream::CommStats& comm_stats() const = 0;

  /// Per-site upstream message counts (index = site id). Same
  /// synchronization requirement as comm_stats(): call only between
  /// rounds / after the run.
  virtual std::vector<uint64_t> per_site_messages() const = 0;

  /// The protocol's core/registry.h name (e.g. "p2").
  virtual std::string name() const = 0;

  /// Returns every element the coordinator currently tracks that passes the
  /// paper's report rule: Estimate(e)/EstimateTotal() >= phi - eps/2.
  /// The default implementation filters `TrackedElements()`.
  std::vector<uint64_t> HeavyHitters(double phi, double eps) const;

  /// Elements the coordinator has any evidence for (candidates for
  /// HeavyHitters()). Order is unspecified.
  virtual std::vector<uint64_t> TrackedElements() const = 0;

  /// Deep-copied coordinator state for the serving layer: every tracked
  /// element with its current estimate, element-ascending, no duplicates.
  /// Nothing in the result aliases live protocol state. Same threading
  /// contract as comm_stats(): call only between rounds / after the run.
  /// Default: sorted+deduplicated TrackedElements() with
  /// EstimateElementWeight() per element.
  virtual std::vector<HHSnapshotEntry> ExportSnapshotEntries() const;

 protected:
  /// Coordinator half for one site: delivers `site`'s queued messages in
  /// emission order. Same threading contract as SynchronizeSites().
  /// Default: no-op, for a protocol that never queues anything.
  virtual void DrainSite(size_t site) { (void)site; }
};

inline std::vector<HHSnapshotEntry> HeavyHitterProtocol::ExportSnapshotEntries()
    const {
  std::vector<uint64_t> elements = TrackedElements();
  std::sort(elements.begin(), elements.end());
  elements.erase(std::unique(elements.begin(), elements.end()),
                 elements.end());
  std::vector<HHSnapshotEntry> out;
  out.reserve(elements.size());
  for (uint64_t e : elements) {
    out.push_back(HHSnapshotEntry{e, EstimateElementWeight(e)});
  }
  return out;
}

inline std::vector<uint64_t> HeavyHitterProtocol::HeavyHitters(
    double phi, double eps) const {
  std::vector<uint64_t> out;
  const double total = EstimateTotalWeight();
  if (total <= 0.0) return out;
  for (uint64_t e : TrackedElements()) {
    if (EstimateElementWeight(e) / total >= phi - eps / 2.0) {
      out.push_back(e);
    }
  }
  return out;
}

}  // namespace hh
}  // namespace dmt

#endif  // DMT_HH_HH_PROTOCOL_H_
