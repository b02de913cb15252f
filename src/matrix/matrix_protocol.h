// Common interface for distributed matrix tracking protocols
// (paper Section 5 and Appendix C).
#ifndef DMT_MATRIX_MATRIX_PROTOCOL_H_
#define DMT_MATRIX_MATRIX_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/svd.h"
#include "stream/comm_stats.h"

namespace dmt {
namespace matrix {

/// A distributed matrix tracking protocol: rows arrive at sites; the
/// coordinator continuously maintains a small approximation B of the
/// stacked stream matrix A.
///
/// Approximation contract (paper Section 5): at all times and for every
/// unit vector x,
///
///   |‖Ax‖² − ‖Bx‖²| ≤ ε‖A‖²_F,
///
/// equivalently ‖AᵀA − BᵀB‖₂ ≤ ε‖A‖²_F — the metric
/// matrix::CovarianceError reports as `err` (dimensionless, relative to
/// the stream's total squared Frobenius mass). The one-sided protocols
/// (MP1/MP2, built on Frequent Directions) additionally never
/// overestimate: 0 ≤ ‖Ax‖² − ‖Bx‖².
///
/// Row weights are squared Euclidean norms; the analysis assumes
/// ‖row‖² ∈ (0, β] with β known to all sites (datasets are normalized
/// to β = 100 — see docs/DATASETS.md). Communication is counted in
/// *messages* (stream::CommStats), the paper's unit: one site→coordinator
/// report or one coordinator→sites broadcast each count 1 per receiver.
class MatrixTrackingProtocol {
 public:
  virtual ~MatrixTrackingProtocol() = default;

  /// Processes one row arriving at `site`. Serial entry point: any
  /// triggered site->coordinator messages are delivered (and broadcasts
  /// applied) before this returns. Default: SiteUpdate() then
  /// DrainSite(site), since only this site can have queued anything.
  virtual void ProcessRow(size_t site, const std::vector<double>& row) {
    SiteUpdate(site, row);
    DrainSite(site);
  }

  /// Site half: updates only state owned by `site` (including that site's
  /// network shard) and queues outgoing messages in a per-site outbox for
  /// the next drain. When SupportsConcurrentSiteUpdates() is true, calls
  /// for *distinct* sites may run concurrently between two drains; calls
  /// for the same site must stay on one thread.
  virtual void SiteUpdate(size_t site, const std::vector<double>& row) = 0;

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

  /// The coordinator's current approximation B (rows stacked; at most
  /// O(1/ε) rows of dimension d). Safe to call only between rounds /
  /// after the run, like comm_stats().
  virtual linalg::Matrix CoordinatorSketch() const = 0;

  /// B^T B. Default derives it from the sketch; protocols that maintain a
  /// Gram matrix directly override this with the cheaper exact path.
  virtual linalg::Matrix CoordinatorGram() const {
    return CoordinatorSketch().Gram();
  }

  /// Deep-copied coordinator sketch for the serving layer
  /// (serve::BuildSnapshot). The returned matrix must own every element —
  /// nothing may alias live protocol buffers, so a pinned snapshot stays
  /// bit-identical while ingestion continues. Same threading contract as
  /// CoordinatorSketch(): call only between rounds / after the run.
  /// Default: CoordinatorSketch(), which already returns by value.
  virtual linalg::Matrix ExportSnapshotSketch() const {
    return CoordinatorSketch();
  }

  /// The snapshot sketch together with its right singular structure,
  /// when the protocol already holds one (serve::BuildSnapshot calls this
  /// instead of ExportSnapshotSketch). One call returns a consistent pair:
  /// *sketch is ExportSnapshotSketch()'s deep copy, and on true *factors
  /// factors exactly that matrix in RightSingularOf's layout —
  /// r = min(rows, cols) squared singular values, descending, and v
  /// cols x r with the matching right singular vectors as columns. On
  /// false *factors is unspecified and the snapshot factors *sketch
  /// itself (one QL solve). Same threading contract as CoordinatorSketch().
  /// Default: ExportSnapshotSketch() and false. MP1 overrides it with its
  /// coordinator FD's last shrink (FrequentDirections::FactoredSketch). A
  /// forwarding proxy that does not override it inherits the default, so
  /// its snapshots stay correct and only pay the solve.
  virtual bool ExportSnapshotFactors(linalg::Matrix* sketch,
                                     linalg::RightSingular* factors) const {
    (void)factors;
    *sketch = ExportSnapshotSketch();
    return false;
  }

  /// Communication counters so far.
  virtual const stream::CommStats& comm_stats() const = 0;

  /// Per-site upstream message counts (index = site id). Same
  /// synchronization requirement as comm_stats(): call only between
  /// rounds / after the run.
  virtual std::vector<uint64_t> per_site_messages() const = 0;

  /// The protocol's core/registry.h name (e.g. "mp2").
  virtual std::string name() const = 0;

 protected:
  /// Coordinator half for one site: delivers `site`'s queued messages in
  /// emission order. Same threading contract as SynchronizeSites().
  /// Default: no-op, for a protocol that never queues anything.
  virtual void DrainSite(size_t site) { (void)site; }
};

}  // namespace matrix
}  // namespace dmt

#endif  // DMT_MATRIX_MATRIX_PROTOCOL_H_
