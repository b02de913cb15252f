// Matrix Protocol 1: batched Frequent Directions (paper Algorithms
// 5.1 / 5.2) — the matrix analogue of heavy-hitter protocol P1.
//
// Each site runs FD with eps' = eps/2 and tracks F_i, the squared
// Frobenius mass received since its last flush. When F_i reaches
// (eps/2m) * F-hat the sketch is shipped (each sketch row is one vector
// message) and the site resets. The coordinator merges received sketches
// into one FD sketch (mergeability keeps the bound) and re-broadcasts
// F-hat on (1 + eps/2)-factor growth.
//
// The coordinator merges all of a window's flushes as one FD batch
// (FrequentDirections::Merge over the list), which is one shrink of the
// stacked rows, so it shrinks at most once per window rather than once
// per flush. Messages and broadcasts are those of the flush-by-flush
// merge: they depend only on the exact Frobenius sums F_i and F_C, which
// are still accounted flush by flush. A drain of one site with one flush
// — ProcessRow — is the flush-by-flush merge bit for bit.
//
// Serving: when a window's batch ends on a shrink (124–125 of the 126
// windows of pipebench's matrix_mp1_pamap pass, by seed), the
// coordinator sketch is B = Σ̃Vᵀ from that shrink's solve, and
// ExportSnapshotFactors hands the snapshot those σ and V instead of
// having it factor B again. The other windows hold rows merged since the
// last shrink, and the snapshot solves for their factors itself.
//
// Guarantee: |‖Ax‖² − ‖Bx‖²| ≤ ε‖A‖²_F with O((m/ε²) log(βN)) rows of
// communication.
#ifndef DMT_MATRIX_MP1_BATCHED_FD_H_
#define DMT_MATRIX_MP1_BATCHED_FD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "matrix/matrix_protocol.h"
#include "sketch/frequent_directions.h"
#include "stream/network.h"

namespace dmt {
namespace matrix {

/// Deterministic batched-FD protocol (MP1).
class MP1BatchedFD : public MatrixTrackingProtocol {
 public:
  MP1BatchedFD(size_t num_sites, double eps);

  void SiteUpdate(size_t site, const std::vector<double>& row) override;
  /// Accounts every listed site's flushes in order (F_C, F-hat
  /// broadcasts), then merges their sketches into the coordinator's in
  /// one batch.
  void SynchronizeSites(const uint32_t* sites, size_t count) override;
  size_t PendingOutboxSize(size_t site) const override {
    return outbox_[site].size();
  }
  linalg::Matrix CoordinatorSketch() const override;
  /// The coordinator FD's sketch, factored when it is exactly the output
  /// of its last shrink (FrequentDirections::FactoredSketch).
  bool ExportSnapshotFactors(linalg::Matrix* sketch,
                             linalg::RightSingular* factors) const override;
  const stream::CommStats& comm_stats() const override;
  std::vector<uint64_t> per_site_messages() const override {
    return network_.per_site_up();
  }
  std::string name() const override { return "P1"; }

  double coordinator_frobenius() const { return coordinator_frob_; }
  /// Shrinks the coordinator's FD sketch has run (observability).
  size_t coordinator_shrink_count() const {
    return coordinator_sketch_.shrink_count();
  }

 private:
  /// A site's shipped batch awaiting coordinator delivery: the FD sketch
  /// snapshot plus the squared Frobenius mass F_i since its last flush.
  struct PendingFlush {
    sketch::FrequentDirections sketch;
    double frob;
  };

  // Site half of a flush (messages + outbox + site reset).
  void EmitFlush(size_t site);
  // Delivers one site's queued flushes: SynchronizeSites of that site.
  void DrainSite(size_t site) override;

  double eps_;
  stream::Network network_;
  std::vector<sketch::FrequentDirections> site_sketches_;
  std::vector<double> site_frob_;   // F_i since last flush
  std::vector<double> site_fest_;   // F-hat as known by each site
  std::vector<std::vector<PendingFlush>> outbox_;  // per-site, FIFO
  sketch::FrequentDirections coordinator_sketch_;
  // One window's flush sketches, in drain order (reused across windows).
  std::vector<const sketch::FrequentDirections*> merge_batch_;
  double coordinator_frob_ = 0.0;   // F_C
  double broadcast_frob_ = 0.0;     // last broadcast F-hat
};

}  // namespace matrix
}  // namespace dmt

#endif  // DMT_MATRIX_MP1_BATCHED_FD_H_
