// Matrix Protocol 2: deterministic SVD-threshold tracking (paper
// Algorithms 5.3 / 5.4) — the matrix analogue of heavy-hitter protocol P2
// and the paper's best deterministic method.
//
// Each site accumulates unsent rows in B_j and, whenever some direction of
// B_j carries squared norm >= (eps/m) * F-hat, ships that direction as one
// scaled singular vector sigma*v (removing it from B_j). Total squared
// Frobenius mass is tracked exactly like P2's scalar reports. The
// coordinator simply appends received directions to B.
//
// Guarantees (Theorem 4):
//   0 <= ‖Ax‖² − ‖Bx‖² <= ε‖A‖²_F  (one-sided: B never overestimates),
//   O((m/ε) log(βN)) messages.
//
// Implementation notes: B_j is represented exactly by its d x d Gram
// matrix G_j (appending a row and removing a singular direction are both
// exact Gram-level operations). Since appending row a raises the top
// eigenvalue by at most ‖a‖², no direction can cross the threshold until
// trace(G_j) does — and after a threshold check that ships nothing, not
// until the trace grows by another (threshold − bound) where `bound` is a
// certified upper bound on the remaining λ_max. This makes the per-row
// cost O(d²) amortized while sending *exactly* the same messages as the
// paper's per-row svd formulation.
//
// A threshold check only needs the eigenvalues at or above the threshold,
// so it runs on the partial Lanczos solver (linalg/lanczos.h): solve the
// top-k pairs (k grows geometrically from 4), ship every pair at or above
// the threshold, and deflate them from G_j with one batched rank-1 pass.
// The certificate that nothing send-worthy was missed comes from the
// exactly-known trace: the spectrum not captured by the returned Ritz
// pairs sums to at most trace(G_j) − Σθᵢ, so once that remainder (plus
// the solver's residual coupling bound) is below the threshold, every
// eigenvalue ≥ threshold is provably among the computed pairs. The exact
// step is the same solver at k = d: once k would put the solver on its
// dense route (the Krylov basis would span R^d), or a Krylov step misses
// its tolerance, the check asks for all d pairs, which the dense route
// factors in one QL solve and which need no certificate. Flat spectra
// end there; the messages are identical either way.
#ifndef DMT_MATRIX_MP2_SVD_THRESHOLD_H_
#define DMT_MATRIX_MP2_SVD_THRESHOLD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "linalg/lanczos.h"
#include "matrix/matrix_protocol.h"
#include "stream/network.h"

namespace dmt {
namespace matrix {

/// Deterministic SVD-threshold protocol (MP2).
class MP2SvdThreshold : public MatrixTrackingProtocol {
 public:
  MP2SvdThreshold(size_t num_sites, double eps);

  void ProcessRow(size_t site, const std::vector<double>& row) override;
  void SiteUpdate(size_t site, const std::vector<double>& row) override;
  void Synchronize() override;
  void SynchronizeSites(const uint32_t* sites, size_t count) override;
  bool SupportsTargetedDrain() const override { return true; }
  size_t PendingOutboxSize(size_t site) const override {
    return outbox_[site].size();
  }
  bool SupportsConcurrentSiteUpdates() const override { return true; }
  /// Rows sqrt(lambda_i) v_i^T reconstructed from the coordinator's exact
  /// Gram of all received directions.
  linalg::Matrix CoordinatorSketch() const override;
  linalg::Matrix CoordinatorGram() const override { return coord_gram_; }
  const stream::CommStats& comm_stats() const override;
  std::vector<uint64_t> per_site_messages() const override {
    return network_.per_site_up();
  }
  std::string name() const override { return "P2"; }

  double coordinator_frobenius() const { return coord_fest_; }
  /// Threshold checks (each one or more eigensolves) across all sites
  /// (cost diagnostic).
  size_t decomposition_count() const {
    return decompositions_.load(std::memory_order_relaxed);
  }

  /// One queued site->coordinator message: either a total-mass scalar
  /// report (value = F_j) or a shipped direction (value = lambda,
  /// dir = v; the coordinator appends sqrt(lambda) v to B, i.e. adds
  /// lambda * v v^T to its Gram). Public because the wire transport
  /// (src/net) serializes it.
  struct PendingMsg {
    bool is_scalar;
    double value;
    std::vector<double> dir;
  };

  // --- Wire-transport hooks (src/net); see P1BatchedMG for the scheme.

  /// Site half: moves out this site's queued messages, in emission order.
  std::vector<PendingMsg> TakePendingMessages(size_t site);
  /// Coordinator half: records the message cost for `site` and applies one
  /// message — the remote-delivery equivalent of Synchronize()'s drain.
  void DeliverMessage(size_t site, const PendingMsg& msg);
  /// F-hat as of the last broadcast (0 before the first) — the value the
  /// coordinator pushes down to sites at a window boundary.
  double last_broadcast_fest() const {
    return sites_.empty() ? 0.0 : sites_[0].fest;
  }
  /// Installs a received F-hat broadcast into one site's view.
  void SetSiteFest(size_t site, double fest);
  /// Row dimension (0 until the first row or delivered direction).
  size_t dim() const { return dim_; }

 private:
  // Each site keeps the Gram of its unsent rows in original coordinates;
  // appending a row is one symmetric rank-1 update and a threshold check
  // is a warm-seeded partial Lanczos solve (certified through the trace,
  // see the header comment). The messages produced are identical to
  // decomposing from scratch.
  struct SiteState {
    linalg::Matrix gram;        // B_j^T B_j
    double trace = 0.0;         // trace(gram) maintained incrementally
    double next_check = 0.0;    // no threshold check before this trace
    double scalar_counter = 0.0;// F_j for total-mass reports
    double fest = 0.0;          // F-hat as known by the site
    // Warm start and solver scratch; per-site so the concurrent
    // SiteUpdate phase never shares mutable state across sites.
    std::vector<double> seed;   // previous check's leading eigenvector
    linalg::LanczosSolver solver;
    std::vector<double> vals;
    linalg::Matrix vecs;
  };

  // Delivers one site's queued messages in emission order.
  void DrainSite(size_t site);
  // Lazy structural init from the first row (thread-safe via dim_once_).
  void EnsureDim(const std::vector<double>& row);
  // Site half of the total-mass report: returns the amount to deliver
  // (0.0 when below threshold); records the scalar message.
  double SiteScalarPhase(size_t site, double w);
  // Coordinator half: folds a reported amount, broadcasting F-hat after m
  // scalar reports.
  void ApplyScalar(double amount);
  // Direction-shipping logic shared by both schedules. `sink` == nullptr
  // applies to the coordinator Gram immediately (serial path); otherwise
  // directions are queued for Synchronize().
  void ElementPhase(size_t site, const std::vector<double>& row, double w,
                    std::vector<PendingMsg>* sink);
  void EmitDirection(size_t site, double lam, const std::vector<double>& v,
                     std::vector<PendingMsg>* sink);
  void MaybeSendDirections(size_t site, std::vector<PendingMsg>* sink);

  double eps_;
  size_t dim_ = 0;
  std::once_flag dim_once_;
  stream::Network network_;
  std::vector<SiteState> sites_;
  std::vector<std::vector<PendingMsg>> outbox_;  // per-site, FIFO
  linalg::Matrix coord_gram_;   // Gram of all received directions
  double coord_fest_ = 0.0;     // coordinator's F-hat
  size_t scalar_msgs_since_broadcast_ = 0;
  std::atomic<size_t> decompositions_{0};
};

}  // namespace matrix
}  // namespace dmt

#endif  // DMT_MATRIX_MP2_SVD_THRESHOLD_H_
