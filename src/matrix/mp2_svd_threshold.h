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
// certified upper bound on the remaining λ_max. A site therefore needs
// G_j only at a check: it copies each row into a fixed 64-row stage
// (O(d) per row) and folds the stage into G_j with one blocked Gram pass
// when it fills and at the start of every check, while trace(G_j) still
// grows per row, so checks fire at the same rows. The blocked fold
// re-rounds G_j against per-row rank-1 updates, but the messages are
// *exactly* those of the paper's per-row svd formulation.
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
//
// Leading-pair certificate. Between checks the trace rule alone lets
// every row's norm count toward λ_max, although most rows put little mass
// along the leading direction. A check that leaves a computed pair
// unshipped (s = shipped < count) therefore keeps u = v_s, θ = θ_s,
// μ = max(θ_{s+1} (0 when s + 1 = count), leftover) + slack and τ₀ =
// trace; each later row a that enters the Gram, with c = u·a, adds
// ρ += c² and r += c·a (one Dot and one Axpy). When the trace rule fires,
// with τ = trace − τ₀ and β = ‖r − ρu‖ + slack, the site evaluates
//
//   λ⁺ = λ_max [[θ + ρ + slack, β], [β, μ + (τ − ρ) + slack + 1e-9·|trace|]]
//
// in closed form. If λ⁺ < threshold it skips the check and sets
// next_check = trace + (threshold − λ⁺); otherwise it runs the check,
// which re-anchors the pair (or clears it when every computed pair
// shipped, leaving the trace rule alone). β is the norm of r − ρu itself:
// sqrt(‖r‖² − ρ²) cancels to ~√eps·‖r‖ when the rows lie along u.
//
// Why λ⁺ ≥ λ_max(G + R), with G the Gram the check left and R = Σ aaᵀ the
// rows since. Write a unit x = cu + sw with w ⊥ u, so xᵀ(G + R)x =
// c²uᵀ(G + R)u + 2cs·wᵀ(G + R)u + s²wᵀ(G + R)w. From the check:
// uᵀGu = θ, ‖P⊥Gu‖ ≤ residual_bound ≤ slack, and λ_max(P⊥GP⊥) ≤ μ,
// since P⊥GP⊥ holds only the kept pairs θ_{s+1..}, the deflated shipped
// ones (≈ 0) and the un-computed block, which is PSD with trace at most
// `leftover` (so the bound holds even where the Krylov space missed an
// eigenvector). The rows are PSD: uᵀRu = ρ, ‖P⊥Ru‖ = ‖r − ρu‖ and
// λ_max(P⊥RP⊥) ≤ tr R − ρ = τ − ρ. So xᵀ(G + R)x is at most the 2 × 2
// form at (|c|, |s|), whose maximum over unit vectors is λ⁺; the slack
// terms on the diagonal absorb rounding. A skipped check thus falls on a
// row where the literal algorithm ships nothing, and the messages stay
// exactly the paper's. λ⁺ grows by at most ‖a‖² per row (the row's own
// 2 × 2 increment is PSD with trace ‖a‖²), so next_check stays valid as
// rows arrive. By Weyl λ⁺ ≤ max(θ, μ) + τ up to slack, the trace rule's
// own bound: the certificate only removes checks the trace rule would
// run, and never moves next_check closer. It helps when rows carry mass
// off u (τ − ρ large against ρ); rows all along u reduce it to the trace
// rule.
// On the wire workload (100 000 PAMAP-like rows, 3 sites, eps = 0.1) it
// skips about two thirds of the checks: 1607 → 525 on seed 7.
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
  size_t PendingOutboxSize(size_t site) const override {
    return outbox_[site].size();
  }
  /// Rows sqrt(lambda_i) v_i^T reconstructed from the coordinator's exact
  /// Gram of all received directions.
  linalg::Matrix CoordinatorSketch() const override;
  linalg::Matrix CoordinatorGram() const override { return coord_gram_; }
  const stream::CommStats& comm_stats() const override;
  std::vector<uint64_t> per_site_messages() const override {
    return network_.per_site_up();
  }
  std::string name() const override { return "mp2"; }

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
  /// message — the remote-delivery equivalent of DrainSite().
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
  // Each site keeps the Gram of its unsent rows in original coordinates,
  // with the newest rows staged until the next fold (see the header
  // comment); a threshold check is a warm-seeded partial Lanczos solve
  // certified through the trace. The messages produced are identical to
  // decomposing from scratch.
  struct SiteState {
    linalg::Matrix gram;        // B_j^T B_j, minus the staged rows
    linalg::Matrix stage;       // kStageRows x d; rows since the last fold
    size_t staged = 0;          // occupied rows of `stage`
    double trace = 0.0;         // trace(B_j^T B_j), staged rows included
    double next_check = 0.0;    // no threshold check before this trace
    double scalar_counter = 0.0;// F_j for total-mass reports
    double fest = 0.0;          // F-hat as known by the site
    // Warm start and solver scratch; per-site so the concurrent
    // SiteUpdate phase never shares mutable state across sites.
    std::vector<double> seed;   // previous check's leading eigenvector
    linalg::LanczosSolver solver;
    std::vector<double> vals;
    linalg::Matrix vecs;
    // Leading-pair certificate (header comment): u = `seed`, set by a
    // check that leaves a computed pair unshipped.
    bool pair_active = false;
    double pair_theta = 0.0;    // theta: u's Ritz value
    double pair_mu = 0.0;       // bound on lambda_max off u, slack included
    double pair_slack = 0.0;    // the check's residual + roundoff slack
    double pair_trace0 = 0.0;   // `trace` at the end of the check
    double pair_rho = 0.0;      // rho: sum of (u.a)^2 over rows since
    std::vector<double> pair_r; // r: sum of (u.a) a over rows since
  };

  // Delivers one site's queued messages in emission order.
  void DrainSite(size_t site) override;
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
  // directions are queued for the next drain.
  void ElementPhase(size_t site, const std::vector<double>& row, double w,
                    std::vector<PendingMsg>* sink);
  void EmitDirection(size_t site, double lam, const std::vector<double>& v,
                     std::vector<PendingMsg>* sink);
  // Folds a site's staged rows into its Gram (one GramAccumulate).
  static void FoldStagedRows(SiteState* st);
  // lambda-plus: the certificate's bound on the site's lambda_max.
  static double PairBound(const SiteState& st);
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
