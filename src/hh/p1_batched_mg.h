// Protocol P1: batched Misra-Gries (paper Algorithms 4.1 / 4.2).
//
// Each site runs a weighted MG summary with eps' = eps/2 error and tracks
// the local weight W_i since its last flush. When W_i reaches
// tau = (eps/2m) * W-hat, the whole summary is shipped to the coordinator
// and the site resets. The coordinator merges summaries (mergeability of
// MG keeps the error bound) and re-broadcasts W-hat whenever its tally
// grew by a (1 + eps/2) factor.
//
// Guarantee: |W_e - Estimate(e)| <= eps * W for every element, with
// O((m/eps^2) log(beta*N)) total messages (Lemma 2).
#ifndef DMT_HH_P1_BATCHED_MG_H_
#define DMT_HH_P1_BATCHED_MG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hh/hh_protocol.h"
#include "sketch/misra_gries.h"
#include "stream/network.h"

namespace dmt {
namespace hh {

/// Deterministic batched-summary protocol (P1).
class P1BatchedMG : public HeavyHitterProtocol {
 public:
  /// `num_sites` = m, `eps` = target additive error fraction.
  P1BatchedMG(size_t num_sites, double eps);

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
  std::string name() const override { return "p1"; }
  std::vector<uint64_t> TrackedElements() const override;

  /// A site's shipped batch awaiting coordinator delivery: the snapshot of
  /// its MG summary plus the local weight W_i since the previous flush.
  /// Public because the wire transport (src/net) serializes it.
  struct PendingFlush {
    sketch::WeightedMisraGries summary;
    double weight;
  };

  // --- Wire-transport hooks (src/net). The in-process schedule and these
  // hooks expose the same site/coordinator halves, so a run over a real
  // channel replays bit-identically (tests/net_transport_test.cc).

  /// Site half: moves out this site's queued flushes, in emission order.
  std::vector<PendingFlush> TakePendingFlushes(size_t site);
  /// Coordinator half: records the message cost for `site` and applies one
  /// flush — the remote-delivery equivalent of DrainSite().
  void DeliverFlush(size_t site, const PendingFlush& flush);
  /// Last broadcast W-hat (what the coordinator pushes down to sites).
  double broadcast_weight() const { return broadcast_weight_; }
  /// Installs a received W-hat broadcast into one site's view.
  void SetSiteBroadcastWeight(size_t site, double west);
  /// Counter budget of every summary in this run (wire k cross-check).
  size_t summary_k() const { return coordinator_summary_.k(); }

 private:
  // Site half of a flush (messages + outbox + site reset).
  void EmitFlush(size_t site);
  // Delivers one site's queued flushes in emission order.
  void DrainSite(size_t site) override;
  // Coordinator half (merge + W_C + possible W-hat broadcast).
  void ApplyFlush(const PendingFlush& flush);

  double eps_;
  stream::Network network_;
  // Per-site state.
  std::vector<sketch::WeightedMisraGries> site_summaries_;
  std::vector<double> site_weight_;    // W_i since last flush
  std::vector<double> site_west_;      // W-hat as known by the site
  std::vector<std::vector<PendingFlush>> outbox_;  // per-site, FIFO
  // Coordinator state.
  sketch::WeightedMisraGries coordinator_summary_;
  double coordinator_weight_ = 0.0;    // W_C
  double broadcast_weight_ = 0.0;      // last broadcast W-hat
};

}  // namespace hh
}  // namespace dmt

#endif  // DMT_HH_P1_BATCHED_MG_H_
