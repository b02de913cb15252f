// Protocol P2: per-element threshold reports (paper Algorithms 4.3 / 4.4),
// the weighted extension of Yi & Zhang's deterministic tracker.
//
// A site accumulates, per element, the weight delta since it last reported
// that element, and separately the total local weight W_i since its last
// scalar report. When either crosses (eps/m) * W-hat, only that quantity is
// sent. The coordinator adds scalar reports into W-hat and, after m of
// them, broadcasts the new W-hat (a round boundary).
//
// Guarantee: |W_e - Estimate(e)| <= eps * W with O((m/eps) log(beta*N))
// messages (Theorem 1) — a 1/eps factor better than P1.
#ifndef DMT_HH_P2_THRESHOLD_H_
#define DMT_HH_P2_THRESHOLD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "hh/hh_protocol.h"
#include "sketch/space_saving.h"
#include "stream/network.h"
#include "util/aligned.h"

namespace dmt {
namespace hh {

/// Options for P2.
struct P2Options {
  /// When > 0, each site tracks its per-element deltas with a weighted
  /// SpaceSaving summary of this many counters instead of an exact map —
  /// the space reduction the paper suggests via [Metwally et al.]. Sites
  /// then use O(counters) memory regardless of the element universe, at
  /// the cost of (bounded) overestimates in the reported deltas.
  size_t site_counters = 0;
};

/// Deterministic threshold protocol (P2).
class P2Threshold : public HeavyHitterProtocol {
 public:
  P2Threshold(size_t num_sites, double eps, const P2Options& options = {});

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
  std::string name() const override { return "P2"; }
  std::vector<uint64_t> TrackedElements() const override;

  /// Bounded-space mode: elements `site` keeps a reported-weight entry
  /// for; only an element report creates one. 0 in exact mode.
  size_t site_reported_entries(size_t site) const {
    return site_reported_.empty() ? 0 : site_reported_[site].size();
  }

 private:
  /// One queued site->coordinator report. Scalar (total-weight) and
  /// element (delta) reports share a FIFO so delivery preserves the exact
  /// emission order within a site.
  struct PendingReport {
    bool is_scalar;
    double value;      // W_i for scalars, reported delta for elements
    uint64_t element;  // only meaningful when !is_scalar
  };

  /// Delivers one site's queued reports in emission order.
  void DrainSite(size_t site) override;

  double eps_;
  P2Options options_;
  stream::Network network_;
  // Per-site state, SoA. The scalar-hot arrays (every SiteUpdate reads
  // and often writes both) are cache-line-aligned: with each of the
  // driver's lanes owning a contiguous home range of sites, lanes then
  // touch disjoint line ranges except at the two range boundaries. With
  // bounded space, `site_summary_` replaces the exact delta map (only one
  // of the two is populated per run).
  CacheAlignedVector<double> site_weight_;  // W_i since last scalar report
  std::vector<std::unordered_map<uint64_t, double>> site_delta_;
  std::vector<sketch::SpaceSaving> site_summary_;
  // Bounded-space mode: cumulative weight already reported per element
  // (only elements that crossed the threshold ever get an entry).
  std::vector<std::unordered_map<uint64_t, double>> site_reported_;
  CacheAlignedVector<double> site_west_;    // W-hat known at the site
  std::vector<std::vector<PendingReport>> outbox_;  // per-site, FIFO
  // Coordinator state.
  std::unordered_map<uint64_t, double> coordinator_weights_;
  double coordinator_total_ = 0.0;   // W-hat (grows with scalar reports)
  size_t scalar_msgs_since_broadcast_ = 0;
};

}  // namespace hh
}  // namespace dmt

#endif  // DMT_HH_P2_THRESHOLD_H_
