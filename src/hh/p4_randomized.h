// Protocol P4: randomized reporting (paper Algorithm 4.7), the weighted
// extension of Huang, Yi & Zhang's sqrt(m) tracker.
//
// Each site knows a 2-approximation W-hat of the total weight and sets
// p = 2 sqrt(m) / (eps * W-hat). For an arriving (e, w) it sends its
// *exact* local tally f_e(A_j) with probability p-bar = 1 - exp(-p w)
// (the limiting form of treating w as w/10^k unit items, Lemma 7). The
// coordinator compensates the expected unreported residue by adding 1/p to
// each reported tally.
//
// Guarantee: |W_e - Estimate(e)| <= eps W with probability >= 0.75, using
// O((sqrt(m)/eps) log(beta N)) messages (Theorem 3).
#ifndef DMT_HH_P4_RANDOMIZED_H_
#define DMT_HH_P4_RANDOMIZED_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "hh/hh_protocol.h"
#include "hh/total_weight.h"
#include "stream/network.h"
#include "util/rng.h"

namespace dmt {
namespace hh {

/// Randomized sqrt(m) protocol (P4).
///
/// `copies` > 1 runs that many independent instances of the reporting
/// scheme over the same site tallies and answers queries with the median
/// estimate — the paper's remark after Theorem 3: log(2/delta) copies
/// boost the 0.75 success probability to 1 - delta, at proportionally
/// more communication.
class P4Randomized : public HeavyHitterProtocol {
 public:
  P4Randomized(size_t num_sites, double eps, uint64_t seed,
               size_t copies = 1);

  void Process(size_t site, uint64_t element, double weight) override;
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
  std::string name() const override { return "P4"; }
  std::vector<uint64_t> TrackedElements() const override;

 private:
  /// One queued site->coordinator message: either a total-weight report
  /// (amount) or a tally refresh for (copy, element, site).
  struct PendingReport {
    bool is_weight_report;
    double value;    // reported weight, or the tally being refreshed
    size_t copy;
    uint64_t element;
    size_t site;
  };

  /// Current send probability parameter p = 2 sqrt(m) / (eps W-hat);
  /// infinite (send always) before bootstrap.
  double CurrentP() const;

  /// Flips the per-copy coins for one arrival (success probability
  /// 1 - exp(-p * weight)) with the site's generator, recording messages.
  /// A success ships the site's full exact tally for `element`: queued
  /// into `sink` if given, else applied to the coordinator immediately
  /// (serial path).
  void EmitSends(size_t site, uint64_t element, double weight, double tally,
                 std::vector<PendingReport>* sink);

  /// Delivers one site's queued reports in emission order.
  void DrainSite(size_t site) override;

  /// Estimate of one independent copy.
  double CopyEstimate(size_t copy, uint64_t element) const;

  double eps_;
  stream::Network network_;
  // One private generator per site (seed = base ⊕ site): all copies'
  // coins for a site flip from that site's stream.
  std::vector<Rng> site_rngs_;
  TotalWeightTracker weight_tracker_;
  // Per-site exact local tallies f_e(A_j), shared by all copies.
  std::vector<std::unordered_map<uint64_t, double>> site_tally_;
  std::vector<std::vector<PendingReport>> outbox_;  // per-site, FIFO
  // Per-copy coordinator state: last reported tally w-bar_{e,j} per
  // element per site. The inner per-site map is ordered: CopyEstimate sums
  // its values in iteration order, and that floating-point reduction must
  // be replay-stable (hash order is not).
  std::vector<std::unordered_map<uint64_t, std::map<size_t, double>>>
      reported_;
};

}  // namespace hh
}  // namespace dmt

#endif  // DMT_HH_P4_RANDOMIZED_H_
