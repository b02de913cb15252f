#include "hh/p4_randomized.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "util/check.h"

namespace dmt {
namespace hh {

P4Randomized::P4Randomized(size_t num_sites, double eps, uint64_t seed,
                           size_t copies)
    : eps_(eps),
      network_(num_sites),
      site_rngs_(MakeSiteRngs(num_sites, seed)),
      weight_tracker_(&network_),
      site_tally_(num_sites),
      outbox_(num_sites),
      reported_(std::max<size_t>(copies, 1)) {
  DMT_CHECK_GT(eps, 0.0);
  DMT_CHECK_LE(eps, 1.0);
}

double P4Randomized::CurrentP() const {
  const double what = weight_tracker_.EstimateAtSites();
  if (what <= 0.0) return std::numeric_limits<double>::infinity();
  const double m = static_cast<double>(network_.num_sites());
  return 2.0 * std::sqrt(m) / (eps_ * what);
}

void P4Randomized::EmitSends(size_t site, uint64_t element, double weight,
                             double tally,
                             std::vector<PendingReport>* sink) {
  const double p = CurrentP();
  const double send_prob =
      std::isinf(p) ? 1.0 : 1.0 - std::exp(-p * weight);
  // Each copy flips its own coin (all from the site's private generator);
  // every success is one message.
  for (size_t c = 0; c < reported_.size(); ++c) {
    if (site_rngs_[site].NextDouble() < send_prob) {
      network_.RecordElement(site);
      if (sink != nullptr) {
        sink->push_back(PendingReport{false, tally, c, element, site});
      } else {
        reported_[c][element][site] = tally;
      }
    }
  }
}

void P4Randomized::Process(size_t site, uint64_t element, double weight) {
  DMT_CHECK_LT(site, site_tally_.size());
  DMT_CHECK_GT(weight, 0.0);
  // Serial path: the weight report lands at the coordinator immediately,
  // so a broadcast it triggers already lowers the send probability for
  // this very arrival — the historical behavior.
  weight_tracker_.Observe(site, weight);

  double& tally = site_tally_[site][element];
  tally += weight;
  EmitSends(site, element, weight, tally, /*sink=*/nullptr);
}

void P4Randomized::SiteUpdate(size_t site, uint64_t element, double weight) {
  DMT_CHECK_LT(site, site_tally_.size());
  DMT_CHECK_GT(weight, 0.0);
  const double amount = weight_tracker_.SitePendingReport(site, weight);
  if (amount > 0.0) {
    outbox_[site].push_back(PendingReport{true, amount, 0, 0, site});
  }

  double& tally = site_tally_[site][element];
  tally += weight;
  EmitSends(site, element, weight, tally, &outbox_[site]);
}

void P4Randomized::DrainSite(size_t site) {
  for (const PendingReport& r : outbox_[site]) {
    if (r.is_weight_report) {
      weight_tracker_.ApplyReport(r.value);
    } else {
      reported_[r.copy][r.element][r.site] = r.value;
    }
  }
  outbox_[site].clear();
}

double P4Randomized::CopyEstimate(size_t copy, uint64_t element) const {
  auto it = reported_[copy].find(element);
  if (it == reported_[copy].end()) return 0.0;
  const double p = CurrentP();
  const double correction = std::isinf(p) ? 0.0 : 1.0 / p;
  double sum = 0.0;
  // Ordered map: the site-by-site FP summation order is replay-stable.
  for (const auto& [site, tally] : it->second) {
    sum += tally + correction;
  }
  return sum;
}

double P4Randomized::EstimateElementWeight(uint64_t element) const {
  std::vector<double> estimates;
  estimates.reserve(reported_.size());
  for (size_t c = 0; c < reported_.size(); ++c) {
    estimates.push_back(CopyEstimate(c, element));
  }
  // Median over the independent copies (a single copy: its estimate).
  const size_t mid = estimates.size() / 2;
  std::nth_element(estimates.begin(), estimates.begin() + mid,
                   estimates.end());
  return estimates[mid];
}

double P4Randomized::EstimateTotalWeight() const {
  return weight_tracker_.coordinator_weight();
}

const stream::CommStats& P4Randomized::comm_stats() const {
  return network_.stats();
}

std::vector<uint64_t> P4Randomized::TrackedElements() const {
  std::unordered_set<uint64_t> seen;
  // dmt-lint: allow(determinism-unordered-iter): set union — the collected
  // element set is order-independent; sorted before it escapes below.
  for (const auto& copy : reported_) {
    for (const auto& [e, sites] : copy) seen.insert(e);
  }
  // dmt-lint: allow(determinism-unordered-iter): drained into a vector and
  // sorted below so callers observe a replay-stable order.
  std::vector<uint64_t> out(seen.begin(), seen.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace hh
}  // namespace dmt
