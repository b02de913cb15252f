#include "hh/p2_threshold.h"

#include "util/check.h"
#include "util/contracts.h"

namespace dmt {
namespace hh {

P2Threshold::P2Threshold(size_t num_sites, double eps,
                         const P2Options& options)
    : eps_(eps), options_(options), network_(num_sites) {
  DMT_CHECK_GT(eps, 0.0);
  DMT_CHECK_LE(eps, 1.0);
  site_weight_.assign(num_sites, 0.0);
  site_west_.assign(num_sites, 0.0);
  outbox_.resize(num_sites);
  if (options_.site_counters > 0) {
    site_summary_.reserve(num_sites);
    for (size_t i = 0; i < num_sites; ++i) {
      site_summary_.emplace_back(options_.site_counters);
    }
    site_reported_.resize(num_sites);
  } else {
    site_delta_.resize(num_sites);
  }
}

DMT_HOT_KERNEL
void P2Threshold::SiteUpdate(size_t site, uint64_t element, double weight) {
  DMT_CHECK_LT(site, site_weight_.size());
  DMT_CHECK_GT(weight, 0.0);
  const double m = static_cast<double>(network_.num_sites());

  site_weight_[site] += weight;
  double delta;
  if (options_.site_counters > 0) {
    // Bounded-space site: the pending delta is the summary's estimate
    // minus what has already been reported for this element. A lookup,
    // not operator[]: only reported elements may own an entry.
    site_summary_[site].Update(element, weight);
    const auto& reported = site_reported_[site];
    const auto it = reported.find(element);
    delta = site_summary_[site].Estimate(element) -
            (it == reported.end() ? 0.0 : it->second);
  } else {
    delta = (site_delta_[site][element] += weight);
  }

  // site_west_ only changes in a drain, so the threshold is stable for
  // the whole round. Both reports below compare against the same
  // pre-report W-hat, so the serial Process() (this, then DrainSite) is
  // exactly the historical immediate-delivery behavior.
  const double threshold = (eps_ / m) * site_west_[site];

  // Scalar (total-weight) report. With W-hat == 0 (bootstrap) the
  // threshold is 0 and the report happens immediately.
  if (site_weight_[site] >= threshold) {
    network_.RecordScalar(site);
    outbox_[site].push_back(PendingReport{true, site_weight_[site], 0});
    site_weight_[site] = 0.0;
  }

  // Element report.
  if (delta >= threshold) {
    if (options_.site_counters > 0) {
      // SpaceSaving overestimates by up to its per-element error bound;
      // ship only the certain part so the coordinator never overcounts.
      const double certain =
          delta - site_summary_[site].ErrorBound(element);
      if (certain > 0.0) {
        network_.RecordElement(site);
        outbox_[site].push_back(PendingReport{false, certain, element});
        site_reported_[site][element] += certain;
      }
    } else {
      network_.RecordElement(site);
      outbox_[site].push_back(PendingReport{false, delta, element});
      site_delta_[site].erase(element);
    }
  }
}

void P2Threshold::DrainSite(size_t site) {
  for (const PendingReport& r : outbox_[site]) {
    if (r.is_scalar) {
      coordinator_total_ += r.value;
      if (++scalar_msgs_since_broadcast_ >= network_.num_sites()) {
        scalar_msgs_since_broadcast_ = 0;
        network_.RecordBroadcast();
        network_.RecordRound();
        for (auto& w : site_west_) w = coordinator_total_;
      }
    } else {
      coordinator_weights_[r.element] += r.value;
    }
  }
  outbox_[site].clear();
}

double P2Threshold::EstimateElementWeight(uint64_t element) const {
  auto it = coordinator_weights_.find(element);
  return it == coordinator_weights_.end() ? 0.0 : it->second;
}

double P2Threshold::EstimateTotalWeight() const { return coordinator_total_; }

const stream::CommStats& P2Threshold::comm_stats() const {
  return network_.stats();
}

std::vector<uint64_t> P2Threshold::TrackedElements() const {
  std::vector<uint64_t> out;
  out.reserve(coordinator_weights_.size());
  for (const auto& [e, w] : coordinator_weights_) out.push_back(e);
  return out;
}

}  // namespace hh
}  // namespace dmt
