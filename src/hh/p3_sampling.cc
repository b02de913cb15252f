#include "hh/p3_sampling.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/check.h"

namespace dmt {
namespace hh {

size_t SampleSizeForEpsilon(double eps) {
  DMT_CHECK_GT(eps, 0.0);
  DMT_CHECK_LE(eps, 1.0);
  const double inv = 1.0 / eps;
  const double s = inv * inv * std::max(1.0, std::log(inv));
  return static_cast<size_t>(std::max(8.0, std::ceil(s)));
}

std::vector<PriorityEntry> AdjustedSample(std::vector<PriorityEntry> entries) {
  if (entries.size() <= 1) return {};
  auto min_it =
      std::min_element(entries.begin(), entries.end(),
                       [](const PriorityEntry& a, const PriorityEntry& b) {
                         return a.priority < b.priority;
                       });
  const double tau = min_it->priority;
  entries.erase(min_it);
  for (auto& e : entries) e.weight = std::max(e.weight, tau);
  return entries;
}

P3SamplingWoR::P3SamplingWoR(size_t num_sites, double eps, uint64_t seed,
                             size_t sample_size)
    : s_(sample_size != 0 ? sample_size : SampleSizeForEpsilon(eps)),
      network_(num_sites),
      site_rngs_(MakeSiteRngs(num_sites, seed)),
      outbox_(num_sites) {
  q_cur_.reserve(s_ + 1);
  q_next_.reserve(s_ + 1);
}

void P3SamplingWoR::SiteUpdate(size_t site, uint64_t element,
                               double weight) {
  DMT_CHECK_LT(site, site_rngs_.size());
  DMT_CHECK_GT(weight, 0.0);
  PriorityEntry e{element, weight,
                  weight / site_rngs_[site].NextDoublePositive()};
  // tau_ only moves in a drain; within a round every site compares
  // against the threshold of the last broadcast, exactly like a real site
  // that has not yet seen the next one.
  if (e.priority < tau_) return;  // not sampled; no message
  network_.RecordElement(site);
  outbox_[site].push_back(e);
}

void P3SamplingWoR::DrainSite(size_t site) {
  for (const PriorityEntry& e : outbox_[site]) {
    // A message can arrive after tau doubled past it (sent before the
    // broadcast of this round reached the site). The coordinator drops
    // it: the pool invariant is "items with priority >= current tau".
    if (e.priority < tau_) continue;
    if (e.priority >= 2.0 * tau_) {
      q_next_.push_back(e);
      EndRoundIfNeeded();
    } else {
      q_cur_.push_back(e);
    }
  }
  outbox_[site].clear();
}

void P3SamplingWoR::EndRoundIfNeeded() {
  while (q_next_.size() >= s_) {
    tau_ *= 2.0;
    tau_ever_doubled_ = true;
    network_.RecordBroadcast();
    network_.RecordRound();
    // Q_cur is discarded; Q_next is re-partitioned against the new tau.
    q_cur_.clear();
    std::vector<PriorityEntry> promoted;
    for (const auto& e : q_next_) {
      if (e.priority >= 2.0 * tau_) {
        promoted.push_back(e);
      } else {
        q_cur_.push_back(e);
      }
    }
    q_next_ = std::move(promoted);
  }
}

std::vector<PriorityEntry> P3SamplingWoR::CurrentSample() const {
  std::vector<PriorityEntry> pool = q_cur_;
  pool.insert(pool.end(), q_next_.begin(), q_next_.end());
  // While tau has never doubled every arriving item was forwarded (weights
  // are >= 1 = tau), so the pool *is* the stream and estimates are exact.
  if (!tau_ever_doubled_) return pool;
  return AdjustedSample(std::move(pool));
}

double P3SamplingWoR::EstimateElementWeight(uint64_t element) const {
  double sum = 0.0;
  for (const auto& e : CurrentSample()) {
    if (e.element == element) sum += e.weight;
  }
  return sum;
}

double P3SamplingWoR::EstimateTotalWeight() const {
  double sum = 0.0;
  for (const auto& e : CurrentSample()) sum += e.weight;
  return sum;
}

const stream::CommStats& P3SamplingWoR::comm_stats() const {
  return network_.stats();
}

std::vector<uint64_t> P3SamplingWoR::TrackedElements() const {
  std::unordered_set<uint64_t> seen;
  for (const auto& e : q_cur_) seen.insert(e.element);
  for (const auto& e : q_next_) seen.insert(e.element);
  // dmt-lint: allow(determinism-unordered-iter): drained into a vector and
  // sorted below so callers observe a replay-stable order.
  std::vector<uint64_t> out(seen.begin(), seen.end());
  std::sort(out.begin(), out.end());
  return out;
}

P3SamplingWR::P3SamplingWR(size_t num_sites, double eps, uint64_t seed,
                           size_t sample_size)
    : s_(sample_size != 0 ? sample_size : SampleSizeForEpsilon(eps)),
      network_(num_sites),
      site_rngs_(MakeSiteRngs(num_sites, seed)),
      slots_(s_),
      slots_below_2tau_(s_),
      outbox_(num_sites) {}

void P3SamplingWR::SiteUpdate(size_t site, uint64_t element, double weight) {
  DMT_CHECK_LT(site, site_rngs_.size());
  DMT_CHECK_GT(weight, 0.0);
  Rng& rng = site_rngs_[site];
  // Success probability per sampler: P[rho >= tau] = min(1, w/tau), with
  // tau the last broadcast threshold the site knows.
  const double p = std::min(1.0, weight / tau_);
  if (p <= 0.0) return;

  // Geometric skips over the s samplers: visit exactly the successes.
  size_t t;
  if (p >= 1.0) {
    t = 0;
  } else {
    t = static_cast<size_t>(std::log(rng.NextDoublePositive()) /
                            std::log(1.0 - p));
  }
  PendingSends sends{element, weight, {}};
  while (t < s_) {
    // Priority conditioned on success: u ~ Unif(0, min(1, w/tau)].
    const double u = rng.NextDoublePositive() * p;
    sends.hits.emplace_back(t, weight / u);
    network_.RecordElement(site);
    if (p >= 1.0) {
      ++t;
    } else {
      t += 1 + static_cast<size_t>(std::log(rng.NextDoublePositive()) /
                                   std::log(1.0 - p));
    }
  }
  if (!sends.hits.empty()) outbox_[site].push_back(std::move(sends));
}

void P3SamplingWR::ApplySlotUpdate(size_t t, uint64_t element, double weight,
                                   double rho) {
  Slot& slot = slots_[t];
  if (rho > slot.top.priority) {
    const double old_second = slot.second_priority;
    slot.second_priority = slot.top.priority;
    slot.top = PriorityEntry{element, weight, rho};
    if (old_second <= 2.0 * tau_ && slot.second_priority > 2.0 * tau_) {
      --slots_below_2tau_;
    }
  } else if (rho > slot.second_priority) {
    if (slot.second_priority <= 2.0 * tau_ && rho > 2.0 * tau_) {
      --slots_below_2tau_;
    }
    slot.second_priority = rho;
  }
}

void P3SamplingWR::DrainSite(size_t site) {
  for (const PendingSends& sends : outbox_[site]) {
    for (const auto& [t, rho] : sends.hits) {
      ApplySlotUpdate(t, sends.element, sends.weight, rho);
    }
    // One round check per element, matching the per-element serial
    // schedule (a batch of hits for one element ends with one check).
    EndRoundIfNeeded();
  }
  outbox_[site].clear();
}

void P3SamplingWR::EndRoundIfNeeded() {
  while (slots_below_2tau_ == 0) {
    tau_ *= 2.0;
    network_.RecordBroadcast();
    network_.RecordRound();
    slots_below_2tau_ = 0;
    for (const Slot& slot : slots_) {
      if (slot.second_priority <= 2.0 * tau_) ++slots_below_2tau_;
    }
  }
}

double P3SamplingWR::EstimateTotalWeight() const {
  // Each second-highest priority is an unbiased estimator of W.
  double sum = 0.0;
  size_t live = 0;
  for (const Slot& slot : slots_) {
    if (slot.top.priority > 0.0) {
      sum += slot.second_priority;
      ++live;
    }
  }
  return live == 0 ? 0.0 : sum / static_cast<double>(live);
}

double P3SamplingWR::EstimateElementWeight(uint64_t element) const {
  const double what = EstimateTotalWeight();
  size_t hits = 0;
  size_t live = 0;
  for (const Slot& slot : slots_) {
    if (slot.top.priority > 0.0) {
      ++live;
      if (slot.top.element == element) ++hits;
    }
  }
  if (live == 0) return 0.0;
  return what * static_cast<double>(hits) / static_cast<double>(live);
}

const stream::CommStats& P3SamplingWR::comm_stats() const {
  return network_.stats();
}

std::vector<uint64_t> P3SamplingWR::TrackedElements() const {
  std::unordered_set<uint64_t> seen;
  for (const Slot& slot : slots_) {
    if (slot.top.priority > 0.0) seen.insert(slot.top.element);
  }
  // dmt-lint: allow(determinism-unordered-iter): drained into a vector and
  // sorted below so callers observe a replay-stable order.
  std::vector<uint64_t> out(seen.begin(), seen.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace hh
}  // namespace dmt
