#include "matrix/mp3_sampling.h"

#include <algorithm>
#include <cmath>

#include "hh/p3_sampling.h"  // SampleSizeForEpsilon
#include "linalg/vec_ops.h"
#include "util/check.h"

namespace dmt {
namespace matrix {
MP3SamplingWoR::MP3SamplingWoR(size_t num_sites, double eps, uint64_t seed,
                               size_t sample_size)
    : s_(sample_size != 0 ? sample_size : hh::SampleSizeForEpsilon(eps)),
      network_(num_sites),
      site_rngs_(MakeSiteRngs(num_sites, seed)),
      outbox_(num_sites) {}

void MP3SamplingWoR::SiteUpdate(size_t site, const std::vector<double>& row) {
  DMT_CHECK_LT(site, site_rngs_.size());
  const double w = linalg::SquaredNorm(row);
  if (w <= 0.0) return;  // zero rows carry no covariance mass
  const double rho = w / site_rngs_[site].NextDoublePositive();
  // tau_ only moves in a drain; within a round every site compares
  // against the threshold of the last broadcast it has seen.
  if (rho < tau_) return;
  network_.RecordVector(site);
  outbox_[site].push_back(SampledRow{row, w, rho});
}

void MP3SamplingWoR::DrainSite(size_t site) {
  for (SampledRow& sr : outbox_[site]) {
    // Rows can arrive after tau doubled past their priority (sent before
    // this round's broadcast reached the site); the coordinator drops
    // them to keep the pool invariant "priority >= current tau".
    if (sr.priority < tau_) continue;
    if (sr.priority >= 2.0 * tau_) {
      q_next_.push_back(std::move(sr));
      EndRoundIfNeeded();
    } else {
      q_cur_.push_back(std::move(sr));
    }
  }
  outbox_[site].clear();
}

void MP3SamplingWoR::EndRoundIfNeeded() {
  while (q_next_.size() >= s_) {
    tau_ *= 2.0;
    tau_ever_doubled_ = true;
    network_.RecordBroadcast();
    network_.RecordRound();
    q_cur_.clear();
    std::vector<SampledRow> promoted;
    for (auto& e : q_next_) {
      if (e.priority >= 2.0 * tau_) {
        promoted.push_back(std::move(e));
      } else {
        q_cur_.push_back(std::move(e));
      }
    }
    q_next_ = std::move(promoted);
  }
}

linalg::Matrix MP3SamplingWoR::CoordinatorSketch() const {
  linalg::Matrix b;
  std::vector<const SampledRow*> pool;
  pool.reserve(q_cur_.size() + q_next_.size());
  for (const auto& e : q_cur_) pool.push_back(&e);
  for (const auto& e : q_next_) pool.push_back(&e);
  if (pool.empty()) return b;

  // While the threshold never doubled, every row was forwarded: B = A.
  if (!tau_ever_doubled_) {
    for (const auto* e : pool) b.AppendRow(e->row);
    return b;
  }

  // Priority-sampling estimate: the smallest priority acts as rho-hat and
  // its row is dropped; every kept row is rescaled to squared norm
  // max(w, rho-hat).
  auto min_it = std::min_element(
      pool.begin(), pool.end(), [](const SampledRow* a, const SampledRow* b) {
        return a->priority < b->priority;
      });
  const double rho_hat = (*min_it)->priority;
  for (const auto* e : pool) {
    if (e == *min_it) continue;
    if (e->weight >= rho_hat) {
      b.AppendRow(e->row);
    } else {
      std::vector<double> scaled = e->row;
      linalg::Scale(std::sqrt(rho_hat / e->weight), scaled.data(),
                    scaled.size());
      b.AppendRow(scaled);
    }
  }
  return b;
}

const stream::CommStats& MP3SamplingWoR::comm_stats() const {
  return network_.stats();
}

MP3SamplingWR::MP3SamplingWR(size_t num_sites, double eps, uint64_t seed,
                             size_t sample_size)
    : s_(sample_size != 0 ? sample_size : hh::SampleSizeForEpsilon(eps)),
      network_(num_sites),
      site_rngs_(MakeSiteRngs(num_sites, seed)),
      slots_(s_),
      slots_below_2tau_(s_),
      outbox_(num_sites) {}

void MP3SamplingWR::SiteUpdate(size_t site, const std::vector<double>& row) {
  DMT_CHECK_LT(site, site_rngs_.size());
  const double w = linalg::SquaredNorm(row);
  if (w <= 0.0) return;
  Rng& rng = site_rngs_[site];
  const double p = std::min(1.0, w / tau_);
  size_t t;
  if (p >= 1.0) {
    t = 0;
  } else {
    t = static_cast<size_t>(std::log(rng.NextDoublePositive()) /
                            std::log(1.0 - p));
  }
  PendingSends sends{row, w, {}};
  while (t < s_) {
    const double u = rng.NextDoublePositive() * p;
    sends.hits.emplace_back(t, w / u);
    network_.RecordVector(site);
    if (p >= 1.0) {
      ++t;
    } else {
      t += 1 + static_cast<size_t>(std::log(rng.NextDoublePositive()) /
                                   std::log(1.0 - p));
    }
  }
  if (!sends.hits.empty()) outbox_[site].push_back(std::move(sends));
}

void MP3SamplingWR::ApplySlotUpdate(size_t t, const std::vector<double>& row,
                                    double weight, double rho) {
  Slot& slot = slots_[t];
  if (rho > slot.top_priority) {
    const double old_second = slot.second_priority;
    slot.second_priority = slot.top_priority;
    slot.row = row;
    slot.weight = weight;
    slot.top_priority = rho;
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

void MP3SamplingWR::DrainSite(size_t site) {
  for (const PendingSends& sends : outbox_[site]) {
    for (const auto& [t, rho] : sends.hits) {
      ApplySlotUpdate(t, sends.row, sends.weight, rho);
    }
    // One round check per row, matching the per-row serial schedule.
    EndRoundIfNeeded();
  }
  outbox_[site].clear();
}

void MP3SamplingWR::EndRoundIfNeeded() {
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

linalg::Matrix MP3SamplingWR::CoordinatorSketch() const {
  // W-hat = mean of the per-sampler second priorities (unbiased for W);
  // each sampled row is rescaled to carry exactly W-hat/s squared norm.
  linalg::Matrix b;
  double sum_second = 0.0;
  size_t live = 0;
  for (const Slot& slot : slots_) {
    if (slot.top_priority > 0.0) {
      sum_second += slot.second_priority;
      ++live;
    }
  }
  if (live == 0) return b;
  const double what = sum_second / static_cast<double>(live);
  const double target = what / static_cast<double>(live);
  for (const Slot& slot : slots_) {
    if (slot.top_priority <= 0.0) continue;
    std::vector<double> scaled = slot.row;
    linalg::Scale(std::sqrt(target / slot.weight), scaled.data(),
                  scaled.size());
    b.AppendRow(scaled);
  }
  return b;
}

const stream::CommStats& MP3SamplingWR::comm_stats() const {
  return network_.stats();
}

}  // namespace matrix
}  // namespace dmt
