#include "stream/site_schedule.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace dmt {
namespace stream {

void WindowPlan::Reset(size_t num_sites) {
  DMT_CHECK_LE(num_sites, std::numeric_limits<uint32_t>::max());
  num_sites_ = num_sites;
  // Fresh epoch space: zero-fill once so stale stamps from a previous Run
  // (with a different site count) can never alias epoch 0.
  last_epoch_.assign(num_sites, 0);
  slot_.assign(num_sites, 0);
  epoch_ = 0;
  active_.clear();
  offsets_.clear();
  idx_.clear();
  fill_.clear();
}

void WindowPlan::Build(const size_t* sites, size_t count) {
  DMT_CHECK_LE(count, std::numeric_limits<uint32_t>::max());
  // Epoch 0 is the "never seen" stamp of a fresh Reset(); on wraparound,
  // re-clear instead of aliasing it.
  if (++epoch_ == 0) {
    std::fill(last_epoch_.begin(), last_epoch_.end(), 0u);
    epoch_ = 1;
  }

  // Pass 1: discover the active sites of this window.
  active_.clear();
  for (size_t i = 0; i < count; ++i) {
    const size_t s = sites[i];
    DMT_CHECK_LT(s, num_sites_);
    if (last_epoch_[s] != epoch_) {
      last_epoch_[s] = epoch_;
      active_.push_back(static_cast<uint32_t>(s));
    }
  }
  // Ascending site ids: each lane's home range is then one contiguous
  // slice (cache-dense walks of the protocols' per-site arrays), and the
  // lanes' pending lists concatenate in drain order.
  std::sort(active_.begin(), active_.end());

  const size_t k = active_.size();
  for (size_t p = 0; p < k; ++p) slot_[active_[p]] = static_cast<uint32_t>(p);

  // Pass 2: per-site arrival counts -> CSR offsets.
  offsets_.assign(k + 1, 0);
  for (size_t i = 0; i < count; ++i) ++offsets_[slot_[sites[i]] + 1];
  for (size_t p = 0; p < k; ++p) offsets_[p + 1] += offsets_[p];

  // Pass 3: flatten arrival indices, stream order within each site.
  idx_.resize(count);
  fill_.assign(offsets_.begin(), offsets_.end() - 1);
  for (size_t i = 0; i < count; ++i) {
    idx_[fill_[slot_[sites[i]]]++] = static_cast<uint32_t>(i);
  }
}

void WindowPlan::LaneSlots(size_t lane, size_t lanes, size_t* begin,
                           size_t* end) const {
  DMT_CHECK_LT(lane, lanes);
  const auto first_at = [this](size_t site) {
    return static_cast<size_t>(
        std::lower_bound(active_.begin(), active_.end(), site) -
        active_.begin());
  };
  *begin = first_at(lane * num_sites_ / lanes);
  *end = first_at((lane + 1) * num_sites_ / lanes);
}

}  // namespace stream
}  // namespace dmt
