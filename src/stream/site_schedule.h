// Home-range window scheduling: the SoA work plan and per-lane state
// behind stream::SimulationDriver.
//
// The driver runs `L` lanes. Lane i owns the fixed home range of site ids
// [i*m/L, (i+1)*m/L) for the whole run and always runs on the same thread
// (util/thread_pool.h binds RunBatch slot i to one thread), so a site's
// state stays in one core's cache from window to window. Three parts:
//
//  1. WindowPlan — a structure-of-arrays partition of one window's
//     arrivals into per-site runs (CSR layout: ascending active-site
//     list, offset array, flattened arrival indices), rebuilt in O(window
//     arrivals + k log k) per window where k is the number of sites that
//     actually received something. Nothing is ever scanned per-site over
//     all m sites, and the site-keyed scratch arrays are cache-line
//     aligned (util/aligned.h) and reused across windows. A lane finds
//     its slice of the active list by binary search at its home range's
//     boundaries (LaneSlots).
//
//  2. WorkerLane — per-lane state, one cache line apart: the SPSC
//     pending-site publication buffer (written only by the owning lane
//     during the site phase, read only by the coordinator after the
//     window barrier — single producer, single consumer, no locks), the
//     streaming path's row scratch, and the lane's site count.
//
//  3. SchedulerStats — observability counters (windows, non-empty lane
//     ranges, sites scheduled) emitted into the BENCH_parallel_sites.json
//     envelope.
//
// Each lane walks its slice in ascending order and the home ranges are
// ascending in lane order, so the lanes' pending buffers, concatenated in
// lane order, are already the ascending-site total order the coordinator
// drains in — no sort. Which lane runs which site is scheduling only:
// per-site results never depend on it, which is what keeps replay
// bit-identical for any lane count. There is no work stealing: a stolen
// site would move its state to another core, the cost this design
// removes.
#ifndef DMT_STREAM_SITE_SCHEDULE_H_
#define DMT_STREAM_SITE_SCHEDULE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/aligned.h"

namespace dmt {
namespace stream {

/// Deterministic aggregate counters for the home-range scheduler.
/// Reset at the start of every SimulationDriver::Run.
struct SchedulerStats {
  uint64_t windows = 0;           ///< synchronization windows executed
  uint64_t batches_reserved = 0;  ///< non-empty lane ranges run, summed
                                  ///< over windows
  uint64_t sites_scheduled = 0;   ///< site-window executions

  double mean_sites_per_batch() const {
    return batches_reserved == 0
               ? 0.0
               : static_cast<double>(sites_scheduled) /
                     static_cast<double>(batches_reserved);
  }
};

/// Per-lane state, padded to a cache line so concurrent lanes never
/// false-share. All fields are owned by the lane's thread between two
/// window barriers; the coordinator reads them only after the barrier.
struct alignas(kCacheLineBytes) WorkerLane {
  /// SPSC publication buffer: sites this lane ran that still hold queued
  /// outbox messages, ascending (see file comment).
  std::vector<uint32_t> pending;
  /// Streaming-path row staging (one per lane, not one per site task).
  std::vector<double> row_scratch;
  uint64_t sites = 0;  ///< sites this lane executed this window
};

/// The SoA partition of one synchronization window's arrivals.
///
/// Build() takes the window's site assignment (sites[i] = site of the
/// window's i-th arrival, in stream order) and produces, reusing all
/// internal storage:
///   - active list: every site with >= 1 arrival, ascending;
///   - per-active-site runs: the window-relative arrival indices of that
///     site, in stream order (CSR: offsets_ into idx_).
/// Executing run p's arrivals in order, for all p, on any partition of
/// the active list across lanes, is exactly the serial window schedule.
class WindowPlan {
 public:
  /// Sizes the site-keyed scratch arrays; call once per Run.
  /// `num_sites` must fit a uint32 site id.
  void Reset(size_t num_sites);

  /// Partitions `count` arrivals with assignment `sites` (each < the
  /// Reset() num_sites). O(count) plus sorting the k active sites.
  void Build(const size_t* sites, size_t count);

  size_t num_sites() const { return num_sites_; }
  /// Number of sites with at least one arrival in this window.
  size_t active_count() const { return active_.size(); }
  /// Site id of active slot p (ascending in p).
  uint32_t site_at(size_t p) const { return active_[p]; }
  /// Window-relative arrival indices of active slot p, stream order.
  const uint32_t* arrivals(size_t p, size_t* len) const {
    *len = offsets_[p + 1] - offsets_[p];
    return idx_.data() + offsets_[p];
  }
  /// Active slots [*begin, *end) of lane `lane` out of `lanes`: the
  /// active sites in the lane's home range [lane*m/lanes,
  /// (lane+1)*m/lanes), m = num_sites(). O(log active_count()).
  void LaneSlots(size_t lane, size_t lanes, size_t* begin,
                 size_t* end) const;

 private:
  size_t num_sites_ = 0;
  uint32_t epoch_ = 0;
  // Site-keyed scratch (size num_sites_): which window a site was last
  // active in, and its slot in that window's active list. Epoch stamping
  // avoids an O(m) clear per window.
  CacheAlignedVector<uint32_t> last_epoch_;
  CacheAlignedVector<uint32_t> slot_;
  // Window-local CSR (size ~ active/arrival count, reused).
  CacheAlignedVector<uint32_t> active_;   // ascending site ids
  CacheAlignedVector<uint32_t> offsets_;  // active slot -> idx_ range
  CacheAlignedVector<uint32_t> idx_;      // flattened arrival indices
  CacheAlignedVector<uint32_t> fill_;     // per-slot fill cursor (Build)
};

}  // namespace stream
}  // namespace dmt

#endif  // DMT_STREAM_SITE_SCHEDULE_H_
