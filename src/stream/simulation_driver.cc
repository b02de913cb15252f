#include "stream/simulation_driver.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>

#include "util/check.h"
#include "util/env.h"

namespace dmt {
namespace stream {
namespace {

// Payload dispatch: the driver schedule is identical for both protocol
// families; only the SiteUpdate signature differs.
inline void ApplyItem(hh::HeavyHitterProtocol* p, size_t site,
                      const WeightedUpdate& item) {
  p->SiteUpdate(site, item.element, item.weight);
}

inline void ApplyItem(matrix::MatrixTrackingProtocol* p, size_t site,
                      const std::vector<double>& row) {
  p->SiteUpdate(site, row);
}

// Full-consumption parse (like GetEnvInt): "12abc", "", and negatives are
// rejected with a warning rather than silently becoming a number — a bad
// --chunk value would otherwise silently run a very different schedule.
size_t ParseSizeValueOr(const char* flag, const char* value,
                        size_t fallback) {
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || std::strchr(value, '-') != nullptr) {
    std::fprintf(stderr, "warning: ignoring %s=%s (not a non-negative "
                 "integer); using %zu\n", flag, value, fallback);
    return fallback;
  }
  return static_cast<size_t>(parsed);
}

// Strict thread-count parse: positive integer or die. Unlike the sizes
// above there is no safe fallback — "--threads 0" silently running the
// hardware default would invalidate whatever comparison the caller was
// setting up.
size_t ParseStrictThreadValue(const char* what, const char* value) {
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || std::strchr(value, '-') != nullptr ||
      parsed == 0) {
    std::fprintf(stderr,
                 "error: %s=%s is not a positive integer; "
                 "use a count >= 1 (or unset it for the hardware default)\n",
                 what, value);
    std::exit(2);
  }
  return static_cast<size_t>(parsed);
}

size_t HardwareThreads() {
  // dmt-lint: allow(determinism-thread-fp): pool sizing only — the window
  // schedule and drain order are fixed regardless of pool size, so results
  // are identical for any count (simulation_driver_test, parallel_scale_test).
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<size_t>(hc);
}

}  // namespace

size_t ParseSizeArg(int argc, char** argv, const char* flag,
                    size_t fallback) {
  const size_t flag_len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, flag) == 0 && i + 1 < argc) {
      return ParseSizeValueOr(flag, argv[i + 1], fallback);
    }
    if (std::strncmp(arg, flag, flag_len) == 0 && arg[flag_len] == '=') {
      return ParseSizeValueOr(flag, arg + flag_len + 1, fallback);
    }
  }
  return fallback;
}

size_t ParseThreadsArg(int argc, char** argv) {
  const char* flag = "--threads";
  const size_t flag_len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, flag) == 0 && i + 1 < argc) {
      return ParseStrictThreadValue(flag, argv[i + 1]);
    }
    if (std::strncmp(arg, flag, flag_len) == 0 && arg[flag_len] == '=') {
      return ParseStrictThreadValue(flag, arg + flag_len + 1);
    }
  }
  return 0;  // absent: auto (ResolveThreadCount)
}

size_t ParseChunkArg(int argc, char** argv, size_t fallback) {
  return ParseSizeArg(argc, argv, "--chunk", fallback);
}

size_t ResolveThreadCount(size_t requested) {
  size_t resolved;
  if (requested > 0) {
    resolved = requested;
  } else {
    const std::string env = GetEnvString("DMT_THREADS", "");
    if (!env.empty()) {
      resolved = ParseStrictThreadValue("DMT_THREADS", env.c_str());
    } else {
      resolved = HardwareThreads();
    }
  }
  // Oversubscription cap: beyond ~4x the hardware threads the extra lanes
  // only add context-switch noise. Results are unaffected (the schedule,
  // not the lane count, defines the semantics), so clamping is safe — but
  // say so, because the caller asked for something else.
  const size_t cap = 4 * HardwareThreads();
  if (resolved > cap) {
    std::fprintf(stderr,
                 "warning: clamping thread count %zu to %zu (4x the %zu "
                 "hardware threads); results are identical by the driver's "
                 "determinism guarantee\n",
                 resolved, cap, cap / 4);
    resolved = cap;
  }
  return resolved;
}

std::vector<size_t> AssignSites(Router* router, size_t n) {
  std::vector<size_t> sites(n);
  for (size_t i = 0; i < n; ++i) sites[i] = router->NextSite();
  return sites;
}

std::vector<size_t> WindowEnds(size_t n, size_t chunk_elements,
                               size_t num_sites) {
  std::vector<size_t> ends;
  if (n == 0) return ends;
  const size_t chunk = std::max<size_t>(1, chunk_elements);
  // Bootstrap round: protocols start with a zero broadcast value (W-hat /
  // F-hat / tau), which makes every site threshold 0 until the first
  // drain. A full chunk at threshold 0 would send one message per
  // arrival; a short first round (~one arrival per site) bounds that
  // bootstrap traffic to O(num_sites) messages. Part of the fixed
  // schedule, so determinism across thread counts is unaffected.
  const size_t bootstrap = std::min(chunk, std::max<size_t>(1, num_sites));
  size_t begin = 0;
  while (begin < n) {
    const size_t end = std::min(n, begin + (begin == 0 ? bootstrap : chunk));
    ends.push_back(end);
    begin = end;
  }
  return ends;
}

SimulationDriver::SimulationDriver(const SimulationOptions& options)
    : options_(options), threads_(ResolveThreadCount(options.threads)) {
  if (options_.chunk_elements == 0) options_.chunk_elements = 1;
  // The calling thread is lane 0, so `threads_` lanes need one worker
  // fewer.
  if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_ - 1);
  lanes_.resize(threads_);
}

SimulationDriver::~SimulationDriver() = default;

template <typename Protocol, typename Apply>
void SimulationDriver::ExecuteWindow(Protocol* protocol, bool concurrent,
                                     const Apply& apply) {
  ++stats_.windows;
  const size_t nlanes = concurrent && pool_ != nullptr ? lanes_.size() : 1;

  // One lane: run every active site of its home range in ascending order,
  // each site's arrivals in stream order, then publish the site for
  // draining if its outbox is non-empty. PendingOutboxSize reads only the
  // site's own queue (same concurrency contract as SiteUpdate), and
  // SIZE_MAX — "unknown" — publishes unconditionally, which is always
  // safe: draining an empty site is a no-op in every protocol.
  const auto run_lane = [&](size_t lane_id) {
    WorkerLane& lane = lanes_[lane_id];
    lane.pending.clear();
    size_t begin = 0;
    size_t end = 0;
    plan_.LaneSlots(lane_id, nlanes, &begin, &end);
    lane.sites = end - begin;
    for (size_t p = begin; p < end; ++p) {
      const uint32_t site = plan_.site_at(p);
      size_t len = 0;
      const uint32_t* rel = plan_.arrivals(p, &len);
      for (size_t j = 0; j < len; ++j) apply(site, rel[j], lane);
      if (protocol->PendingOutboxSize(site) > 0) lane.pending.push_back(site);
    }
  };

  // Lane 0 runs here and lane i on pool worker i - 1, every window, so a
  // site never changes threads. The RunBatch barrier makes all site work
  // happen-before the drain below.
  if (nlanes > 1) {
    pool_->RunBatch(nlanes, run_lane);
  } else {
    run_lane(0);
  }
  for (size_t i = 0; i < nlanes; ++i) {
    if (lanes_[i].sites > 0) ++stats_.batches_reserved;
    stats_.sites_scheduled += lanes_[i].sites;
  }

  // Coordinator drain. Each lane's pending buffer is ascending and the
  // home ranges ascend with the lane id, so the concatenation in lane
  // order is the ascending-site total order.
  drain_sites_.clear();
  for (size_t i = 0; i < nlanes; ++i) {
    drain_sites_.insert(drain_sites_.end(), lanes_[i].pending.begin(),
                        lanes_[i].pending.end());
  }
  protocol->SynchronizeSites(drain_sites_.data(), drain_sites_.size());
}

template <typename Protocol, typename Item>
void SimulationDriver::RunImpl(Protocol* protocol,
                               const std::vector<size_t>& sites,
                               const std::vector<Item>& items,
                               bool concurrent) {
  DMT_CHECK_EQ(sites.size(), items.size());
  stats_ = SchedulerStats{};
  const size_t n = items.size();
  if (n == 0) return;
  DMT_CHECK_LE(n, std::numeric_limits<uint32_t>::max());

  size_t num_sites = 0;
  for (size_t s : sites) num_sites = std::max(num_sites, s + 1);
  plan_.Reset(num_sites);

  // The window schedule (bootstrap + full chunks) is shared with the wire
  // transport via WindowEnds — see its comment for the bootstrap rationale.
  size_t begin = 0;
  uint64_t window_index = 0;
  for (const size_t end :
       WindowEnds(n, options_.chunk_elements, num_sites)) {
    plan_.Build(sites.data() + begin, end - begin);
    ExecuteWindow(protocol, concurrent,
                  [&](uint32_t site, uint32_t rel, WorkerLane&) {
                    ApplyItem(protocol, site, items[begin + rel]);
                  });
    begin = end;
    ++window_index;
    // Post-drain: no site work in flight, the protocol is in its
    // between-rounds state — safe for the callback to export snapshots.
    if (window_callback_) {
      window_callback_(WindowEndInfo{window_index, end});
    }
  }
}

void SimulationDriver::Run(hh::HeavyHitterProtocol* protocol,
                           const std::vector<size_t>& sites,
                           const std::vector<WeightedUpdate>& items) {
  RunImpl(protocol, sites, items,
          protocol->SupportsConcurrentSiteUpdates());
}

void SimulationDriver::Run(matrix::MatrixTrackingProtocol* protocol,
                           const std::vector<size_t>& sites,
                           const std::vector<std::vector<double>>& rows) {
  RunImpl(protocol, sites, rows,
          protocol->SupportsConcurrentSiteUpdates());
}

size_t SimulationDriver::Run(matrix::MatrixTrackingProtocol* protocol,
                             Router* router, data::DatasetSource* source,
                             size_t max_rows) {
  DMT_CHECK(router != nullptr);
  DMT_CHECK(source != nullptr);
  // An unbounded source (synthetic with no row budget) never returns a
  // short chunk, so "feed until exhaustion" would not terminate.
  DMT_CHECK(max_rows > 0 || source->info().rows > 0);

  const size_t num_sites = router->num_sites();
  const bool concurrent =
      protocol->SupportsConcurrentSiteUpdates() && pool_ != nullptr;
  const size_t chunk = options_.chunk_elements;
  // Same bootstrap rationale as WindowEnds: a short first round bounds the
  // zero-threshold startup traffic to O(num_sites). RunImpl derives
  // num_sites from the materialized assignment (max site + 1); here the
  // router declares it up front — identical once every site receives at
  // least one arrival.
  const size_t bootstrap = std::min(chunk, num_sites);

  stats_ = SchedulerStats{};
  plan_.Reset(num_sites);

  linalg::Matrix window;      // rows of the current window
  std::vector<size_t> sites;  // site of window row i
  size_t fed = 0;
  uint64_t window_index = 0;
  bool first = true;
  while (max_rows == 0 || fed < max_rows) {
    size_t want = first ? bootstrap : chunk;
    if (max_rows != 0) want = std::min(want, max_rows - fed);
    window.ClearRows();
    const size_t got = source->NextChunk(want, &window);
    if (got == 0) break;
    DMT_CHECK_LE(got, std::numeric_limits<uint32_t>::max());

    sites.resize(got);
    for (size_t i = 0; i < got; ++i) {
      sites[i] = router->NextSite();
      DMT_CHECK_LT(sites[i], num_sites);
    }
    plan_.Build(sites.data(), got);

    // Site phase: within the window each site processes exactly its
    // arrivals in stream order, touching only per-site state. Rows are
    // staged through the lane's reusable scratch (one buffer per lane,
    // not one allocation per site task).
    const size_t cols = window.cols();
    ExecuteWindow(protocol, concurrent,
                  [&](uint32_t site, uint32_t rel, WorkerLane& lane) {
                    lane.row_scratch.resize(cols);
                    std::memcpy(lane.row_scratch.data(), window.Row(rel),
                                cols * sizeof(double));
                    protocol->SiteUpdate(site, lane.row_scratch);
                  });
    fed += got;
    first = false;
    ++window_index;
    if (window_callback_) {
      window_callback_(WindowEndInfo{window_index, fed});
    }
  }
  return fed;
}

}  // namespace stream
}  // namespace dmt
