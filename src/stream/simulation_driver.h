// Parallel multi-site simulation engine with deterministic replay.
//
// The paper's star network has m sites streaming concurrently, but the
// protocols themselves are driven element-by-element. This driver closes
// the gap: it partitions a materialized stream by router assignment and
// runs each site's local sketch updates (SiteUpdate) concurrently on a
// fixed thread pool, while every coordinator interaction — merges,
// broadcasts, round transitions — happens at explicit synchronization
// points between chunks of the stream.
//
// Schedule. The stream is cut into chunks of `chunk_elements` arrivals (in
// stream order), preceded by one short bootstrap round of ~one arrival per
// site (protocols start with zero broadcast thresholds; syncing early
// bounds the bootstrap message traffic to O(num_sites) instead of one
// message per arrival for a whole chunk). Within a chunk every site
// processes exactly its assigned arrivals, in stream order, reading only
// its own state plus the last-broadcast values (which are frozen for the
// whole chunk). At the chunk boundary the coordinator drains all queued
// site messages in ascending site order.
//
// Execution. Each window is partitioned once into a CSR plan over the
// sites that actually received arrivals (stream::WindowPlan — no O(m)
// scans, no per-site allocations). The driver runs L = `threads` lanes,
// and lane i owns the fixed home range of site ids [i*m/L, (i+1)*m/L)
// for the whole run. Lanes are bound to threads: the calling
// (coordinator) thread runs lane 0 and pool worker j always runs lane
// j + 1 (ThreadPool::RunBatch), so a site's per-site state stays in one
// core's cache across windows. Each lane finds its slice of the ascending
// active-site list by binary search and executes those sites' arrivals in
// stream order. A site whose outbox holds queued messages after its last
// arrival is published into the lane's single-producer pending buffer;
// after the window barrier the coordinator concatenates those buffers in
// lane order — already ascending, since the home ranges are — and drains
// exactly the pending sites via SynchronizeSites: ascending site, emission
// order within a site, without touching the m - k idle sites.
//
//   Determinism guarantee: for a fixed (protocol seed, router assignment,
//   chunk_elements), runs with ANY number of threads produce bit-identical
//   coordinator state, CommStats and per-site message counts to the serial
//   execution of the same schedule. Per-site work touches only per-site
//   state (the protocols' SiteUpdate contract and per-site RNG streams),
//   per-site network shards, and per-site outboxes, so which lane runs
//   which site is scheduling only; the coordinator phase is
//   single-threaded and replays the fixed ascending-site order. Only the
//   SchedulerStats observability counters (e.g. batches_reserved) may
//   differ across thread counts.
//
// Protocols that do not support concurrent site updates (e.g. the
// experimental MP4, whose coordinator exchange is interleaved with the
// site update) automatically fall back to the serial schedule — same
// results, no parallelism.
#ifndef DMT_STREAM_SIMULATION_DRIVER_H_
#define DMT_STREAM_SIMULATION_DRIVER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "hh/hh_protocol.h"
#include "matrix/matrix_protocol.h"
#include "stream/router.h"
#include "stream/site_schedule.h"
#include "util/thread_pool.h"

namespace dmt {
namespace stream {

/// Driver configuration.
struct SimulationOptions {
  /// Lanes for the site phase, one of which is the thread calling Run
  /// (so N lanes spawn N - 1 pool workers). 0 = resolve from the
  /// DMT_THREADS environment variable, falling back to
  /// hardware_concurrency.
  size_t threads = 0;
  /// Stream arrivals between two coordinator synchronization points. This
  /// is part of the simulated schedule: changing it changes (slightly) the
  /// message pattern, so keep it fixed when comparing runs.
  size_t chunk_elements = 8192;
};

/// Effective thread count: `requested` if > 0, else the DMT_THREADS
/// environment variable if set, else std::thread::hardware_concurrency()
/// (minimum 1). A DMT_THREADS value that is not a positive integer is a
/// hard error (exits with a diagnostic — a typo'd value silently running
/// serial would invalidate a benchmark). Counts above 4x the hardware
/// concurrency are clamped to that cap with a logged warning:
/// oversubscription past that point only adds scheduling noise, and the
/// determinism guarantee makes the results identical anyway.
size_t ResolveThreadCount(size_t requested);

/// Parses a `<flag> N` / `<flag>=N` command-line option (shared by benches
/// and examples); returns `fallback` when absent.
size_t ParseSizeArg(int argc, char** argv, const char* flag,
                    size_t fallback);

/// Parses `--threads`; returns 0 — "auto", resolved by the driver via
/// ResolveThreadCount — when the flag is absent. A present flag must be a
/// positive integer: 0, negatives and garbage are hard errors (exit with
/// a diagnostic), matching the DMT_THREADS contract.
size_t ParseThreadsArg(int argc, char** argv);

/// Parses `--chunk` (arrivals per synchronization round); returns
/// `fallback` when the flag is absent.
size_t ParseChunkArg(int argc, char** argv, size_t fallback);

/// One weighted heavy-hitter arrival, as materialized for the driver.
struct WeightedUpdate {
  uint64_t element = 0;
  double weight = 1.0;
};

/// Materializes the router's site assignment for `n` arrivals (the
/// partition step of the driver; also handy for tests that need the exact
/// same assignment across runs).
std::vector<size_t> AssignSites(Router* router, size_t n);

/// The driver's synchronization-window schedule: the exclusive end index
/// of every window for an n-arrival stream — one bootstrap window of
/// min(chunk_elements, num_sites) arrivals, then full chunks of
/// chunk_elements. Both RunImpl and the wire transport (src/net) run
/// exactly this schedule, which is what makes a distributed run replay
/// the in-process oracle bit-identically.
std::vector<size_t> WindowEnds(size_t n, size_t chunk_elements,
                               size_t num_sites);

/// Passed to the driver's window callback after each coordinator drain.
struct WindowEndInfo {
  /// 1-based index of the window that just drained (1 = bootstrap).
  uint64_t window_index = 0;
  /// Stream arrivals absorbed so far, including this window.
  uint64_t arrivals_total = 0;
};

/// Runs protocols over materialized streams with the schedule above.
class SimulationDriver {
 public:
  explicit SimulationDriver(const SimulationOptions& options = {});
  ~SimulationDriver();

  SimulationDriver(const SimulationDriver&) = delete;
  SimulationDriver& operator=(const SimulationDriver&) = delete;

  /// Effective lane count for the site phase (the calling thread plus
  /// threads() - 1 pool workers).
  size_t threads() const { return threads_; }
  size_t chunk_elements() const { return options_.chunk_elements; }

  /// Registers a callback invoked on the coordinator thread immediately
  /// after every window's drain, while no site work is in flight — the
  /// one moment the protocol's between-rounds query contract
  /// (CoordinatorSketch / comm_stats / ExportSnapshot*) holds mid-run.
  /// The serving layer (serve::ServingCoordinator) publishes snapshots
  /// from here. The callback is part of the observer plane, never the
  /// schedule: registering one must not change any protocol state or
  /// message counts. Pass an empty function to clear.
  void set_window_callback(std::function<void(const WindowEndInfo&)> cb) {
    window_callback_ = std::move(cb);
  }

  /// Scheduler counters of the most recent Run (reset at each Run start).
  /// windows and sites_scheduled are schedule-determined and
  /// thread-count-invariant; batches_reserved (non-empty lane ranges)
  /// depends on the lane count (observability, never fed back into the
  /// simulation).
  const SchedulerStats& scheduler_stats() const { return stats_; }

  /// Drives a heavy-hitter protocol: items[i] arrives at sites[i].
  /// `sites` and `items` must have equal length.
  void Run(hh::HeavyHitterProtocol* protocol,
           const std::vector<size_t>& sites,
           const std::vector<WeightedUpdate>& items);

  /// Drives a matrix protocol: rows[i] arrives at sites[i].
  void Run(matrix::MatrixTrackingProtocol* protocol,
           const std::vector<size_t>& sites,
           const std::vector<std::vector<double>>& rows);

  /// Streams rows straight from a dataset source (data/dataset.h) without
  /// materializing the whole stream: each synchronization window reads
  /// its rows via NextChunk() and assigns sites from `router` in stream
  /// order, so at most one window (`chunk_elements` rows) is in memory.
  /// The schedule — bootstrap window of min(chunk_elements,
  /// router->num_sites()) arrivals, then full chunks, coordinator drain
  /// at every boundary — matches the materialized Run(), and results are
  /// bit-identical to it (and across thread counts) for the same router
  /// sequence and rows. Feeds until `max_rows` rows (0 = until the source
  /// is exhausted; the source must then be finite) and returns the number
  /// of rows actually fed.
  size_t Run(matrix::MatrixTrackingProtocol* protocol, Router* router,
             data::DatasetSource* source, size_t max_rows = 0);

 private:
  template <typename Protocol, typename Item>
  void RunImpl(Protocol* protocol, const std::vector<size_t>& sites,
               const std::vector<Item>& items, bool concurrent);

  /// Runs the already-Built plan_'s site phase (every lane over its home
  /// range, or one lane over all sites when the protocol is serial) and
  /// the coordinator drain.
  /// `apply(site, rel, lane)` processes the window-relative arrival `rel`
  /// at `site` using `lane`'s scratch.
  template <typename Protocol, typename Apply>
  void ExecuteWindow(Protocol* protocol, bool concurrent,
                     const Apply& apply);

  SimulationOptions options_;
  size_t threads_;
  std::unique_ptr<ThreadPool> pool_;  // threads_ - 1 workers, if any
  WindowPlan plan_;                   // per-window CSR partition, reused
  std::vector<WorkerLane> lanes_;     // cache-line-apart lane state
  std::vector<uint32_t> drain_sites_; // merged pending sites, ascending
  SchedulerStats stats_;
  std::function<void(const WindowEndInfo&)> window_callback_;
};

}  // namespace stream
}  // namespace dmt

#endif  // DMT_STREAM_SIMULATION_DRIVER_H_
