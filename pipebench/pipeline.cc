// Pipeline benchmark: drives one workload through the whole path —
// source -> stream::SimulationDriver (or the net run loops) -> protocol
// -> serve publish -> concurrent queries — checks that every pass is
// correct, and prints the metrics as one JSON line. See README.md next
// to this file for the workloads, metrics and the traced run.
//
// Usage:
//   pipeline --workload hh_p2_zipf|matrix_mp1_pamap|wire_mp2_tcp
//            --seed N --seconds S --trace 0|1 [--tmp DIR] [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics of untraced passes; --trace 1
// adds traced passes (timing proxies installed, see layers.h) and prints
// the per-layer metrics instead. Either way the last stdout line is
// {"correct", "attempted", "failed", "metrics"}, preceded by one
// {"envelope": ...} line describing the host and the configuration.
// Exit status is 0 only when every pass passed every check.
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/dmtbin.h"
#include "data/synthetic_matrix.h"
#include "data/zipf.h"
#include "hh/p2_threshold.h"
#include "layers.h"
#include "matrix/error.h"
#include "matrix/mp1_batched_fd.h"
#include "net/remote.h"
#include "net/transport.h"
#include "net/workload.h"
#include "serve/query_engine.h"
#include "serve/serving_coordinator.h"
#include "serve/snapshot.h"
#include "serve/snapshot_store.h"
#include "stream/router.h"
#include "stream/simulation_driver.h"
#include "util/check.h"

namespace pipebench {
namespace {

using namespace dmt;

// ---------------------------------------------------------------------
// Workload parameters.
// ---------------------------------------------------------------------

// hh_p2_zipf: P2 over a Zipf(1.5) weighted stream.
constexpr size_t kHhSites = 32;
constexpr double kHhEps = 0.01;
constexpr size_t kHhChunk = 8192;
constexpr size_t kHhItems = 3000000;
constexpr uint64_t kHhUniverse = 100000;
constexpr double kHhSkew = 1.5;
constexpr double kHhBeta = 100.0;
constexpr double kHhPhi = 0.02;

// matrix_mp1_pamap: MP1 over PAMAP-like rows streamed from a .dmtbin.
constexpr size_t kMxSites = 32;
constexpr double kMxEps = 0.1;
constexpr size_t kMxRows = 12000;
constexpr size_t kMxChunk = 96;  // 126 windows

// wire_mp2_tcp: MP2 over TCP loopback.
constexpr size_t kWireSites = 3;
constexpr double kWireEps = 0.1;
constexpr size_t kWireRows = 100000;
constexpr size_t kWireChunk = 1024;
// Reader loops after each run, and ops in each.
constexpr size_t kWireQueryLoops = 10;
constexpr size_t kWireQueryOps = 5000;

constexpr size_t kDim = 44;          // PAMAP's d
constexpr size_t kLanes = 2;         // driver worker threads
constexpr int kSetupReps = 9;        // setup_s is the median of these
// The traced pass's per-layer seconds must add up to its wall time
// within this share of the wall time.
constexpr double kSumTolerance = 0.05;

// ---------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------

double Sec(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// Lowers each window's entry of `*fastest` to the window's time in
// `lags`, a pass over the same windows; the first pass fills it.
void KeepFastest(const std::vector<double>& lags,
                 std::vector<double>* fastest) {
  if (fastest->empty()) *fastest = lags;
  for (size_t w = 0; w < fastest->size() && w < lags.size(); ++w) {
    (*fastest)[w] = std::min((*fastest)[w], lags[w]);
  }
}

// Across the reader loops of one run, a query metric reports its best
// decile: the 10th percentile of the per-loop values, or the 90th when
// higher is better (linear interpolation between order statistics). On
// shared vCPUs, interference only slows a loop down, and the share of
// slowed loops changes from run to run; the median moves with that share,
// the best decile much less (see README.md, "Steadiness").
double BestDecile(std::vector<double> v, bool higher_is_better) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos =
      (higher_is_better ? 0.9 : 0.1) * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

// The q-quantile of a sample, smoothed: the mean of the order statistics
// whose ranks lie within min(1%, (1-q)/2) of the sample size of rank
// q·n, so that nanosecond-granular latencies do not quantize the estimate.
template <typename T>
double Percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double w = std::max(0.5, std::min(0.01, (1.0 - q) / 2) * n);
  const size_t lo = static_cast<size_t>(std::max(0.0, q * n - w));
  const size_t hi = std::min(v.size() - 1, static_cast<size_t>(q * n + w));
  double sum = 0.0;
  for (size_t i = lo; i <= hi; ++i) sum += static_cast<double>(v[i]);
  return sum / static_cast<double>(hi - lo + 1);
}

bool SameStats(const stream::CommStats& a, const stream::CommStats& b) {
  return a.scalar_up == b.scalar_up && a.element_up == b.element_up &&
         a.vector_up == b.vector_up &&
         a.broadcast_events == b.broadcast_events &&
         a.broadcast_msgs == b.broadcast_msgs && a.rounds == b.rounds;
}

// Payload bytes of the run's paper messages with no framing: 8 per
// scalar, 16 per (element, weight), 8d per vector, 8 per broadcast
// receiver. The in-process workloads' `wire_bytes`.
uint64_t PayloadBytes(const stream::CommStats& s, size_t dim) {
  return 8 * s.scalar_up + 16 * s.element_up + 8 * dim * s.vector_up +
         8 * s.broadcast_msgs;
}

struct Usage {
  double cpu_s = 0.0;
  double vol = 0.0;
  double invol = 0.0;
};

Usage ProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.vol = static_cast<double>(ru.ru_nvcsw);
  u.invol = static_cast<double>(ru.ru_nivcsw);
  return u;
}

// Releases `*v`'s storage, which clear() would keep.
template <typename T>
void Free(T* v) {
  *v = T();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------
// Reader: pin the current snapshot, run a fixed query mix, unpin.
// ---------------------------------------------------------------------

struct QueryInputs {
  std::vector<uint64_t> elements;  // HH point lookups, cycled
  std::vector<double> x;           // matrix query vector (length kDim)
};

QueryInputs MakeQueryInputs() {
  QueryInputs in;
  for (uint64_t e = 0; e < 1024; ++e) in.elements.push_back(e * 37 % 4096);
  in.x.resize(kDim);
  for (size_t j = 0; j < kDim; ++j) {
    in.x[j] = std::sin(static_cast<double>(j + 1));
  }
  return in;
}

// HH: TopK(32) + 8 ElementWeight lookups + HeavyHitters. Matrix:
// quadratic form + ProjectRow(rank 3) + TopSingularValues(3). Returns a
// value folded into a sink so the queries cannot be optimised away.
double QueryMix(const serve::Snapshot& snap, const QueryInputs& in,
                uint64_t i) {
  const serve::QueryEngine q(&snap);
  double sink = 0.0;
  if (snap.has_hh) {
    for (const serve::HHEntry& e : q.TopK(32)) sink += e.weight;
    for (uint64_t j = 0; j < 8; ++j) {
      sink += q.ElementWeight(in.elements[(8 * i + j) % in.elements.size()]);
    }
    sink += static_cast<double>(q.HeavyHitters(kHhPhi, kHhEps).size());
  }
  if (snap.has_matrix && !snap.sketch.empty()) {
    sink += q.CovarianceQuadraticForm(in.x);
    sink += q.ProjectRow(in.x, 3)[0];
    for (double s : q.TopSingularValues(3)) sink += s;
  }
  return sink;
}

struct ReaderStats {
  uint64_t ops = 0;
  double wall_s = 0.0;
  std::vector<uint32_t> lat_ns;  // first kMaxSamples ops
  int64_t acquire_ns = 0;        // split mode only
  int64_t query_ns = 0;          // split mode only
  bool monotone = true;          // window indexes never went backwards
  double sink = 0.0;
};

// Runs query ops until `stop()` is true. `split` (traced passes) reads
// the clock once more per op to split Acquire from the queries.
template <typename Stop>
void QueryLoop(serve::SnapshotStore* store, const QueryInputs& in,
               bool split, SpanLog* log, Stop stop, ReaderStats* out) {
  constexpr size_t kMaxSamples = size_t{1} << 21;
  serve::SnapshotReader reader(store);
  out->lat_ns.reserve(kMaxSamples);
  uint64_t last_window = 0;
  const int64_t begin = NowNs();
  while (!stop()) {
    const int64_t t0 = NowNs();
    int64_t t1 = t0;
    {
      serve::SnapshotRef ref = reader.Acquire();
      if (split) t1 = NowNs();
      if (ref->window_index < last_window) out->monotone = false;
      last_window = ref->window_index;
      out->sink += QueryMix(*ref, in, out->ops);
    }
    const int64_t t2 = NowNs();
    if (split) {
      out->acquire_ns += t1 - t0;
      out->query_ns += t2 - t1;
      if (out->ops % 1024 == 0) log->Add("query", kReaderTid, t0, t2);
    }
    if (out->lat_ns.size() < kMaxSamples) {
      out->lat_ns.push_back(static_cast<uint32_t>(t2 - t0));
    }
    ++out->ops;
  }
  out->wall_s = Sec(NowNs() - begin);
}

// One reader thread querying `store` until Stop().
class ReaderThread {
 public:
  ReaderThread(serve::SnapshotStore* store, const QueryInputs* in,
               bool split, SpanLog* log, ReaderStats* out)
      : thread_([this, store, in, split, log, out] {
          QueryLoop(
              store, *in, split, log,
              [this] { return stop_.load(std::memory_order_acquire); }, out);
        }) {}
  ~ReaderThread() { Stop(); }
  ReaderThread(const ReaderThread&) = delete;
  ReaderThread& operator=(const ReaderThread&) = delete;

  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;  // declared last: starts after stop_ exists
};

// ---------------------------------------------------------------------
// Publishing: the serving coordinator, timed per window.
// ---------------------------------------------------------------------

struct Serving {
  serve::SnapshotStore store;
  serve::ServingCoordinator coordinator{&store};
  InProcessTimeline* timeline = nullptr;  // traced in-process passes
  SpanLog* log = nullptr;
  int64_t window_start = 0;
  std::vector<double> lag_ms;      // window start -> snapshot visible
  std::vector<double> publish_ms;  // PublishWindow itself

  void Publish(uint64_t window, uint64_t items) {
    const int64_t start = NowNs();
    coordinator.PublishWindow(window, items);
    const int64_t end = NowNs();
    lag_ms.push_back(static_cast<double>(end - window_start) * 1e-6);
    publish_ms.push_back(static_cast<double>(end - start) * 1e-6);
    if (timeline != nullptr) {
      timeline->OnPublish(start, end);
    } else if (log != nullptr) {
      log->Add("publish", kCoordTid, start, end);
    }
    window_start = end;
  }

  // Checksum and serialized size of the last published snapshot.
  void Final(uint64_t* checksum, size_t* bytes) {
    serve::SnapshotReader reader(&store);
    serve::SnapshotRef ref = reader.Acquire();
    *checksum = serve::SnapshotChecksum(*ref);
    std::vector<uint8_t> buf;
    serve::SerializeSnapshot(*ref, &buf);
    *bytes = buf.size();
  }
};

// ---------------------------------------------------------------------
// Passes.
// ---------------------------------------------------------------------

enum class PassKind {
  kReference,   // kMain, untimed, checking the error bound at every window
  kMain,        // the workload's configuration (2 lanes / TCP)
  kSingleLane,  // the same job on one driver lane, in process
};

struct PassResult {
  double wall_s = 0.0;
  uint64_t arrivals = 0;
  std::vector<double> lag_ms;
  std::vector<double> publish_ms;
  std::vector<ReaderStats> readers;  // one per reader loop
  stream::CommStats stats;
  uint64_t checksum = 0;
  size_t snapshot_bytes = 0;
  uint64_t windows = 0;            // windows the schedule ran
  uint64_t published = 0;          // snapshots published
  double err_ratio = 0.0;
  uint64_t wire_bytes = 0;
  std::string error;               // run failure or oracle difference
  double sum_gap = 0.0;            // traced: |wall - sum of layers| / wall
  std::map<std::string, double> layers;  // traced: per-layer metrics
};

// Every per-layer metric, in BENCHMARK.json order; layers a workload does
// not run through report 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const LayerMetric kLayerMetrics[] = {
    {"data.next_chunk_s", "s"},
    {"data.rows", "count"},
    {"stream.windows", "count"},
    {"stream.site_phase_s", "s"},
    {"stream.driver_overhead_s", "s"},
    {"stream.batches_reserved", "count"},
    {"stream.active_sites_per_window", "count"},
    {"stream.drain_sites_per_window", "count"},
    {"stream.lane_idle_s", "s"},
    {"stream.lane_imbalance", "ratio"},
    {"hh.site_s", "s"},
    {"hh.site_calls", "count"},
    {"hh.drain_s", "s"},
    {"hh.scalar_up", "count"},
    {"hh.element_up", "count"},
    {"hh.vector_up", "count"},
    {"hh.broadcast_msgs", "count"},
    {"hh.rounds", "count"},
    {"matrix.site_s", "s"},
    {"matrix.site_calls", "count"},
    {"matrix.drain_s", "s"},
    {"matrix.scalar_up", "count"},
    {"matrix.element_up", "count"},
    {"matrix.vector_up", "count"},
    {"matrix.broadcast_msgs", "count"},
    {"matrix.rounds", "count"},
    {"serve.publish_s", "s"},
    {"serve.publish_ms_p50", "ms"},
    {"serve.publishes", "count"},
    {"serve.snapshot_bytes", "bytes"},
    {"serve.acquire_s", "s"},
    {"serve.query_s", "s"},
    {"net.encode_s", "s"},
    {"net.apply_s", "s"},
    {"net.site_send_s", "s"},
    {"net.site_recv_s", "s"},
    {"net.coord_send_s", "s"},
    {"net.coord_recv_s", "s"},
    {"net.sends", "count"},
    {"net.recvs", "count"},
    {"net.frames_up", "count"},
    {"net.bytes_up", "bytes"},
    {"net.bytes_down", "bytes"},
    {"net.bytes_per_msg", "bytes/msg"},
    {"proc.cpu_s", "s"},
    {"proc.cpu_util", "ratio"},
    {"proc.vol_ctx_switches", "count"},
    {"proc.invol_ctx_switches", "count"},
    {"trace.overhead", "ratio"},
    {"trace.sum_gap", "ratio"},
};

std::map<std::string, double> ZeroLayers() {
  std::map<std::string, double> m;
  for (const LayerMetric& metric : kLayerMetrics) m[metric.name] = 0.0;
  return m;
}

void PutMessages(const std::string& prefix, const stream::CommStats& s,
                 std::map<std::string, double>* m) {
  (*m)[prefix + ".scalar_up"] = static_cast<double>(s.scalar_up);
  (*m)[prefix + ".element_up"] = static_cast<double>(s.element_up);
  (*m)[prefix + ".vector_up"] = static_cast<double>(s.vector_up);
  (*m)[prefix + ".broadcast_msgs"] = static_cast<double>(s.broadcast_msgs);
  (*m)[prefix + ".rounds"] = static_cast<double>(s.rounds);
}

void PutServe(const PassResult& r, std::map<std::string, double>* m) {
  double publish_s = 0.0;
  for (double ms : r.publish_ms) publish_s += ms * 1e-3;
  (*m)["serve.publish_s"] = publish_s;
  (*m)["serve.publish_ms_p50"] = Median(r.publish_ms);
  (*m)["serve.publishes"] = static_cast<double>(r.published);
  (*m)["serve.snapshot_bytes"] = static_cast<double>(r.snapshot_bytes);
  int64_t acquire_ns = 0;
  int64_t query_ns = 0;
  for (const ReaderStats& reader : r.readers) {
    acquire_ns += reader.acquire_ns;
    query_ns += reader.query_ns;
  }
  (*m)["serve.acquire_s"] = Sec(acquire_ns);
  (*m)["serve.query_s"] = Sec(query_ns);
}

// Per-layer split of a traced in-process pass; `family` is "hh" or
// "matrix".
void PutInProcessLayers(const std::string& family, const InProcessTotals& t,
                        const stream::SchedulerStats& sched, double wall_s,
                        PassResult* r) {
  std::map<std::string, double>& m = r->layers;
  m = ZeroLayers();
  const double windows = std::max<double>(1.0, static_cast<double>(t.windows));
  m["data.next_chunk_s"] = Sec(t.data_ns);
  m["data.rows"] = static_cast<double>(t.data_rows);
  m["stream.windows"] = static_cast<double>(sched.windows);
  m["stream.site_phase_s"] = Sec(t.site_phase_ns);
  m["stream.driver_overhead_s"] = Sec(t.overhead_ns);
  m["stream.batches_reserved"] = static_cast<double>(sched.batches_reserved);
  m["stream.active_sites_per_window"] =
      static_cast<double>(t.active_sites) / windows;
  m["stream.drain_sites_per_window"] =
      static_cast<double>(t.drain_sites) / windows;
  m["stream.lane_idle_s"] = Sec(t.lane_idle_ns);
  m["stream.lane_imbalance"] = t.imbalance_sum / windows;
  m[family + ".site_s"] = Sec(t.site_ns);
  m[family + ".site_calls"] = static_cast<double>(t.site_calls);
  m[family + ".drain_s"] = Sec(t.drain_ns);
  PutMessages(family, r->stats, &m);
  PutServe(*r, &m);
  // Driver overhead is the gaps between the measured spans, so spans plus
  // overhead equal Run's wall time up to its head and tail outside any
  // window, which is all sum_gap sees here. What can fail is the spans
  // themselves: they must not overlap, nor add up to more than the wall.
  const int64_t spans = t.data_ns + t.site_phase_ns + t.drain_ns + t.publish_ns;
  if (t.overlaps != 0) {
    r->error += std::to_string(t.overlaps) + " layer spans overlap; ";
  }
  if (Sec(spans) > wall_s) r->error += "layer spans exceed the wall time; ";
  r->sum_gap = std::fabs(wall_s - Sec(spans + t.overhead_ns)) / wall_s;
  m["trace.sum_gap"] = r->sum_gap;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from `seed`; timed as setup_s. Frees the previous
  /// call's inputs before building, so that setup's memory peak stays
  /// below the passes' and peak_rss_mb measures the pipeline.
  virtual void Setup(uint64_t seed) = 0;
  /// Untimed work after setup (e.g. the wire oracle).
  virtual void Prepare() {}
  /// Runs one pass. A kSingleLane pass is checked like the others only
  /// when the workload runs in process (see WireMp2Tcp::Pass).
  virtual PassResult Pass(PassKind kind, bool traced, SpanLog* log) = 0;
  /// Envelope fields describing the configuration (JSON members).
  virtual std::string Describe() const = 0;
};

// Feeds a driver pass: the window callback publishes (then runs `check`,
// when set, with the arrivals so far), a reader thread queries, and the
// pass's wall clock spans the driver's Run.
template <typename RunFn>
void DrivePass(stream::SimulationDriver* driver, Serving* serving,
               const QueryInputs& queries, bool traced, SpanLog* log,
               InProcessTimeline* timeline,
               const std::function<void(uint64_t)>& check, RunFn run,
               PassResult* r) {
  serving->timeline = timeline;
  driver->set_window_callback(
      [serving, &check](const stream::WindowEndInfo& info) {
        serving->Publish(info.window_index, info.arrivals_total);
        if (check) check(info.arrivals_total);
      });
  {
    r->readers.emplace_back();
    ReaderThread reader(&serving->store, &queries, traced, log,
                        &r->readers.back());
    const int64_t start = NowNs();
    serving->window_start = start;
    if (timeline != nullptr) timeline->BeginRun(start);
    run();
    r->wall_s = Sec(NowNs() - start);
  }
  driver->set_window_callback({});
  r->lag_ms = std::move(serving->lag_ms);
  r->publish_ms = std::move(serving->publish_ms);
  r->windows = driver->scheduler_stats().windows;
  r->published = serving->coordinator.windows_published();
  serving->Final(&r->checksum, &r->snapshot_bytes);
}

stream::SimulationOptions DriverOptions(PassKind kind, size_t chunk) {
  stream::SimulationOptions opt;
  opt.threads = kind == PassKind::kSingleLane ? 1 : kLanes;
  opt.chunk_elements = chunk;
  return opt;
}

// The exact covariance of the stream's first rows, advanced window by
// window, for the reference pass's check of
// |‖Ax‖² − ‖Bx‖²| ≤ ε‖A‖²_F.
struct MatrixTruth {
  matrix::CovarianceTracker gram{kDim};
  size_t rows = 0;

  /// Advances to the first `arrivals` rows (`row(i)` is row i) and raises
  /// `*worst` to the protocol's error ÷ ε there.
  template <typename RowAt>
  void Check(const matrix::MatrixTrackingProtocol& protocol,
             uint64_t arrivals, double eps, RowAt row, double* worst) {
    for (; rows < arrivals; ++rows) gram.AddRow(row(rows), kDim);
    const double err =
        matrix::CovarianceError(gram, protocol.CoordinatorGram()) / eps;
    *worst = std::max(*worst, err);
  }
};

// --- hh_p2_zipf -------------------------------------------------------

class HhP2Zipf : public Workload {
 public:
  void Setup(uint64_t seed) override {
    Free(&items_);
    Free(&sites_);
    data::ZipfianStream zipf(kHhUniverse, kHhSkew, kHhBeta, seed);
    items_.resize(kHhItems);
    for (stream::WeightedUpdate& item : items_) {
      const data::WeightedItem w = zipf.Next();
      item = stream::WeightedUpdate{w.element, w.weight};
    }
    stream::Router router(kHhSites, stream::RoutingPolicy::kUniform,
                          seed + 1);
    sites_ = stream::AssignSites(&router, kHhItems);
  }

  PassResult Pass(PassKind kind, bool traced, SpanLog* log) override {
    PassResult r;
    hh::P2Threshold protocol(kHhSites, kHhEps);
    stream::SimulationDriver driver(DriverOptions(kind, kHhChunk));
    std::unique_ptr<InProcessTimeline> timeline;
    std::unique_ptr<TimedHHProtocol> proxy;
    hh::HeavyHitterProtocol* driven = &protocol;
    if (traced) {
      timeline = std::make_unique<InProcessTimeline>(kHhSites,
                                                     driver.threads(), log);
      proxy = std::make_unique<TimedHHProtocol>(&protocol, timeline.get());
      driven = proxy.get();
    }
    // Reference pass: max |ŵ(e) − w(e)| / (εW) over every element, against
    // the exact weights of the stream so far, at every window.
    std::vector<double> weights;
    double total = 0.0;
    size_t fed = 0;
    std::function<void(uint64_t)> check;
    if (kind == PassKind::kReference) {
      weights.assign(kHhUniverse, 0.0);
      check = [&](uint64_t arrivals) {
        for (; fed < arrivals; ++fed) {
          weights[items_[fed].element] += items_[fed].weight;
          total += items_[fed].weight;
        }
        double worst = 0.0;
        for (uint64_t e = 0; e < kHhUniverse; ++e) {
          worst = std::max(worst, std::fabs(protocol.EstimateElementWeight(e) -
                                            weights[e]));
        }
        r.err_ratio = std::max(r.err_ratio, worst / (kHhEps * total));
      };
    }
    Serving serving;
    serving.coordinator.AttachHHProtocol(&protocol);
    DrivePass(&driver, &serving, queries_, traced, log, timeline.get(),
              check, [&] { driver.Run(driven, sites_, items_); }, &r);
    r.arrivals = items_.size();
    r.stats = protocol.comm_stats();
    r.wire_bytes = PayloadBytes(r.stats, kDim);
    if (traced) {
      PutInProcessLayers("hh", timeline->totals(), driver.scheduler_stats(),
                         r.wall_s, &r);
    }
    return r;
  }

  std::string Describe() const override {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"protocol\": \"P2\", \"eps\": %g, \"sites\": %zu, "
                  "\"items\": %zu, \"chunk\": %zu, \"zipf_skew\": %g, "
                  "\"universe\": %llu, \"beta\": %g, \"router\": \"uniform\"",
                  kHhEps, kHhSites, kHhItems, kHhChunk, kHhSkew,
                  static_cast<unsigned long long>(kHhUniverse), kHhBeta);
    return buf;
  }

 private:
  std::vector<stream::WeightedUpdate> items_;
  std::vector<size_t> sites_;
  QueryInputs queries_ = MakeQueryInputs();
};

// --- matrix_mp1_pamap -------------------------------------------------

class MatrixMp1Pamap : public Workload {
 public:
  explicit MatrixMp1Pamap(std::string dir) : path_(dir + "/rows.dmtbin") {}
  ~MatrixMp1Pamap() override { std::remove(path_.c_str()); }

  void Setup(uint64_t seed) override {
    Free(&rows_);
    data::SyntheticMatrixGenerator gen(
        data::SyntheticMatrixGenerator::PamapLike(seed));
    rows_ = gen.Take(kMxRows);
    std::string error;
    DMT_CHECK(data::WriteDmtbin(path_, rows_, &error));
    router_seed_ = seed + 1;
  }

  PassResult Pass(PassKind kind, bool traced, SpanLog* log) override {
    PassResult r;
    matrix::MP1BatchedFD protocol(kMxSites, kMxEps);
    stream::SimulationDriver driver(DriverOptions(kind, kMxChunk));
    std::string error;
    data::DmtbinSource file(path_, 0, &error);
    DMT_CHECK(file.ok());
    stream::Router router(kMxSites, stream::RoutingPolicy::kUniform,
                          router_seed_);
    std::unique_ptr<InProcessTimeline> timeline;
    std::unique_ptr<TimedMatrixProtocol> proxy;
    std::unique_ptr<TimedSource> source_proxy;
    matrix::MatrixTrackingProtocol* driven = &protocol;
    data::DatasetSource* source = &file;
    if (traced) {
      timeline = std::make_unique<InProcessTimeline>(kMxSites,
                                                     driver.threads(), log);
      proxy = std::make_unique<TimedMatrixProtocol>(&protocol,
                                                    timeline.get());
      source_proxy = std::make_unique<TimedSource>(&file, timeline.get());
      driven = proxy.get();
      source = source_proxy.get();
    }
    MatrixTruth truth;
    std::function<void(uint64_t)> check;
    if (kind == PassKind::kReference) {
      check = [&](uint64_t arrivals) {
        truth.Check(protocol, arrivals, kMxEps,
                    [&](size_t i) { return rows_.Row(i); }, &r.err_ratio);
      };
    }
    Serving serving;
    serving.coordinator.AttachMatrixProtocol(&protocol);
    size_t fed = 0;
    DrivePass(&driver, &serving, queries_, traced, log, timeline.get(),
              check, [&] { fed = driver.Run(driven, &router, source); }, &r);
    r.arrivals = fed;
    if (fed != kMxRows || !file.read_error().empty()) {
      r.error = "fed " + std::to_string(fed) + " rows " + file.read_error();
    }
    r.stats = protocol.comm_stats();
    r.wire_bytes = PayloadBytes(r.stats, kDim);
    if (traced) {
      PutInProcessLayers("matrix", timeline->totals(),
                         driver.scheduler_stats(), r.wall_s, &r);
    }
    return r;
  }

  std::string Describe() const override {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"protocol\": \"MP1\", \"eps\": %g, \"sites\": %zu, "
                  "\"rows\": %zu, \"dim\": %zu, \"chunk\": %zu, "
                  "\"source\": \"dmtbin (PAMAP-like synthetic)\", "
                  "\"router\": \"uniform\"",
                  kMxEps, kMxSites, kMxRows, kDim, kMxChunk);
    return buf;
  }

 private:
  std::string path_;
  linalg::Matrix rows_;  // the file's rows, for the reference pass's check
  uint64_t router_seed_ = 0;
  QueryInputs queries_ = MakeQueryInputs();
};

// --- wire_mp2_tcp -----------------------------------------------------

struct Sockets {
  std::vector<std::unique_ptr<net::Connection>> site_ends;
  std::vector<std::unique_ptr<net::Connection>> coord_ends;
};

Sockets MakeSockets(size_t sites) {
  std::string error;
  std::unique_ptr<net::TcpListener> listener =
      net::TcpListener::Listen(0, &error);
  DMT_CHECK(listener != nullptr);
  Sockets s;
  // The listen backlog completes the connects before the accepts run.
  for (size_t i = 0; i < sites; ++i) {
    s.site_ends.push_back(
        net::TcpConnect("127.0.0.1", listener->port(), &error));
    DMT_CHECK(s.site_ends.back() != nullptr);
  }
  for (size_t i = 0; i < sites; ++i) {
    s.coord_ends.push_back(listener->Accept(&error));
    DMT_CHECK(s.coord_ends.back() != nullptr);
  }
  return s;
}

class WireMp2Tcp : public Workload {
 public:
  WireMp2Tcp() {
    config_.protocol = "mp2";
    config_.num_sites = kWireSites;
    config_.n = kWireRows;
    config_.chunk = kWireChunk;
    config_.eps = kWireEps;
    config_.dim = kDim;
  }

  void Setup(uint64_t seed) override {
    config_.seed = seed;
    data::SyntheticMatrixGenerator gen(
        data::SyntheticMatrixGenerator::PamapLike(seed));
    workload_ = net::WireWorkload();
    workload_.rows.resize(kWireRows);
    for (std::vector<double>& row : workload_.rows) row = gen.Next();
    stream::Router router(kWireSites, stream::RoutingPolicy::kUniform,
                          seed + 1);
    workload_.sites = stream::AssignSites(&router, kWireRows);
    size_t sched_sites = 0;  // as net::MakeWireWorkload: max site + 1
    for (size_t s : workload_.sites) sched_sites = std::max(sched_sites, s + 1);
    workload_.window_ends =
        stream::WindowEnds(kWireRows, kWireChunk, sched_sites);
    site_windows_.clear();
    for (size_t s = 0; s < kWireSites; ++s) {
      site_windows_.push_back(net::SiteWindowIndices(workload_.sites, s,
                                                     workload_.window_ends));
    }
    sockets_ = MakeSockets(kWireSites);
  }

  void Prepare() override { oracle_ = net::RunOracle(config_, workload_); }

  PassResult Pass(PassKind kind, bool traced, SpanLog* log) override {
    PassResult r;
    if (kind == PassKind::kSingleLane) {
      r = OraclePass();
    } else {
      r = TcpPass(kind == PassKind::kReference, traced, log);
      r.windows = workload_.window_ends.size();
    }
    r.arrivals = kWireRows;
    return r;
  }

  std::string Describe() const override {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"protocol\": \"MP2\", \"eps\": %g, \"sites\": %zu, "
                  "\"rows\": %zu, \"dim\": %zu, \"chunk\": %zu, "
                  "\"transport\": \"tcp loopback\", \"reader_loops\": %zu, "
                  "\"reader_ops_per_loop\": %zu",
                  kWireEps, kWireSites, kWireRows, kDim, kWireChunk,
                  kWireQueryLoops, kWireQueryOps);
    return buf;
  }

 private:
  void Finish(const net::WireProtocol& coord, PassResult* r) {
    r->stats = coord.mp->comm_stats();
    const std::string diff = net::DiffWireProtocols(config_, coord, oracle_);
    if (!diff.empty()) r->error += "differs from net::RunOracle: " + diff;
  }

  // The single-lane pass: net::RunOracle's run (the same job through the
  // in-process driver on one lane, without publishing), with each window
  // timed from the driver's window callback. It publishes no snapshot, so
  // it is checked against the oracle only.
  PassResult OraclePass() {
    PassResult r;
    net::WireProtocol p = net::MakeWireProtocol(config_);
    stream::SimulationDriver driver(
        DriverOptions(PassKind::kSingleLane, kWireChunk));
    int64_t window_start = 0;
    driver.set_window_callback([&](const stream::WindowEndInfo&) {
      const int64_t now = NowNs();
      r.lag_ms.push_back(static_cast<double>(now - window_start) * 1e-6);
      window_start = now;
    });
    const int64_t start = NowNs();
    window_start = start;
    driver.Run(p.mp.get(), workload_.sites, workload_.rows);
    r.wall_s = Sec(NowNs() - start);
    if (r.lag_ms.size() != workload_.window_ends.size()) {
      r.error += "ran " + std::to_string(r.lag_ms.size()) + " of " +
                 std::to_string(workload_.window_ends.size()) + " windows; ";
    }
    Finish(p, &r);
    return r;
  }

  PassResult TcpPass(bool reference, bool traced, SpanLog* log) {
    PassResult r;
    Sockets sockets =
        sockets_.site_ends.empty() ? MakeSockets(kWireSites)
                                   : std::move(sockets_);
    sockets_ = Sockets();
    net::WireProtocol coord = net::MakeWireProtocol(config_);
    std::vector<net::WireProtocol> sites(kWireSites);
    std::vector<WireCounters> site_counters(kWireSites);
    WireCounters coord_counters;
    std::vector<std::unique_ptr<net::WireAdapter>> site_proxies;
    std::unique_ptr<net::WireAdapter> coord_proxy;
    std::vector<net::WireAdapter*> site_adapters;
    std::vector<std::function<void(uint32_t)>> updates;
    for (size_t s = 0; s < kWireSites; ++s) {
      sites[s] = net::MakeWireProtocol(config_);
      site_adapters.push_back(sites[s].adapter.get());
      updates.push_back(net::MakeSiteUpdater(workload_, &sites[s], s));
    }
    net::WireAdapter* coord_adapter = coord.adapter.get();
    if (traced) {
      const uint32_t tid = kSiteTid0;
      for (size_t s = 0; s < kWireSites; ++s) {
        const uint32_t site_tid = tid + static_cast<uint32_t>(s);
        site_proxies.push_back(std::make_unique<TimedWireAdapter>(
            site_adapters[s], &site_counters[s], log, site_tid));
        site_adapters[s] = site_proxies.back().get();
        updates[s] = TimedUpdate(std::move(updates[s]), &site_counters[s]);
        sockets.site_ends[s] = std::make_unique<TimedConnection>(
            std::move(sockets.site_ends[s]), &site_counters[s], log,
            site_tid);
        sockets.coord_ends[s] = std::make_unique<TimedConnection>(
            std::move(sockets.coord_ends[s]), &coord_counters, log,
            kCoordTid);
      }
      coord_proxy = std::make_unique<TimedWireAdapter>(
          coord_adapter, &coord_counters, log, kCoordTid);
      coord_adapter = coord_proxy.get();
    }

    Serving serving;
    serving.log = log;
    serving.coordinator.AttachMatrixProtocol(coord.mp.get());
    MatrixTruth truth;
    const auto on_window = [&](size_t w) {
      serving.Publish(w, workload_.window_ends[w - 1]);
      if (reference) {
        truth.Check(*coord.mp, workload_.window_ends[w - 1], kWireEps,
                    [&](size_t i) { return workload_.rows[i].data(); },
                    &r.err_ratio);
      }
    };

    std::vector<std::string> site_errors(kWireSites);
    std::vector<char> site_ok(kWireSites, 0);
    std::vector<int64_t> site_ns(kWireSites, 0);
    net::WireCoordinatorReport report;
    std::string coord_error;
    const int64_t start = NowNs();
    serving.window_start = start;
    std::vector<std::thread> threads;
    for (size_t s = 0; s < kWireSites; ++s) {
      threads.emplace_back([&, s] {
        const int64_t begin = NowNs();
        site_ok[s] = net::RunWireSite(site_adapters[s], s, site_windows_[s],
                                      updates[s], sockets.site_ends[s].get(),
                                      &site_errors[s]);
        site_ns[s] = NowNs() - begin;
      });
    }
    const bool coord_ok = net::RunWireCoordinator(
        coord_adapter, &sockets.coord_ends, workload_.window_ends.size(),
        &report, &coord_error, on_window);
    const int64_t coord_end = NowNs();
    if (!coord_ok) {
      // Unblock sites still waiting on a broadcast.
      for (auto& conn : sockets.coord_ends) {
        if (conn != nullptr) conn->Close();
      }
    }
    for (std::thread& t : threads) t.join();
    r.wall_s = Sec(NowNs() - start);

    if (!coord_ok) r.error += "coordinator: " + coord_error + "; ";
    for (size_t s = 0; s < kWireSites; ++s) {
      if (!site_ok[s]) r.error += "site: " + site_errors[s] + "; ";
    }
    r.lag_ms = std::move(serving.lag_ms);
    r.publish_ms = std::move(serving.publish_ms);
    r.published = serving.coordinator.windows_published();
    r.wire_bytes = report.total_bytes_up() + report.total_bytes_down();
    if (r.wire_bytes == 0) r.error += "no bytes accounted; ";

    // The reader: the site threads and the coordinator use the whole
    // thread budget during the run, so the query mix runs after it, on
    // the final published snapshot, from this thread. Every op queries the
    // same snapshot, so each loop is a sample of the same work.
    r.readers.resize(kWireQueryLoops);
    for (ReaderStats& reader : r.readers) {
      uint64_t ops = 0;
      QueryLoop(&serving.store, queries_, traced, log,
                [&ops] { return ops++ >= kWireQueryOps; }, &reader);
    }
    serving.Final(&r.checksum, &r.snapshot_bytes);
    Finish(coord, &r);

    if (traced) {
      std::map<std::string, double>& m = r.layers;
      m = ZeroLayers();
      WireCounters site_sum;
      double worst_site_gap = 0.0;
      for (size_t s = 0; s < kWireSites; ++s) {
        const WireCounters& c = site_counters[s];
        site_sum.send_ns += c.send_ns;
        site_sum.recv_ns += c.recv_ns;
        site_sum.sends += c.sends;
        site_sum.recvs += c.recvs;
        site_sum.encode_ns += c.encode_ns;
        site_sum.update_ns += c.update_ns;
        site_sum.updates += c.updates;
        const int64_t parts = c.update_ns + c.encode_ns + c.send_ns +
                              c.recv_ns;
        worst_site_gap = std::max(
            worst_site_gap,
            std::fabs(Sec(site_ns[s] - parts)) / Sec(site_ns[s]));
      }
      m["matrix.site_s"] = Sec(site_sum.update_ns);
      m["matrix.site_calls"] = static_cast<double>(site_sum.updates);
      m["matrix.drain_s"] = Sec(coord_counters.apply_ns);
      PutMessages("matrix", r.stats, &m);
      PutServe(r, &m);
      m["net.encode_s"] = Sec(site_sum.encode_ns);
      m["net.apply_s"] = Sec(coord_counters.apply_ns);
      m["net.site_send_s"] = Sec(site_sum.send_ns);
      m["net.site_recv_s"] = Sec(site_sum.recv_ns);
      m["net.coord_send_s"] = Sec(coord_counters.send_ns);
      m["net.coord_recv_s"] = Sec(coord_counters.recv_ns);
      m["net.sends"] =
          static_cast<double>(site_sum.sends + coord_counters.sends);
      m["net.recvs"] =
          static_cast<double>(site_sum.recvs + coord_counters.recvs);
      m["net.frames_up"] = static_cast<double>(report.frames_received);
      m["net.bytes_up"] = static_cast<double>(report.total_bytes_up());
      m["net.bytes_down"] = static_cast<double>(report.total_bytes_down());
      m["net.bytes_per_msg"] =
          static_cast<double>(r.wire_bytes) /
          std::max<double>(1.0, static_cast<double>(r.stats.total()));
      // Coordinator wall = recv + apply + publish + send + framing (CRC,
      // headers), which no proxy sees.
      const double coord_wall = Sec(coord_end - start);
      double publish_s = 0.0;
      for (double ms : r.publish_ms) publish_s += ms * 1e-3;
      const double coord_parts = Sec(coord_counters.recv_ns +
                                     coord_counters.apply_ns +
                                     coord_counters.send_ns) +
                                 publish_s;
      r.sum_gap = std::max(std::fabs(coord_wall - coord_parts) / coord_wall,
                           worst_site_gap);
      m["trace.sum_gap"] = r.sum_gap;
    }
    return r;
  }

  net::WireRunConfig config_;
  net::WireWorkload workload_;
  std::vector<std::vector<std::vector<uint32_t>>> site_windows_;
  Sockets sockets_;  // made by Setup, used by the next TCP pass
  net::WireProtocol oracle_;
  QueryInputs queries_ = MakeQueryInputs();
};

// ---------------------------------------------------------------------
// Checks.
// ---------------------------------------------------------------------

// Checks one pass on its own and against the reference pass; returns the
// failures, empty when the pass is correct.
std::string CheckPass(const PassResult& r, const PassResult* ref) {
  std::string why = r.error;
  if (!(r.err_ratio <= 1.0)) {
    why += "err_ratio " + std::to_string(r.err_ratio) + " > 1; ";
  }
  for (const ReaderStats& reader : r.readers) {
    if (!reader.monotone) why += "reader saw window indexes go backwards; ";
  }
  if (r.published != r.windows) {
    why += "published " + std::to_string(r.published) + " of " +
           std::to_string(r.windows) + " windows; ";
  }
  if (!r.layers.empty() && r.sum_gap > kSumTolerance) {
    why += "layers sum off wall by " + std::to_string(r.sum_gap) + "; ";
  }
  if (ref != nullptr) {
    if (!SameStats(r.stats, ref->stats)) why += "CommStats differ; ";
    if (r.checksum != ref->checksum) why += "snapshot checksum differs; ";
    if (r.wire_bytes != ref->wire_bytes) why += "wire bytes differ; ";
  }
  return why;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string tmp = ".";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc % 2 != 1) return false;  // flag/value pairs only
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v);
    } else if (flag == "--tmp") {
      a->tmp = v;
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AddMetric(std::string* json, const char* name, double value,
               const char* unit) {
  if (json->size() > 1) *json += ", ";
  *json += "\"" + std::string(name) + "\": {\"value\": " + Num(value) +
           ", \"unit\": \"" + unit + "\"}";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pipeline --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tmp DIR] [--trace-out FILE]\n");
    return 2;
  }

  std::string tmpdir = args.tmp + "/pipeline-XXXXXX";
  mkdir(args.tmp.c_str(), 0755);
  DMT_CHECK(mkdtemp(tmpdir.data()) != nullptr);

  std::unique_ptr<Workload> workload;
  bool in_process = true;
  if (args.workload == "hh_p2_zipf") {
    workload = std::make_unique<HhP2Zipf>();
  } else if (args.workload == "matrix_mp1_pamap") {
    workload = std::make_unique<MatrixMp1Pamap>(tmpdir);
  } else if (args.workload == "wire_mp2_tcp") {
    workload = std::make_unique<WireMp2Tcp>();
    in_process = false;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    rmdir(tmpdir.c_str());
    return 2;
  }

  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    const int64_t start = NowNs();
    workload->Setup(args.seed);
    setup_s.push_back(Sec(NowNs() - start));
  }
  const double setup_rss_mb = PeakRssMb();
  workload->Prepare();

  SpanLog log;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  const auto gate = [&](const char* what, const PassResult& r,
                        const PassResult* ref) {
    ++attempted;
    const std::string why = CheckPass(r, ref);
    if (!why.empty()) {
      ++failed;
      std::fprintf(stderr, "FAIL %s pass: %s\n", what, why.c_str());
    }
  };

  // Warm-up and reference: the first pass is checked, at every window for
  // the error bound, but not timed.
  const PassResult ref = workload->Pass(PassKind::kReference, false, &log);
  gate("reference", ref, nullptr);

  std::vector<double> rate, rate_1t, qps, q_p50, q_p99;
  std::vector<double> traced_wall, untraced_wall;
  // Every main pass runs the same windows, so each window's time is taken
  // at its fastest pass (see README.md, "Steadiness"); likewise for the
  // single-lane passes. The query metrics take one sample per reader loop.
  std::vector<double> window_lag_ms, window_lag_ms_1t;
  std::vector<std::map<std::string, double>> layer_runs;
  Usage traced_usage;
  double traced_pass_s = 0.0;
  const auto traced_pass = [&] {
    log.set_enabled(args.trace == 1 && layer_runs.empty());
    const Usage u0 = ProcessUsage();
    const int64_t start = NowNs();
    PassResult r = workload->Pass(PassKind::kMain, true, &log);
    traced_pass_s += Sec(NowNs() - start);
    const Usage u1 = ProcessUsage();
    log.set_enabled(false);
    traced_usage.cpu_s += u1.cpu_s - u0.cpu_s;
    traced_usage.vol += u1.vol - u0.vol;
    traced_usage.invol += u1.invol - u0.invol;
    gate("traced", r, &ref);
    traced_wall.push_back(r.wall_s);
    layer_runs.push_back(r.layers);
  };

  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  do {
    const PassResult r = workload->Pass(PassKind::kMain, false, &log);
    gate("main", r, &ref);
    rate.push_back(static_cast<double>(r.arrivals) / r.wall_s);
    untraced_wall.push_back(r.wall_s);
    KeepFastest(r.lag_ms, &window_lag_ms);
    for (const ReaderStats& reader : r.readers) {
      qps.push_back(static_cast<double>(reader.ops) / reader.wall_s);
      q_p50.push_back(Percentile(reader.lat_ns, 0.50) * 1e-3);
      q_p99.push_back(Percentile(reader.lat_ns, 0.99) * 1e-3);
    }

    // The wire's single-lane pass publishes nothing: it is checked against
    // net::RunOracle within the pass.
    const PassResult one = workload->Pass(PassKind::kSingleLane, false, &log);
    gate("single-lane", one, in_process ? &ref : nullptr);
    KeepFastest(one.lag_ms, &window_lag_ms_1t);
    rate_1t.push_back(static_cast<double>(one.arrivals) / one.wall_s);
    std::fprintf(stderr,
                 "pass %zu: arrivals_per_s %.6g arrivals_per_s_1t %.6g "
                 "publish_lag_ms_p50 %.6g publish_lag_ms_p90 %.6g "
                 "query_per_s %.6g query_us_p50 %.6g query_us_p99 %.6g\n",
                 rate.size(), rate.back(), rate_1t.back(),
                 Percentile(r.lag_ms, 0.50), Percentile(r.lag_ms, 0.90),
                 qps.back(), q_p50.back(), q_p99.back());

    if (args.trace == 1) traced_pass();
  } while (NowNs() < deadline);
  // Every run checks the traced pass against the untraced ones.
  if (traced_wall.empty()) traced_pass();

  const unsigned hw = std::thread::hardware_concurrency();
  __builtin_cpu_init();
  const bool avx2 = __builtin_cpu_supports("avx2");
  const bool fma = __builtin_cpu_supports("fma");
  const bool avx512f = __builtin_cpu_supports("avx512f");
#ifdef DMT_KERNELS_NO_SIMD_DISPATCH
  const bool simd_off = true;
#else
  const bool simd_off = false;
#endif
  if (hw < 4) {
    std::fprintf(stderr,
                 "warning: %u hardware threads; the benchmark's thread "
                 "budget is 4, so these numbers are degraded\n",
                 hw);
  }
  char envelope[2048];
  std::snprintf(
      envelope, sizeof(envelope),
      "{\"bench\": \"pipeline\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"hardware_threads\": %u, "
      "\"thread_budget\": 4, \"threads_used\": %s, "
      "\"degraded_environment\": %s, \"cpu\": {\"avx2\": %s, \"fma\": %s, "
      "\"avx512f\": %s}, \"simd_dispatch_compiled_out\": %s, "
      "\"kernel_isa\": \"%s\", \"build_type\": \"%s\", "
      "\"passes\": {\"main\": %zu, \"single_lane\": %zu, \"traced\": %zu}, "
      "\"peak_rss_mb_after_setup\": %.1f, \"sum_tolerance\": %g, "
      "\"config\": {%s}}",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace, hw,
      in_process ? "{\"coordinator\": 1, \"driver_lanes\": 2, \"reader\": 1}"
                 : "{\"coordinator\": 1, \"sites\": 3, \"tcp_connections\": 3}",
      hw < 4 ? "true" : "false", avx2 ? "true" : "false",
      fma ? "true" : "false", avx512f ? "true" : "false",
      simd_off ? "true" : "false",
      !simd_off && avx2 && fma ? "avx2+fma" : "baseline",
      PIPEBENCH_BUILD_TYPE, rate.size(), rate_1t.size(), traced_wall.size(),
      setup_rss_mb, kSumTolerance, workload->Describe().c_str());
  std::printf("{\"envelope\": %s}\n", envelope);

  std::string metrics = "{";
  if (args.trace == 0) {
    AddMetric(&metrics, "setup_s", Median(setup_s), "s");
    // A pass's windows run one after another (behind the driver's barrier
    // in process; on the wire, a site starts a window only after the
    // previous one's broadcast), so the fastest windows add up to a whole
    // pass (see README.md, "Steadiness").
    const double arrivals = static_cast<double>(ref.arrivals);
    AddMetric(&metrics, "arrivals_per_s",
              arrivals / (Sum(window_lag_ms) * 1e-3), "1/s");
    AddMetric(&metrics, "arrivals_per_s_1t",
              arrivals / (Sum(window_lag_ms_1t) * 1e-3), "1/s");
    AddMetric(&metrics, "publish_lag_ms_p50", Percentile(window_lag_ms, 0.50),
              "ms");
    AddMetric(&metrics, "publish_lag_ms_p90", Percentile(window_lag_ms, 0.90),
              "ms");
    AddMetric(&metrics, "query_per_s", BestDecile(qps, true), "1/s");
    AddMetric(&metrics, "query_us_p50", BestDecile(q_p50, false), "us");
    AddMetric(&metrics, "query_us_p99", BestDecile(q_p99, false), "us");
    AddMetric(&metrics, "messages", static_cast<double>(ref.stats.total()),
              "count");
    AddMetric(&metrics, "wire_bytes", static_cast<double>(ref.wire_bytes),
              "bytes");
    AddMetric(&metrics, "err_ratio", ref.err_ratio, "ratio");
    AddMetric(&metrics, "peak_rss_mb", PeakRssMb(), "MB");
  } else {
    std::map<std::string, double> layers;
    for (const LayerMetric& metric : kLayerMetrics) {
      std::vector<double> values;
      for (const auto& run : layer_runs) {
        const auto it = run.find(metric.name);
        if (it != run.end()) values.push_back(it->second);
      }
      layers[metric.name] = Median(values);
    }
    const double n = static_cast<double>(layer_runs.size());
    layers["proc.cpu_s"] = traced_usage.cpu_s / n;
    layers["proc.cpu_util"] = traced_usage.cpu_s / traced_pass_s;
    layers["proc.vol_ctx_switches"] = traced_usage.vol / n;
    layers["proc.invol_ctx_switches"] = traced_usage.invol / n;
    layers["trace.overhead"] = Median(traced_wall) / Median(untraced_wall);
    for (const LayerMetric& metric : kLayerMetrics) {
      AddMetric(&metrics, metric.name, layers[metric.name], metric.unit);
    }
    if (!args.trace_out.empty() &&
        !log.WriteChromeJson(args.trace_out, envelope)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
  }
  metrics += "}";

  workload.reset();
  rmdir(tmpdir.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) { return pipebench::Main(argc, argv); }
