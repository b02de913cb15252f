// Span log and transparent timing proxies for the pipeline benchmark's
// traced run.
//
// Every proxy implements one public interface of the library by
// forwarding each call to the wrapped object, timing the calls that mark
// a layer boundary on the way. The benchmark installs them only in its
// traced passes; the untraced passes drive the real objects directly, and
// every run checks that both produce bit-identical outputs.
//
//   TimedHHProtocol / TimedMatrixProtocol  stream <-> protocol boundary:
//       per-(site, window) site spans (first SiteUpdate to the
//       PendingOutboxSize call that ends the site's window) and the
//       coordinator drain (SynchronizeSites).
//   TimedSource      data <-> stream: DatasetSource::NextChunk.
//   TimedWireAdapter protocol <-> net codec: EncodeWindow / ApplyFrame.
//   TimedConnection  net codec <-> sockets: Send / Recv, keeping the
//       Connection byte counters the wire reports read.
#ifndef PIPEBENCH_LAYERS_H_
#define PIPEBENCH_LAYERS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "hh/hh_protocol.h"
#include "matrix/matrix_protocol.h"
#include "net/remote.h"
#include "net/transport.h"
#include "util/check.h"

namespace pipebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------
// Span log: Chrome trace-event spans kept in memory, written at exit.
// ---------------------------------------------------------------------

/// Thread ids of the trace: 0 is the coordinator (main) thread, 1..8 the
/// driver lanes, 9 the reader, 10.. the wire sites.
inline constexpr uint32_t kCoordTid = 0;
inline constexpr uint32_t kLaneTid0 = 1;
inline constexpr uint32_t kReaderTid = 9;
inline constexpr uint32_t kSiteTid0 = 10;

class SpanLog {
 public:
  /// Enable before the traced threads start; spans added while disabled
  /// are dropped.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  void Add(const char* name, uint32_t tid, int64_t start_ns, int64_t end_ns) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(Span{name, tid, start_ns, end_ns - start_ns});
    }
  }

  /// Writes {"traceEvents": [...], "otherData": metadata} with one
  /// complete ("X") event per span and one thread-name event per tid, in
  /// microseconds from the first span. Opens in Perfetto / chrome://tracing.
  bool WriteChromeJson(const std::string& path,
                       const std::string& metadata_json) const {
    std::lock_guard<std::mutex> lock(mu_);
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
    std::vector<uint32_t> tids;
    for (const Span& s : spans_) tids.push_back(s.tid);
    std::sort(tids.begin(), tids.end());
    tids.erase(std::unique(tids.begin(), tids.end()), tids.end());

    std::fprintf(f, "{\"traceEvents\": [\n");
    bool first = true;
    for (uint32_t tid : tids) {
      std::fprintf(f,
                   "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                   "\"tid\": %u, \"args\": {\"name\": \"%s\"}}",
                   first ? "" : ",\n", tid, ThreadName(tid).c_str());
      first = false;
    }
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f}",
                   first ? "" : ",\n", s.name, s.tid,
                   static_cast<double>(s.start_ns - origin) * 1e-3,
                   static_cast<double>(s.dur_ns) * 1e-3);
      first = false;
    }
    std::fprintf(f, "\n], \"displayTimeUnit\": \"ms\", \"otherData\": %s}\n",
                 metadata_json.c_str());
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;  // string literal
    uint32_t tid;
    int64_t start_ns;
    int64_t dur_ns;
  };
  static constexpr size_t kMaxSpans = size_t{1} << 20;

  static std::string ThreadName(uint32_t tid) {
    if (tid == kCoordTid) return "coordinator";
    if (tid == kReaderTid) return "reader";
    if (tid >= kSiteTid0) return "site " + std::to_string(tid - kSiteTid0);
    return "lane " + std::to_string(tid - kLaneTid0);
  }

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// In-process window timeline (driver passes).
// ---------------------------------------------------------------------

/// Totals of one traced in-process pass. Seconds are wall-clock spans on
/// the coordinator's critical path unless noted.
struct InProcessTotals {
  int64_t data_ns = 0;          ///< in DatasetSource::NextChunk
  uint64_t data_rows = 0;
  int64_t site_phase_ns = 0;    ///< first site span start .. last site end
  int64_t drain_ns = 0;         ///< in SynchronizeSites / Synchronize
  int64_t publish_ns = 0;       ///< in the window callback's publish
  int64_t overhead_ns = 0;      ///< the gaps between the spans above
  uint64_t overlaps = 0;        ///< gaps below zero: spans overlapping
  uint64_t windows = 0;
  int64_t site_ns = 0;          ///< sum of per-(site, window) spans
  uint64_t site_calls = 0;      ///< SiteUpdate calls
  int64_t lane_idle_ns = 0;     ///< lanes x site phase - sum of site spans
  double imbalance_sum = 0.0;   ///< per-window max/mean lane busy, summed
  uint64_t active_sites = 0;    ///< site-window executions
  uint64_t drain_sites = 0;     ///< sites passed to SynchronizeSites
};

/// Collects the traced pass's layer spans from the proxies (site work on
/// the lanes, drain, data reads) and the benchmark's window callback
/// (publish), and splits every window into data read, site phase, drain,
/// publish and the driver's own time in between.
///
/// Threading: OnUpdate/OnSiteDone run on the driver's lanes for distinct
/// sites; everything else runs on the coordinator thread after the
/// window barrier, which orders the lanes' writes before the reads.
class InProcessTimeline {
 public:
  InProcessTimeline(size_t num_sites, size_t lanes, SpanLog* log)
      : lanes_(lanes), site_start_(num_sites, 0), log_(log) {
    DMT_CHECK_LE(lanes, kMaxLanes);
  }

  /// Coordinator: the driver's Run starts (first window opens).
  void BeginRun(int64_t now) { window_start_ = now; }

  /// Lane: one SiteUpdate for `site` is about to run.
  void OnUpdate(size_t site) {
    LaneAcc& lane = Lane();
    ++lane.calls;
    if (site_start_[site] == 0) site_start_[site] = NowNs();
  }

  /// Lane: the driver asked for `site`'s outbox size, which ends the
  /// site's window.
  void OnSiteDone(size_t site) {
    const int64_t now = NowNs();
    LaneAcc& lane = Lane();
    const int64_t start = site_start_[site] != 0 ? site_start_[site] : now;
    site_start_[site] = 0;
    lane.site_ns += now - start;
    ++lane.sites;
    if (lane.first_ns == 0) lane.first_ns = start;
    lane.last_ns = now;
  }

  /// Coordinator: one NextChunk call.
  void OnChunk(int64_t start, int64_t end, size_t rows) {
    data_start_ = start;
    data_end_ = end;
    totals_.data_ns += end - start;
    totals_.data_rows += rows;
    log_->Add("data.read", kCoordTid, start, end);
  }

  /// Coordinator: the drain of `sites` sites ran over [start, end]; the
  /// window's site phase is over.
  void OnDrain(int64_t start, int64_t end, size_t sites) {
    int64_t first = 0;
    int64_t last = 0;
    int64_t busy_max = 0;
    int64_t busy_sum = 0;
    int64_t site_ns = 0;
    for (size_t i = 0; i < kMaxLanes; ++i) {
      LaneAcc& lane = lanes_acc_[i];
      if (lane.first_ns != 0) {
        if (first == 0 || lane.first_ns < first) first = lane.first_ns;
        last = std::max(last, lane.last_ns);
        const int64_t busy = lane.last_ns - lane.first_ns;
        busy_max = std::max(busy_max, busy);
        busy_sum += busy;
        log_->Add("lane.busy", kLaneTid0 + static_cast<uint32_t>(i),
                  lane.first_ns, lane.last_ns);
      }
      site_ns += lane.site_ns;
      totals_.active_sites += lane.sites;
      lane.first_ns = lane.last_ns = lane.site_ns = 0;
      lane.sites = 0;
    }
    if (first == 0) first = last = start;  // a window with no site work
    log_->Add("site_phase", kCoordTid, first, last);
    log_->Add("drain", kCoordTid, start, end);

    const int64_t phase = last - first;
    totals_.site_phase_ns += phase;
    totals_.site_ns += site_ns;
    totals_.lane_idle_ns += static_cast<int64_t>(lanes_) * phase - site_ns;
    const double mean = static_cast<double>(busy_sum) / lanes_;
    totals_.imbalance_sum += mean > 0 ? busy_max / mean : 1.0;
    totals_.drain_ns += end - start;
    totals_.drain_sites += sites;
    // Driver time: before the data read (matrix only), between the read
    // (or window start) and the first site span, and between the last
    // site span and the drain.
    const int64_t opened = data_end_ != 0 ? data_end_ : window_start_;
    if (data_end_ != 0) AddGap(data_start_ - window_start_);
    AddGap(first - opened);
    AddGap(start - last);
    drain_end_ = end;
  }

  /// Coordinator: the window's snapshot was published over [start, end];
  /// the next window opens at `end`.
  void OnPublish(int64_t start, int64_t end) {
    log_->Add("publish", kCoordTid, start, end);
    totals_.publish_ns += end - start;
    AddGap(start - drain_end_);
    ++totals_.windows;
    window_start_ = end;
    data_start_ = data_end_ = 0;
  }

  /// Call after the run, once no lane is active.
  InProcessTotals totals() const {
    InProcessTotals t = totals_;
    for (const LaneAcc& lane : lanes_acc_) t.site_calls += lane.calls;
    return t;
  }

 private:
  static constexpr size_t kMaxLanes = 8;

  // One piece of driver time between two measured spans of a window. The
  // spans run one after another, so a piece below zero means two of them
  // overlap (a span attributed to the wrong layer or window).
  void AddGap(int64_t ns) {
    totals_.overhead_ns += ns;
    if (ns < 0) ++totals_.overlaps;
  }

  struct alignas(64) LaneAcc {
    int64_t first_ns = 0;  // this window's first site span start (0: idle)
    int64_t last_ns = 0;   // this window's last site span end
    int64_t site_ns = 0;   // this window's summed site spans
    uint64_t sites = 0;    // this window's site executions
    uint64_t calls = 0;    // SiteUpdate calls, whole pass
  };

  // Maps the calling thread to a dense lane slot, per timeline instance.
  LaneAcc& Lane() {
    struct Slot {
      uint64_t owner = 0;
      size_t lane = 0;
    };
    thread_local Slot slot;
    if (slot.owner != id_) {
      slot.owner = id_;
      slot.lane = next_lane_.fetch_add(1, std::memory_order_relaxed);
      DMT_CHECK_LT(slot.lane, kMaxLanes);
    }
    return lanes_acc_[slot.lane];
  }

  static uint64_t NextId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  const uint64_t id_ = NextId();
  const size_t lanes_;
  std::atomic<size_t> next_lane_{0};
  LaneAcc lanes_acc_[kMaxLanes];
  std::vector<int64_t> site_start_;  // per site; written by its lane only
  SpanLog* log_;
  int64_t window_start_ = 0;
  int64_t data_start_ = 0;
  int64_t data_end_ = 0;
  int64_t drain_end_ = 0;
  InProcessTotals totals_;
};

/// Times the drain of a protocol into `timeline`.
template <typename Drain>
void TimedDrain(InProcessTimeline* timeline, size_t sites, Drain drain) {
  const int64_t start = NowNs();
  drain();
  timeline->OnDrain(start, NowNs(), sites);
}

class TimedHHProtocol : public dmt::hh::HeavyHitterProtocol {
 public:
  TimedHHProtocol(dmt::hh::HeavyHitterProtocol* inner,
                  InProcessTimeline* timeline)
      : inner_(inner), timeline_(timeline) {}

  void Process(size_t site, uint64_t element, double weight) override {
    inner_->Process(site, element, weight);
  }
  void SiteUpdate(size_t site, uint64_t element, double weight) override {
    timeline_->OnUpdate(site);
    inner_->SiteUpdate(site, element, weight);
  }
  void Synchronize() override {
    TimedDrain(timeline_, 0, [&] { inner_->Synchronize(); });
  }
  void SynchronizeSites(const uint32_t* sites, size_t count) override {
    TimedDrain(timeline_, count,
               [&] { inner_->SynchronizeSites(sites, count); });
  }
  bool SupportsTargetedDrain() const override {
    return inner_->SupportsTargetedDrain();
  }
  size_t PendingOutboxSize(size_t site) const override {
    const size_t pending = inner_->PendingOutboxSize(site);
    timeline_->OnSiteDone(site);
    return pending;
  }
  bool SupportsConcurrentSiteUpdates() const override {
    return inner_->SupportsConcurrentSiteUpdates();
  }
  double EstimateElementWeight(uint64_t element) const override {
    return inner_->EstimateElementWeight(element);
  }
  double EstimateTotalWeight() const override {
    return inner_->EstimateTotalWeight();
  }
  const dmt::stream::CommStats& comm_stats() const override {
    return inner_->comm_stats();
  }
  std::vector<uint64_t> per_site_messages() const override {
    return inner_->per_site_messages();
  }
  std::string name() const override { return inner_->name(); }
  std::vector<uint64_t> TrackedElements() const override {
    return inner_->TrackedElements();
  }
  std::vector<dmt::hh::HHSnapshotEntry> ExportSnapshotEntries()
      const override {
    return inner_->ExportSnapshotEntries();
  }

 private:
  dmt::hh::HeavyHitterProtocol* inner_;
  InProcessTimeline* timeline_;
};

class TimedMatrixProtocol : public dmt::matrix::MatrixTrackingProtocol {
 public:
  TimedMatrixProtocol(dmt::matrix::MatrixTrackingProtocol* inner,
                      InProcessTimeline* timeline)
      : inner_(inner), timeline_(timeline) {}

  void ProcessRow(size_t site, const std::vector<double>& row) override {
    inner_->ProcessRow(site, row);
  }
  void SiteUpdate(size_t site, const std::vector<double>& row) override {
    timeline_->OnUpdate(site);
    inner_->SiteUpdate(site, row);
  }
  void Synchronize() override {
    TimedDrain(timeline_, 0, [&] { inner_->Synchronize(); });
  }
  void SynchronizeSites(const uint32_t* sites, size_t count) override {
    TimedDrain(timeline_, count,
               [&] { inner_->SynchronizeSites(sites, count); });
  }
  bool SupportsTargetedDrain() const override {
    return inner_->SupportsTargetedDrain();
  }
  size_t PendingOutboxSize(size_t site) const override {
    const size_t pending = inner_->PendingOutboxSize(site);
    timeline_->OnSiteDone(site);
    return pending;
  }
  bool SupportsConcurrentSiteUpdates() const override {
    return inner_->SupportsConcurrentSiteUpdates();
  }
  dmt::linalg::Matrix CoordinatorSketch() const override {
    return inner_->CoordinatorSketch();
  }
  dmt::linalg::Matrix CoordinatorGram() const override {
    return inner_->CoordinatorGram();
  }
  dmt::linalg::Matrix ExportSnapshotSketch() const override {
    return inner_->ExportSnapshotSketch();
  }
  const dmt::stream::CommStats& comm_stats() const override {
    return inner_->comm_stats();
  }
  std::vector<uint64_t> per_site_messages() const override {
    return inner_->per_site_messages();
  }
  std::string name() const override { return inner_->name(); }

 private:
  dmt::matrix::MatrixTrackingProtocol* inner_;
  InProcessTimeline* timeline_;
};

class TimedSource : public dmt::data::DatasetSource {
 public:
  TimedSource(dmt::data::DatasetSource* inner, InProcessTimeline* timeline)
      : inner_(inner), timeline_(timeline) {}

  const dmt::data::DatasetInfo& info() const override {
    return inner_->info();
  }
  size_t NextChunk(size_t max_rows, dmt::linalg::Matrix* out) override {
    const int64_t start = NowNs();
    const size_t got = inner_->NextChunk(max_rows, out);
    timeline_->OnChunk(start, NowNs(), got);
    return got;
  }
  void Reset() override { inner_->Reset(); }

 private:
  dmt::data::DatasetSource* inner_;
  InProcessTimeline* timeline_;
};

// ---------------------------------------------------------------------
// Wire proxies. Each site thread and the coordinator own their own
// counters, so no counter is shared between threads.
// ---------------------------------------------------------------------

/// One endpoint's traced time and counts.
struct WireCounters {
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
  uint64_t sends = 0;
  uint64_t recvs = 0;
  int64_t encode_ns = 0;   ///< site: EncodeWindow
  int64_t apply_ns = 0;    ///< coordinator: ApplyFrame (decode + deliver)
  int64_t update_ns = 0;   ///< site: per-window SiteUpdate spans
  uint64_t updates = 0;    ///< site: SiteUpdate calls
  int64_t window_first_update = 0;  ///< site: open update span (0: none)
};

/// Forwards Send/Recv to the wrapped connection and times them. Byte
/// accounting is kept: bytes_sent()/bytes_received() are non-virtual
/// counters of the Connection base, so the proxy counts every byte the
/// inner endpoint moved, exactly as the inner endpoint does.
class TimedConnection : public dmt::net::Connection {
 public:
  TimedConnection(std::unique_ptr<dmt::net::Connection> inner,
                  WireCounters* counters, SpanLog* log, uint32_t tid)
      : inner_(std::move(inner)), counters_(counters), log_(log), tid_(tid) {}

  bool Send(const uint8_t* data, size_t n) override {
    const int64_t start = NowNs();
    const bool ok = inner_->Send(data, n);
    const int64_t end = NowNs();
    counters_->send_ns += end - start;
    ++counters_->sends;
    log_->Add("send", tid_, start, end);
    if (ok) CountSent(n);
    return ok;
  }
  bool Recv(uint8_t* data, size_t n) override {
    const int64_t start = NowNs();
    const bool ok = inner_->Recv(data, n);
    const int64_t end = NowNs();
    counters_->recv_ns += end - start;
    ++counters_->recvs;
    log_->Add("recv", tid_, start, end);
    if (ok) CountReceived(n);
    return ok;
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<dmt::net::Connection> inner_;
  WireCounters* counters_;
  SpanLog* log_;
  uint32_t tid_;
};

/// Forwards the adapter calls. On a site, EncodeWindow also closes the
/// window's update span opened by the update wrapper (TimedUpdate).
class TimedWireAdapter : public dmt::net::WireAdapter {
 public:
  TimedWireAdapter(dmt::net::WireAdapter* inner, WireCounters* counters,
                   SpanLog* log, uint32_t tid)
      : inner_(inner), counters_(counters), log_(log), tid_(tid) {}

  std::string protocol_name() const override {
    return inner_->protocol_name();
  }
  size_t num_sites() const override { return inner_->num_sites(); }

  void EncodeWindow(size_t site, dmt::net::FrameBatch* batch) override {
    const int64_t start = NowNs();
    if (counters_->window_first_update != 0) {
      counters_->update_ns += start - counters_->window_first_update;
      log_->Add("update", tid_, counters_->window_first_update, start);
      counters_->window_first_update = 0;
    }
    inner_->EncodeWindow(site, batch);
    const int64_t end = NowNs();
    counters_->encode_ns += end - start;
    log_->Add("encode", tid_, start, end);
  }
  void ApplyBroadcast(size_t site, double value) override {
    inner_->ApplyBroadcast(site, value);
  }
  bool ApplyFrame(size_t site, dmt::net::MsgType type, const uint8_t* payload,
                  size_t n, std::string* error) override {
    const int64_t start = NowNs();
    const bool ok = inner_->ApplyFrame(site, type, payload, n, error);
    const int64_t end = NowNs();
    counters_->apply_ns += end - start;
    log_->Add("apply", tid_, start, end);
    return ok;
  }
  double BroadcastValue() const override { return inner_->BroadcastValue(); }

 private:
  dmt::net::WireAdapter* inner_;
  WireCounters* counters_;
  SpanLog* log_;
  uint32_t tid_;
};

/// Wraps a site's update callback: the first update after a window opens
/// starts the window's update span (closed by TimedWireAdapter).
inline std::function<void(uint32_t)> TimedUpdate(
    std::function<void(uint32_t)> inner, WireCounters* counters) {
  return [inner = std::move(inner), counters](uint32_t idx) {
    if (counters->window_first_update == 0) {
      counters->window_first_update = NowNs();
    }
    ++counters->updates;
    inner(idx);
  };
}

}  // namespace pipebench

#endif  // PIPEBENCH_LAYERS_H_
