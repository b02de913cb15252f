// Distributed protocol runner: the site and coordinator halves of a run
// over a real channel, replaying the SimulationDriver schedule exactly.
//
// Execution model. Every site process holds a full protocol instance but
// drives only its own site's SiteUpdate; the coordinator process holds its
// own instance and never sees a raw arrival. Per synchronization window
// (stream::WindowEnds):
//
//   site s:        apply this window's arrivals -> serialize the outbox ->
//                  one batched send (frames + kWindowEnd) -> block on the
//                  coordinator's kBroadcast.
//   coordinator:   drain sites in ascending order (each until kWindowEnd),
//                  delivering every message to its protocol instance ->
//                  push the current broadcast value to every site ->
//                  run the on_window hook (e.g. a snapshot publish).
//
// The hook runs after the push, so the sites start their next window
// while the coordinator publishes; the coordinator's protocol state does
// not change until it reads that window's frames, which happens only
// after the hook returns.
//
// That is message-for-message the oracle's schedule — site phase, ordered
// drain, broadcast visibility only at the window boundary — and payloads
// travel as exact 8-byte doubles, so the coordinator's final sketch and
// CommStats are bit-identical to an in-process run over the same workload
// (tests/net_transport_test.cc asserts this). The per-window kBroadcast
// push is a transport frame, not a paper message: CommStats still counts
// only the protocol's own broadcast events, while Connection byte counters
// report what actually crossed the wire.
//
// Deadlock-freedom: the coordinator drains sites in ascending order, and a
// site blocks on its broadcast only after its batched send completed; a
// site whose send fills the socket buffer simply waits until the
// coordinator's drain reaches it. There is no cycle.
#ifndef DMT_NET_REMOTE_H_
#define DMT_NET_REMOTE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hh/p1_batched_mg.h"
#include "matrix/mp2_svd_threshold.h"
#include "net/transport.h"

namespace dmt {
namespace net {

/// Protocol-specific serialization glue between a protocol instance's wire
/// hooks and the frame vocabulary. One adapter wraps one instance and
/// serves whichever half (site or coordinator) the process runs.
class WireAdapter {
 public:
  virtual ~WireAdapter() = default;

  /// Registered protocol name carried in the handshake ("p1", "mp2").
  virtual std::string protocol_name() const = 0;
  virtual size_t num_sites() const = 0;

  /// Site half: drains site `site`'s outbox into `batch`, one frame per
  /// protocol message, in emission order.
  virtual void EncodeWindow(size_t site, FrameBatch* batch) = 0;
  /// Site half: installs a received broadcast value into `site`'s view.
  virtual void ApplyBroadcast(size_t site, double value) = 0;

  /// Coordinator half: decodes one received frame from `site` and delivers
  /// it to the protocol instance. False (with `*error`), before anything
  /// is applied, on a malformed or out-of-vocabulary payload or a value no
  /// honest site sends (e.g. a non-finite or non-positive mass) — wire
  /// input is untrusted.
  virtual bool ApplyFrame(size_t site, MsgType type, const uint8_t* payload,
                          size_t n, std::string* error) = 0;
  /// Coordinator half: the broadcast value to push after a window drain.
  virtual double BroadcastValue() const = 0;
};

/// Adapter for protocol P1 (batched Misra-Gries heavy hitters).
class P1Wire : public WireAdapter {
 public:
  P1Wire(hh::P1BatchedMG* protocol, size_t num_sites)
      : protocol_(protocol), num_sites_(num_sites) {}

  std::string protocol_name() const override { return "p1"; }
  size_t num_sites() const override { return num_sites_; }
  void EncodeWindow(size_t site, FrameBatch* batch) override;
  void ApplyBroadcast(size_t site, double value) override;
  bool ApplyFrame(size_t site, MsgType type, const uint8_t* payload,
                  size_t n, std::string* error) override;
  double BroadcastValue() const override;

 private:
  hh::P1BatchedMG* protocol_;
  size_t num_sites_;
};

/// Adapter for matrix protocol MP2 (SVD-threshold tracking).
class MP2Wire : public WireAdapter {
 public:
  MP2Wire(matrix::MP2SvdThreshold* protocol, size_t num_sites)
      : protocol_(protocol), num_sites_(num_sites) {}

  std::string protocol_name() const override { return "mp2"; }
  size_t num_sites() const override { return num_sites_; }
  void EncodeWindow(size_t site, FrameBatch* batch) override;
  void ApplyBroadcast(size_t site, double value) override;
  bool ApplyFrame(size_t site, MsgType type, const uint8_t* payload,
                  size_t n, std::string* error) override;
  double BroadcastValue() const override;

 private:
  matrix::MP2SvdThreshold* protocol_;
  size_t num_sites_;
};

/// Splits a materialized site assignment into one site's per-window lists
/// of stream indices, following the oracle's window schedule
/// (stream::WindowEnds output for the same n/chunk/num_sites). A site has
/// an (often empty) entry for every window — the schedule is global.
std::vector<std::vector<uint32_t>> SiteWindowIndices(
    const std::vector<size_t>& sites, size_t site,
    const std::vector<size_t>& window_ends);

/// Runs one site's half of the protocol over `conn`: handshake, then per
/// window apply this site's arrivals via `update` (called with the stream
/// index), batch-send the outbox, and absorb the broadcast. Returns false
/// with `*error` on any channel or protocol-framing failure, and on a
/// non-finite or negative broadcast value (which is never installed).
bool RunWireSite(WireAdapter* adapter, size_t site,
                 const std::vector<std::vector<uint32_t>>& windows,
                 const std::function<void(uint32_t)>& update,
                 Connection* conn, std::string* error);

/// Per-channel byte accounting of a coordinator run (index = site id).
struct WireCoordinatorReport {
  uint64_t frames_received = 0;
  std::vector<uint64_t> bytes_from_site;
  std::vector<uint64_t> bytes_to_site;

  uint64_t total_bytes_up() const {
    uint64_t t = 0;
    for (uint64_t b : bytes_from_site) t += b;
    return t;
  }
  uint64_t total_bytes_down() const {
    uint64_t t = 0;
    for (uint64_t b : bytes_to_site) t += b;
    return t;
  }
};

/// Runs the coordinator's half over `channels` (accept order — the
/// handshake reorders them by the site id each peer announces). Expects
/// exactly adapter->num_sites() channels and `num_windows` windows; drains
/// every window in ascending site order, pushes broadcasts, then runs the
/// kSiteDone / kShutdown teardown. Returns false with `*error` on any
/// channel failure, malformed frame, or handshake mismatch.
///
/// `on_window`, when non-empty, runs once per window (1-based count of
/// drained windows) after that window's drain and broadcast push, and
/// before the next window's first frame is read — the protocol instance
/// is still in the drained, between-rounds state, so the callback may
/// export snapshots (serve::ServingCoordinator publishes from here) while
/// the sites already work on the next window. Observer plane only: it
/// must not mutate the protocol.
bool RunWireCoordinator(WireAdapter* adapter,
                        std::vector<std::unique_ptr<Connection>>* channels,
                        size_t num_windows, WireCoordinatorReport* report,
                        std::string* error,
                        const std::function<void(size_t)>& on_window = {});

}  // namespace net
}  // namespace dmt

#endif  // DMT_NET_REMOTE_H_
