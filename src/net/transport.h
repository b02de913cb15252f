// Blocking byte transports behind one small interface, plus framed I/O
// helpers on top.
//
// A Connection is one bidirectional channel between a site and the
// coordinator. Implementations are blocking and count every byte that
// crosses the channel (header + payload), which is where the
// "bytes on the wire" column next to the paper's message metric comes
// from. Two implementations:
//
//  * TcpConnection — a loopback-or-real-host TCP socket (dmt_site /
//    dmt_coordinator, the transport-equivalence tests).
//  * local pair   — an in-memory queue pair (MakeLocalPair), the same
//    framed semantics with no sockets; unit-tests the runner logic and
//    demonstrates that nothing above this interface knows about TCP.
//
// Threading: a Connection may be used by one sender thread and one
// receiver thread concurrently (the local pair locks internally; a TCP
// socket already allows full-duplex), but each direction by only one
// thread at a time.
#ifndef DMT_NET_TRANSPORT_H_
#define DMT_NET_TRANSPORT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/frame.h"
#include "util/contracts.h"

namespace dmt {
namespace net {

/// One blocking bidirectional byte channel with per-direction accounting.
class Connection {
 public:
  virtual ~Connection() = default;

  /// Sends exactly `n` bytes; false on a broken channel.
  virtual bool Send(const uint8_t* data, size_t n) = 0;

  /// Receives exactly `n` bytes, blocking until available; false when the
  /// peer closed or the channel broke before `n` bytes arrived.
  virtual bool Recv(uint8_t* data, size_t n) = 0;

  /// Closes the channel (idempotent; unblocks a peer's Recv with false).
  virtual void Close() = 0;

  /// Bytes successfully sent / received so far on this endpoint.
  uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_received() const {
    return bytes_received_.load(std::memory_order_relaxed);
  }

 protected:
  void CountSent(size_t n) {
    bytes_sent_.fetch_add(n, std::memory_order_relaxed);
  }
  void CountReceived(size_t n) {
    bytes_received_.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  // Pure statistics (the "bytes on the wire" report column): relaxed per
  // the DMT_ATOMIC_COUNTER contract — they order nothing and are read
  // after the exchange completes (or where approximate values suffice).
  DMT_ATOMIC_COUNTER std::atomic<uint64_t> bytes_sent_{0};
  DMT_ATOMIC_COUNTER std::atomic<uint64_t> bytes_received_{0};
};

/// Accumulates frames so one window's worth of messages goes out in a
/// single Send — the batched-send path of the site loop (one syscall per
/// window instead of one per protocol message).
class FrameBatch {
 public:
  /// Appends one frame wrapping `payload`.
  void Add(MsgType type, const std::vector<uint8_t>& payload) {
    AppendFrame(type, payload.data(), payload.size(), &buf_);
    ++frames_;
  }

  /// Writes every buffered frame in one Send and clears the batch.
  bool Flush(Connection* conn) {
    if (!buf_.empty() && !conn->Send(buf_.data(), buf_.size())) return false;
    buf_.clear();
    frames_ = 0;
    return true;
  }

  size_t frames() const { return frames_; }
  size_t bytes() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
  size_t frames_ = 0;
};

/// Sends one frame immediately (header + payload in one Send).
bool SendFrame(Connection* conn, MsgType type,
               const std::vector<uint8_t>& payload);

/// A frame header RecvFrame read ahead of its frame.
struct CarriedHeader {
  bool valid = false;
  uint8_t bytes[kFrameHeaderBytes] = {};
};

/// Receives one frame: header, validation, payload, CRC check. Returns
/// false with `*error` set on a closed channel or a malformed frame.
///
/// With `carried`, a valid carried header stands in for the header read,
/// and a data frame's payload is read together with the next frame's
/// header, which is left in `*carried`. Only a reader that knows another
/// frame follows every data frame may pass it: the wire coordinator's
/// window drain, since a site ends each window with kWindowEnd. A
/// control frame's payload is read alone and clears `*carried`.
bool RecvFrame(Connection* conn, FrameHeader* header,
               std::vector<uint8_t>* payload, std::string* error,
               CarriedHeader* carried = nullptr);

/// Listening socket bound to 127.0.0.1 (or all interfaces with
/// `any_interface`); `port` 0 picks an ephemeral port, readable from
/// port() afterwards.
class TcpListener {
 public:
  ~TcpListener();

  /// Binds and listens. Returns nullptr with `*error` set on failure.
  static std::unique_ptr<TcpListener> Listen(uint16_t port,
                                             std::string* error,
                                             bool any_interface = false);

  /// Accepts one connection (blocking). nullptr with `*error` on failure.
  std::unique_ptr<Connection> Accept(std::string* error);

  /// The bound port (the ephemeral one when constructed with port 0).
  uint16_t port() const { return port_; }

 private:
  TcpListener(int fd, uint16_t port) : fd_(fd), port_(port) {}
  int fd_;
  uint16_t port_;
};

/// Connects to host:port, retrying `retries` times with a short pause so
/// sites can start before (or while) the coordinator binds its port.
/// nullptr with `*error` set when every attempt failed.
std::unique_ptr<Connection> TcpConnect(const std::string& host, uint16_t port,
                                       std::string* error, int retries = 100);

/// An in-memory connected pair: bytes sent on one endpoint arrive at the
/// other, with the same blocking semantics as a socket.
std::pair<std::unique_ptr<Connection>, std::unique_ptr<Connection>>
MakeLocalPair();

}  // namespace net
}  // namespace dmt

#endif  // DMT_NET_TRANSPORT_H_
