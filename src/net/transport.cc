#include "net/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

namespace dmt {
namespace net {
namespace {

// The protocol-message frames a site sends inside a window; every other
// type is a control frame.
bool IsDataFrame(MsgType t) {
  return t == MsgType::kHHFlush || t == MsgType::kMatrixScalar ||
         t == MsgType::kMatrixDirection || t == MsgType::kFdSketch;
}

/// Blocking full-duplex TCP socket. TCP_NODELAY is set so a window's
/// single batched Send leaves immediately instead of waiting on Nagle.
/// Recv serves small reads from a receive buffer that one `recv` refills
/// with whatever has arrived, so reading a window's frames costs about
/// one syscall per window rather than one or two per frame.
class TcpConnection : public Connection {
 public:
  explicit TcpConnection(int fd) : fd_(fd), buf_(kRecvBufferBytes) {
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~TcpConnection() override { Close(); }

  bool Send(const uint8_t* data, size_t n) override {
    size_t off = 0;
    while (off < n) {
      // MSG_NOSIGNAL: a peer that died mid-run must surface as a false
      // return, not a SIGPIPE process kill.
      const ssize_t w =
          ::send(fd_, data + off, n - off, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(w);
    }
    CountSent(n);
    return true;
  }

  bool Recv(uint8_t* data, size_t n) override {
    size_t off = std::min(n, end_ - begin_);
    if (off != 0) std::memcpy(data, buf_.data() + begin_, off);
    begin_ += off;
    while (off < n) {
      // A request at least the buffer's size bypasses it; a smaller one
      // refills it with one recv of whatever has arrived.
      const bool direct = n - off >= buf_.size();
      uint8_t* into = direct ? data + off : buf_.data();
      const ssize_t r =
          ::recv(fd_, into, direct ? n - off : buf_.size(), 0);
      if (r < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (r == 0) return false;  // orderly peer close mid-message
      if (direct) {
        off += static_cast<size_t>(r);
        continue;
      }
      const size_t take = std::min(n - off, static_cast<size_t>(r));
      std::memcpy(data + off, buf_.data(), take);
      off += take;
      begin_ = take;
      end_ = static_cast<size_t>(r);
    }
    CountReceived(n);
    return true;
  }

  void Close() override {
    if (fd_ >= 0) {
      ::shutdown(fd_, SHUT_RDWR);
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  static constexpr size_t kRecvBufferBytes = 32 * 1024;

  int fd_;
  std::vector<uint8_t> buf_;  // received bytes not yet delivered:
  size_t begin_ = 0;          // buf_[begin_, end_)
  size_t end_ = 0;
};

/// One direction of the in-memory pair: a byte queue with blocking reads.
struct LocalPipe {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<uint8_t> bytes;
  bool closed = false;

  void Write(const uint8_t* data, size_t n) {
    {
      std::lock_guard<std::mutex> lock(mu);
      bytes.insert(bytes.end(), data, data + n);
    }
    cv.notify_all();
  }

  // Reads exactly n bytes; false if the pipe closes before they arrive.
  bool Read(uint8_t* data, size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    size_t off = 0;
    while (off < n) {
      cv.wait(lock, [&] { return !bytes.empty() || closed; });
      if (bytes.empty() && closed) return false;
      while (off < n && !bytes.empty()) {
        data[off++] = bytes.front();
        bytes.pop_front();
      }
    }
    return true;
  }

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu);
      closed = true;
    }
    cv.notify_all();
  }
};

/// One endpoint of the in-memory pair: sends into `out`, receives from
/// `in`. Both endpoints share the two pipes.
class LocalConnection : public Connection {
 public:
  LocalConnection(std::shared_ptr<LocalPipe> in, std::shared_ptr<LocalPipe> out)
      : in_(std::move(in)), out_(std::move(out)) {}
  ~LocalConnection() override { Close(); }

  bool Send(const uint8_t* data, size_t n) override {
    {
      std::lock_guard<std::mutex> lock(out_->mu);
      if (out_->closed) return false;
    }
    out_->Write(data, n);
    CountSent(n);
    return true;
  }

  bool Recv(uint8_t* data, size_t n) override {
    if (!in_->Read(data, n)) return false;
    CountReceived(n);
    return true;
  }

  void Close() override {
    in_->Close();
    out_->Close();
  }

 private:
  std::shared_ptr<LocalPipe> in_;
  std::shared_ptr<LocalPipe> out_;
};

}  // namespace

bool SendFrame(Connection* conn, MsgType type,
               const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  AppendFrame(type, payload.data(), payload.size(), &frame);
  return conn->Send(frame.data(), frame.size());
}

// The virtual Connection::Recv calls are not statically resolvable; every
// implementation is a blocking byte copy that reports failure by returning
// false and never interprets the bytes it moves.
// dmt-lint: allow(untrusted-abort-path): virtual Recv is a byte copy, returns false on failure
DMT_UNTRUSTED_INPUT
bool RecvFrame(Connection* conn, FrameHeader* header,
               std::vector<uint8_t>* payload, std::string* error,
               CarriedHeader* carried) {
  uint8_t raw[kFrameHeaderBytes];
  const uint8_t* head = raw;
  if (carried != nullptr && carried->valid) {
    head = carried->bytes;
  } else if (!conn->Recv(raw, kFrameHeaderBytes)) {
    if (error != nullptr) *error = "frame: channel closed";
    return false;
  }
  if (!DecodeFrameHeader(head, header, error)) return false;
  const size_t len = header->payload_len;
  const bool ahead = carried != nullptr && IsDataFrame(header->type);
  const size_t want = len + (ahead ? kFrameHeaderBytes : 0);
  payload->resize(want);
  if (want != 0 && !conn->Recv(payload->data(), want)) {
    if (error != nullptr) *error = "frame: channel closed mid-payload";
    return false;
  }
  if (carried != nullptr) {
    carried->valid = ahead;
    if (ahead) {
      std::memcpy(carried->bytes, payload->data() + len, kFrameHeaderBytes);
    }
  }
  payload->resize(len);
  return CheckFrameCrc(*header, payload->data(), error);
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<TcpListener> TcpListener::Listen(uint16_t port,
                                                 std::string* error,
                                                 bool any_interface) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::string("socket: ") + strerror(errno);
    return nullptr;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr =
      any_interface ? htonl(INADDR_ANY) : htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error != nullptr) *error = std::string("bind: ") + strerror(errno);
    ::close(fd);
    return nullptr;
  }
  if (::listen(fd, 64) != 0) {
    if (error != nullptr) *error = std::string("listen: ") + strerror(errno);
    ::close(fd);
    return nullptr;
  }
  // Read back the bound port so port 0 (ephemeral) is usable.
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    if (error != nullptr) {
      *error = std::string("getsockname: ") + strerror(errno);
    }
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<TcpListener>(
      new TcpListener(fd, ntohs(bound.sin_port)));
}

std::unique_ptr<Connection> TcpListener::Accept(std::string* error) {
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return std::make_unique<TcpConnection>(fd);
    if (errno == EINTR) continue;
    if (error != nullptr) *error = std::string("accept: ") + strerror(errno);
    return nullptr;
  }
}

std::unique_ptr<Connection> TcpConnect(const std::string& host, uint16_t port,
                                       std::string* error, int retries) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "connect: bad IPv4 address " + host;
    return nullptr;
  }
  int last_errno = 0;
  for (int attempt = 0; attempt <= retries; ++attempt) {
    if (attempt != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return std::make_unique<TcpConnection>(fd);
    }
    last_errno = errno;
    ::close(fd);
  }
  if (error != nullptr) {
    *error = "connect " + host + ":" + std::to_string(port) + ": " +
             strerror(last_errno);
  }
  return nullptr;
}

std::pair<std::unique_ptr<Connection>, std::unique_ptr<Connection>>
MakeLocalPair() {
  auto a_to_b = std::make_shared<LocalPipe>();
  auto b_to_a = std::make_shared<LocalPipe>();
  return {std::make_unique<LocalConnection>(b_to_a, a_to_b),
          std::make_unique<LocalConnection>(a_to_b, b_to_a)};
}

}  // namespace net
}  // namespace dmt
