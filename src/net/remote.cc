#include "net/remote.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "net/messages.h"

namespace dmt {
namespace net {
namespace {

std::string MsgTypeName(MsgType t) {
  return "type " + std::to_string(static_cast<int>(t));
}

}  // namespace

void P1Wire::EncodeWindow(size_t site, FrameBatch* batch) {
  std::vector<uint8_t> payload;
  for (const auto& flush : protocol_->TakePendingFlushes(site)) {
    HHFlushMsg m;
    m.weight = flush.weight;
    m.k = static_cast<uint32_t>(flush.summary.k());
    m.total_weight = flush.summary.total_weight();
    m.total_decrement = flush.summary.total_decrement();
    m.counters = flush.summary.Items();
    payload.clear();
    EncodeHHFlush(m, &payload);
    batch->Add(MsgType::kHHFlush, payload);
  }
}

void P1Wire::ApplyBroadcast(size_t site, double value) {
  protocol_->SetSiteBroadcastWeight(site, value);
}

bool P1Wire::ApplyFrame(size_t site, MsgType type, const uint8_t* payload,
                        size_t n, std::string* error) {
  if (type != MsgType::kHHFlush) {
    *error = "p1: unexpected " + MsgTypeName(type);
    return false;
  }
  HHFlushMsg m;
  if (!DecodeHHFlush(payload, n, &m)) {
    *error = "p1: malformed flush payload";
    return false;
  }
  // The k cross-check keeps a corrupt (or mis-configured) peer from
  // tripping the summary invariants, which are aborts, not errors.
  if (m.k != protocol_->summary_k() ||
      m.counters.size() > 2 * static_cast<size_t>(m.k)) {
    *error = "p1: flush k/counter-count mismatch";
    return false;
  }
  sketch::WeightedMisraGries summary(m.k);
  summary.RestoreState(m.total_weight, m.total_decrement, m.counters);
  protocol_->DeliverFlush(
      site, hh::P1BatchedMG::PendingFlush{std::move(summary), m.weight});
  return true;
}

double P1Wire::BroadcastValue() const { return protocol_->broadcast_weight(); }

void MP2Wire::EncodeWindow(size_t site, FrameBatch* batch) {
  std::vector<uint8_t> payload;
  for (const auto& msg : protocol_->TakePendingMessages(site)) {
    payload.clear();
    if (msg.is_scalar) {
      EncodeMatrixScalar(MatrixScalarMsg{msg.value}, &payload);
      batch->Add(MsgType::kMatrixScalar, payload);
    } else {
      EncodeMatrixDirection(MatrixDirectionMsg{msg.value, msg.dir},
                            &payload);
      batch->Add(MsgType::kMatrixDirection, payload);
    }
  }
}

void MP2Wire::ApplyBroadcast(size_t site, double value) {
  protocol_->SetSiteFest(site, value);
}

bool MP2Wire::ApplyFrame(size_t site, MsgType type, const uint8_t* payload,
                         size_t n, std::string* error) {
  if (type == MsgType::kMatrixScalar) {
    MatrixScalarMsg m;
    if (!DecodeMatrixScalar(payload, n, &m)) {
      *error = "mp2: malformed scalar payload";
      return false;
    }
    // An honest site reports only a positive, finite mass; anything else
    // would poison F-hat and, through it, every site's thresholds.
    if (!std::isfinite(m.value) || m.value <= 0.0) {
      *error = "mp2: non-finite or non-positive scalar amount";
      return false;
    }
    protocol_->DeliverMessage(
        site, matrix::MP2SvdThreshold::PendingMsg{true, m.value, {}});
    return true;
  }
  if (type == MsgType::kMatrixDirection) {
    MatrixDirectionMsg m;
    if (!DecodeMatrixDirection(payload, n, &m)) {
      *error = "mp2: malformed direction payload";
      return false;
    }
    // Dimension cross-check before delivery: EnsureDim treats a mismatch
    // as a programming error (abort), but wire input is untrusted.
    if (m.dir.empty() ||
        (protocol_->dim() != 0 && m.dir.size() != protocol_->dim())) {
      *error = "mp2: direction dimension mismatch";
      return false;
    }
    // Shipped directions carry lambda > 0 and finite entries; a NaN or
    // Inf would spread through the coordinator Gram on delivery.
    if (!std::isfinite(m.lambda) || m.lambda <= 0.0) {
      *error = "mp2: non-finite or non-positive direction lambda";
      return false;
    }
    for (double x : m.dir) {
      if (!std::isfinite(x)) {
        *error = "mp2: non-finite direction entry";
        return false;
      }
    }
    protocol_->DeliverMessage(
        site, matrix::MP2SvdThreshold::PendingMsg{false, m.lambda,
                                                  std::move(m.dir)});
    return true;
  }
  *error = "mp2: unexpected " + MsgTypeName(type);
  return false;
}

double MP2Wire::BroadcastValue() const {
  return protocol_->last_broadcast_fest();
}

std::vector<std::vector<uint32_t>> SiteWindowIndices(
    const std::vector<size_t>& sites, size_t site,
    const std::vector<size_t>& window_ends) {
  std::vector<std::vector<uint32_t>> windows(window_ends.size());
  size_t w = 0;
  for (size_t i = 0; i < sites.size(); ++i) {
    while (w < window_ends.size() && i >= window_ends[w]) ++w;
    if (w == window_ends.size()) break;  // beyond the scheduled stream
    if (sites[i] == site) windows[w].push_back(static_cast<uint32_t>(i));
  }
  return windows;
}

bool RunWireSite(WireAdapter* adapter, size_t site,
                 const std::vector<std::vector<uint32_t>>& windows,
                 const std::function<void(uint32_t)>& update,
                 Connection* conn, std::string* error) {
  {
    HelloMsg hello;
    hello.site = static_cast<uint32_t>(site);
    hello.num_sites = static_cast<uint32_t>(adapter->num_sites());
    hello.num_windows = windows.size();
    hello.protocol = adapter->protocol_name();
    std::vector<uint8_t> payload;
    EncodeHello(hello, &payload);
    if (!SendFrame(conn, MsgType::kHello, payload)) {
      *error = "site: hello send failed";
      return false;
    }
  }

  FrameBatch batch;
  std::vector<uint8_t> payload;
  FrameHeader header;
  for (size_t w = 0; w < windows.size(); ++w) {
    for (uint32_t idx : windows[w]) update(idx);

    // One batched send per window: every queued protocol message plus the
    // window-end marker leave in a single write.
    adapter->EncodeWindow(site, &batch);
    payload.clear();
    EncodeWindowEnd(WindowEndMsg{w}, &payload);
    batch.Add(MsgType::kWindowEnd, payload);
    if (!batch.Flush(conn)) {
      *error = "site: window " + std::to_string(w) + " send failed";
      return false;
    }

    if (!RecvFrame(conn, &header, &payload, error)) return false;
    BroadcastMsg b;
    if (header.type != MsgType::kBroadcast ||
        !DecodeBroadcast(payload.data(), payload.size(), &b) ||
        b.window != w) {
      *error = "site: expected broadcast for window " + std::to_string(w);
      return false;
    }
    // Broadcast values are total masses: 0 before the first broadcast,
    // finite and positive after. A NaN would silence this site for good.
    if (!std::isfinite(b.value) || b.value < 0.0) {
      *error = "site: non-finite or negative broadcast value for window " +
               std::to_string(w);
      return false;
    }
    adapter->ApplyBroadcast(site, b.value);
  }

  payload.clear();
  EncodeSiteDone(SiteDoneMsg{windows.size()}, &payload);
  if (!SendFrame(conn, MsgType::kSiteDone, payload)) {
    *error = "site: done send failed";
    return false;
  }
  if (!RecvFrame(conn, &header, &payload, error)) return false;
  if (header.type != MsgType::kShutdown) {
    *error = "site: expected shutdown, got " + MsgTypeName(header.type);
    return false;
  }
  return true;
}

bool RunWireCoordinator(WireAdapter* adapter,
                        std::vector<std::unique_ptr<Connection>>* channels,
                        size_t num_windows, WireCoordinatorReport* report,
                        std::string* error,
                        const std::function<void(size_t)>& on_window) {
  const size_t m = adapter->num_sites();
  if (channels->size() != m) {
    *error = "coordinator: got " + std::to_string(channels->size()) +
             " channels for " + std::to_string(m) + " sites";
    return false;
  }

  // Handshake: channels arrive in accept order; each peer announces its
  // site id, and the drain below needs them indexed by that id.
  std::vector<std::unique_ptr<Connection>> by_site(m);
  FrameHeader header;
  std::vector<uint8_t> payload;
  for (auto& conn : *channels) {
    if (!RecvFrame(conn.get(), &header, &payload, error)) return false;
    HelloMsg hello;
    if (header.type != MsgType::kHello ||
        !DecodeHello(payload.data(), payload.size(), &hello)) {
      *error = "coordinator: bad handshake frame";
      return false;
    }
    if (hello.protocol != adapter->protocol_name()) {
      *error = "coordinator: protocol mismatch (peer runs '" +
               hello.protocol + "', expected '" + adapter->protocol_name() +
               "')";
      return false;
    }
    if (hello.num_sites != m || hello.num_windows != num_windows) {
      *error = "coordinator: schedule mismatch in hello from site " +
               std::to_string(hello.site);
      return false;
    }
    if (hello.site >= m || by_site[hello.site] != nullptr) {
      *error = "coordinator: duplicate or out-of-range site id " +
               std::to_string(hello.site);
      return false;
    }
    by_site[hello.site] = std::move(conn);
  }
  *channels = std::move(by_site);

  report->bytes_from_site.assign(m, 0);
  report->bytes_to_site.assign(m, 0);

  for (size_t w = 0; w < num_windows; ++w) {
    // Ascending-site drain: the oracle's SynchronizeSites() order.
    for (size_t s = 0; s < m; ++s) {
      Connection* conn = (*channels)[s].get();
      while (true) {
        if (!RecvFrame(conn, &header, &payload, error)) return false;
        ++report->frames_received;
        if (header.type == MsgType::kWindowEnd) {
          WindowEndMsg end;
          if (!DecodeWindowEnd(payload.data(), payload.size(), &end) ||
              end.window != w) {
            *error = "coordinator: window marker mismatch from site " +
                     std::to_string(s);
            return false;
          }
          break;
        }
        if (!adapter->ApplyFrame(s, header.type, payload.data(),
                                 payload.size(), error)) {
          *error = "coordinator: site " + std::to_string(s) + ": " + *error;
          return false;
        }
      }
    }

    BroadcastMsg b;
    b.window = w;
    b.value = adapter->BroadcastValue();
    payload.clear();
    EncodeBroadcast(b, &payload);
    for (size_t s = 0; s < m; ++s) {
      if (!SendFrame((*channels)[s].get(), MsgType::kBroadcast, payload)) {
        *error = "coordinator: broadcast to site " + std::to_string(s) +
                 " failed";
        return false;
      }
    }

    // Post-broadcast: the coordinator protocol stays in its between-rounds
    // state until the next window's frames are applied, and those are read
    // only after this returns — so the snapshot export sees exactly the
    // drained state while the sites already run their next window.
    if (on_window) on_window(w + 1);
  }

  for (size_t s = 0; s < m; ++s) {
    if (!RecvFrame((*channels)[s].get(), &header, &payload, error)) {
      return false;
    }
    ++report->frames_received;
    SiteDoneMsg done;
    if (header.type != MsgType::kSiteDone ||
        !DecodeSiteDone(payload.data(), payload.size(), &done) ||
        done.windows != num_windows) {
      *error = "coordinator: bad done frame from site " + std::to_string(s);
      return false;
    }
  }
  payload.clear();
  for (size_t s = 0; s < m; ++s) {
    if (!SendFrame((*channels)[s].get(), MsgType::kShutdown, payload)) {
      *error = "coordinator: shutdown to site " + std::to_string(s) +
               " failed";
      return false;
    }
  }
  for (size_t s = 0; s < m; ++s) {
    report->bytes_from_site[s] = (*channels)[s]->bytes_received();
    report->bytes_to_site[s] = (*channels)[s]->bytes_sent();
  }
  return true;
}

}  // namespace net
}  // namespace dmt
