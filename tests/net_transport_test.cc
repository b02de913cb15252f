// Transport and end-to-end equivalence tests: the local in-memory pair,
// the TCP loopback socket path, and the headline guarantee — a full
// distributed run (coordinator + site runners on real channels) finishes
// with coordinator state and CommStats bit-identical to the in-process
// SimulationDriver oracle, for both P1 and MP2, over both transports,
// and publishes the oracle's snapshot at every window. Also: values no
// honest peer sends (non-finite or non-positive masses) are rejected
// before they reach protocol state, on both halves.
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/messages.h"
#include "net/remote.h"
#include "net/transport.h"
#include "net/workload.h"
#include "serve/serving_coordinator.h"
#include "serve/snapshot.h"
#include "serve/snapshot_store.h"
#include "stream/simulation_driver.h"

namespace dmt {
namespace net {
namespace {

// ---------------------------------------------------------------------------
// Local pair semantics.

TEST(LocalPairTest, BytesCrossAndAreCounted) {
  auto [a, b] = MakeLocalPair();
  const uint8_t out[] = {1, 2, 3, 4, 5};
  ASSERT_TRUE(a->Send(out, sizeof(out)));
  uint8_t in[sizeof(out)] = {};
  ASSERT_TRUE(b->Recv(in, sizeof(in)));
  EXPECT_EQ(std::memcmp(in, out, sizeof(out)), 0);
  EXPECT_EQ(a->bytes_sent(), sizeof(out));
  EXPECT_EQ(b->bytes_received(), sizeof(out));
  EXPECT_EQ(a->bytes_received(), 0u);
  EXPECT_EQ(b->bytes_sent(), 0u);
}

TEST(LocalPairTest, RecvBlocksUntilBytesArrive) {
  auto [a, b] = MakeLocalPair();
  uint8_t in[4] = {};
  std::thread sender([conn = a.get()] {
    const uint8_t out[] = {9, 8, 7, 6};
    // Two partial sends; the peer's single Recv must coalesce them.
    ASSERT_TRUE(conn->Send(out, 2));
    ASSERT_TRUE(conn->Send(out + 2, 2));
  });
  ASSERT_TRUE(b->Recv(in, sizeof(in)));
  sender.join();
  EXPECT_EQ(in[0], 9);
  EXPECT_EQ(in[3], 6);
}

TEST(LocalPairTest, CloseUnblocksPeerRecv) {
  auto [a, b] = MakeLocalPair();
  std::thread closer([conn = a.get()] { conn->Close(); });
  uint8_t in[1];
  EXPECT_FALSE(b->Recv(in, 1));
  closer.join();
}

TEST(LocalPairTest, FramesTravelIntact) {
  auto [a, b] = MakeLocalPair();
  BroadcastMsg m;
  m.window = 5;
  m.value = 1.0 / 3.0;
  std::vector<uint8_t> payload;
  EncodeBroadcast(m, &payload);
  ASSERT_TRUE(SendFrame(a.get(), MsgType::kBroadcast, payload));

  FrameHeader header;
  std::vector<uint8_t> got;
  std::string error;
  ASSERT_TRUE(RecvFrame(b.get(), &header, &got, &error)) << error;
  EXPECT_EQ(header.type, MsgType::kBroadcast);
  BroadcastMsg back;
  ASSERT_TRUE(DecodeBroadcast(got.data(), got.size(), &back));
  EXPECT_EQ(back.window, 5u);
  double expect = 1.0 / 3.0;
  EXPECT_EQ(std::memcmp(&back.value, &expect, sizeof(double)), 0);
}

// ---------------------------------------------------------------------------
// TCP loopback path.

TEST(TcpTransportTest, LoopbackFrameEcho) {
  std::string error;
  auto listener = TcpListener::Listen(0, &error);
  ASSERT_NE(listener, nullptr) << error;
  ASSERT_GT(listener->port(), 0);

  std::unique_ptr<Connection> server;
  std::thread accepter([&] {
    std::string accept_error;
    server = listener->Accept(&accept_error);
  });
  auto client = TcpConnect("127.0.0.1", listener->port(), &error);
  ASSERT_NE(client, nullptr) << error;
  accepter.join();
  ASSERT_NE(server, nullptr);

  // Client -> server frame, echoed back, intact both ways.
  std::vector<uint8_t> payload;
  EncodeWindowEnd({99}, &payload);
  ASSERT_TRUE(SendFrame(client.get(), MsgType::kWindowEnd, payload));
  FrameHeader header;
  std::vector<uint8_t> got;
  ASSERT_TRUE(RecvFrame(server.get(), &header, &got, &error)) << error;
  EXPECT_EQ(header.type, MsgType::kWindowEnd);
  ASSERT_TRUE(SendFrame(server.get(), MsgType::kWindowEnd, got));
  got.clear();
  ASSERT_TRUE(RecvFrame(client.get(), &header, &got, &error)) << error;
  WindowEndMsg back;
  ASSERT_TRUE(DecodeWindowEnd(got.data(), got.size(), &back));
  EXPECT_EQ(back.window, 99u);

  // Both directions counted, symmetrically.
  EXPECT_EQ(client->bytes_sent(), server->bytes_received());
  EXPECT_EQ(server->bytes_sent(), client->bytes_received());
  EXPECT_EQ(client->bytes_sent(), kFrameHeaderBytes + payload.size());
}

TEST(TcpTransportTest, ConnectToDeadPortFails) {
  std::string error;
  // Bind-then-drop guarantees a currently-closed port.
  uint16_t dead_port = 0;
  {
    auto listener = TcpListener::Listen(0, &error);
    ASSERT_NE(listener, nullptr) << error;
    dead_port = listener->port();
  }
  auto conn = TcpConnect("127.0.0.1", dead_port, &error, /*retries=*/2);
  EXPECT_EQ(conn, nullptr);
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// End-to-end equivalence: full wire run == in-process oracle, bit for bit.

WireRunConfig SmallConfig(const std::string& protocol) {
  WireRunConfig config;
  config.protocol = protocol;
  config.num_sites = 3;
  config.n = 4000;
  config.chunk = 256;
  config.eps = 0.2;
  config.seed = 17;
  config.universe = 4096;
  config.dim = 12;
  return config;
}

// Runs coordinator + all sites on threads over the given per-site channel
// pairs, asserting success everywhere; returns the wire-side protocol
// instance and the coordinator's byte report. `on_window` is passed to
// the coordinator loop.
void RunWireOnThreads(const WireRunConfig& config,
                      const WireWorkload& workload, WireProtocol* coord,
                      std::vector<std::unique_ptr<Connection>> coord_ends,
                      std::vector<std::unique_ptr<Connection>> site_ends,
                      WireCoordinatorReport* report,
                      const std::function<void(size_t)>& on_window = {}) {
  std::vector<std::thread> site_threads;
  std::vector<WireProtocol> site_protocols(config.num_sites);
  std::vector<std::string> site_errors(config.num_sites);
  // Not vector<bool>: each site thread writes its own element, and the
  // packed-bit specialization would make distinct elements share a word.
  std::vector<char> site_ok(config.num_sites, 0);
  for (size_t s = 0; s < config.num_sites; ++s) {
    site_protocols[s] = MakeWireProtocol(config);
    ASSERT_NE(site_protocols[s].adapter, nullptr);
    site_threads.emplace_back([&, s, conn = site_ends[s].get()] {
      const auto windows =
          SiteWindowIndices(workload.sites, s, workload.window_ends);
      const auto update = MakeSiteUpdater(workload, &site_protocols[s], s);
      std::string error;
      site_ok[s] = RunWireSite(site_protocols[s].adapter.get(), s, windows,
                               update, conn, &error);
      site_errors[s] = error;
    });
  }
  std::string coord_error;
  const bool coord_ok = RunWireCoordinator(
      coord->adapter.get(), &coord_ends, workload.window_ends.size(), report,
      &coord_error, on_window);
  for (auto& t : site_threads) t.join();
  EXPECT_TRUE(coord_ok) << coord_error;
  for (size_t s = 0; s < config.num_sites; ++s) {
    EXPECT_TRUE(site_ok[s]) << "site " << s << ": " << site_errors[s];
  }
  // Byte accounting must agree endpoint-to-endpoint: what each site sent
  // is exactly what the coordinator's channel received, and vice versa.
  ASSERT_EQ(report->bytes_from_site.size(), config.num_sites);
  for (size_t s = 0; s < config.num_sites; ++s) {
    EXPECT_EQ(site_ends[s]->bytes_sent(), report->bytes_from_site[s]);
    EXPECT_EQ(site_ends[s]->bytes_received(), report->bytes_to_site[s]);
    EXPECT_GT(report->bytes_to_site[s], 0u);  // broadcasts flowed down
  }
}

class WireEquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WireEquivalenceTest, LocalPairRunMatchesOracleBitForBit) {
  const WireRunConfig config = SmallConfig(GetParam());
  const WireWorkload workload = MakeWireWorkload(config);
  WireProtocol coord = MakeWireProtocol(config);
  ASSERT_NE(coord.adapter, nullptr);

  std::vector<std::unique_ptr<Connection>> coord_ends;
  std::vector<std::unique_ptr<Connection>> site_ends;
  for (size_t s = 0; s < config.num_sites; ++s) {
    auto [site_end, coord_end] = MakeLocalPair();
    site_ends.push_back(std::move(site_end));
    coord_ends.push_back(std::move(coord_end));
  }
  WireCoordinatorReport report;
  RunWireOnThreads(config, workload, &coord, std::move(coord_ends),
                   std::move(site_ends), &report);

  const WireProtocol oracle = RunOracle(config, workload);
  EXPECT_EQ(DiffWireProtocols(config, oracle, coord), "");
  EXPECT_GT(report.frames_received, 0u);
}

TEST_P(WireEquivalenceTest, TcpLoopbackRunMatchesOracleBitForBit) {
  const WireRunConfig config = SmallConfig(GetParam());
  const WireWorkload workload = MakeWireWorkload(config);
  WireProtocol coord = MakeWireProtocol(config);
  ASSERT_NE(coord.adapter, nullptr);

  std::string error;
  auto listener = TcpListener::Listen(0, &error);
  ASSERT_NE(listener, nullptr) << error;

  // Sites connect on threads while the main thread accepts; the handshake
  // inside RunWireCoordinator fixes up any accept-order scramble.
  std::vector<std::unique_ptr<Connection>> site_ends(config.num_sites);
  std::vector<std::thread> dialers;
  for (size_t s = 0; s < config.num_sites; ++s) {
    dialers.emplace_back([&, s] {
      std::string connect_error;
      site_ends[s] =
          TcpConnect("127.0.0.1", listener->port(), &connect_error);
    });
  }
  std::vector<std::unique_ptr<Connection>> coord_ends;
  for (size_t s = 0; s < config.num_sites; ++s) {
    auto conn = listener->Accept(&error);
    ASSERT_NE(conn, nullptr) << error;
    coord_ends.push_back(std::move(conn));
  }
  for (auto& t : dialers) t.join();
  for (const auto& conn : site_ends) ASSERT_NE(conn, nullptr);

  WireCoordinatorReport report;
  RunWireOnThreads(config, workload, &coord, std::move(coord_ends),
                   std::move(site_ends), &report);

  const WireProtocol oracle = RunOracle(config, workload);
  EXPECT_EQ(DiffWireProtocols(config, oracle, coord), "");
}

// (window_index, SnapshotChecksum) of every published snapshot, in order.
using PublishedSnapshots = std::vector<std::pair<uint64_t, uint64_t>>;

void RecordPublishes(serve::ServingCoordinator* serving,
                     PublishedSnapshots* out) {
  serving->set_publish_observer([out](const serve::Snapshot& snap) {
    out->emplace_back(snap.window_index, serve::SnapshotChecksum(snap));
  });
}

// The wire coordinator publishes from on_window, after each window's
// broadcast push, while the sites already run the next window; every
// snapshot must still be the one the in-process run publishes for the
// same window.
TEST_P(WireEquivalenceTest, PublishedSnapshotsMatchOracleAtEveryWindow) {
  const WireRunConfig config = SmallConfig(GetParam());
  const WireWorkload workload = MakeWireWorkload(config);
  const size_t windows = workload.window_ends.size();
  ASSERT_GT(windows, 1u);

  WireProtocol coord = MakeWireProtocol(config);
  ASSERT_NE(coord.adapter, nullptr);
  serve::SnapshotStore wire_store;
  serve::ServingCoordinator wire_serving(&wire_store);
  if (coord.hh != nullptr) {
    wire_serving.AttachHHProtocol(coord.hh.get());
  } else {
    wire_serving.AttachMatrixProtocol(coord.mp.get());
  }
  PublishedSnapshots wire;
  RecordPublishes(&wire_serving, &wire);
  std::vector<std::unique_ptr<Connection>> coord_ends;
  std::vector<std::unique_ptr<Connection>> site_ends;
  for (size_t s = 0; s < config.num_sites; ++s) {
    auto [site_end, coord_end] = MakeLocalPair();
    site_ends.push_back(std::move(site_end));
    coord_ends.push_back(std::move(coord_end));
  }
  WireCoordinatorReport report;
  RunWireOnThreads(config, workload, &coord, std::move(coord_ends),
                   std::move(site_ends), &report, [&](size_t w) {
                     wire_serving.PublishWindow(w, workload.window_ends[w - 1]);
                   });

  // The same workload through the single-lane in-process driver.
  WireProtocol local = MakeWireProtocol(config);
  stream::SimulationOptions opt;
  opt.threads = 1;
  opt.chunk_elements = config.chunk;
  stream::SimulationDriver driver(opt);
  serve::SnapshotStore store;
  serve::ServingCoordinator serving(&store);
  PublishedSnapshots in_process;
  if (local.hh != nullptr) {
    serving.AttachHH(&driver, local.hh.get());
    RecordPublishes(&serving, &in_process);
    driver.Run(local.hh.get(), workload.sites, workload.items);
  } else {
    serving.AttachMatrix(&driver, local.mp.get());
    RecordPublishes(&serving, &in_process);
    driver.Run(local.mp.get(), workload.sites, workload.rows);
  }

  ASSERT_EQ(wire.size(), windows);
  for (size_t i = 0; i < windows; ++i) {
    EXPECT_EQ(wire[i].first, i + 1) << "publish " << i;
  }
  EXPECT_EQ(wire, in_process);
}

INSTANTIATE_TEST_SUITE_P(Protocols, WireEquivalenceTest,
                         ::testing::Values("p1", "mp2"),
                         [](const auto& info) { return info.param; });

// A site whose stream never routes it an arrival still participates in
// every window (empty flush, broadcast sync) — the schedule is global.
TEST(WireEquivalenceTest2, SiteWindowIndicesCoverEveryWindow) {
  const WireRunConfig config = SmallConfig("p1");
  const WireWorkload workload = MakeWireWorkload(config);
  size_t total = 0;
  for (size_t s = 0; s < config.num_sites; ++s) {
    const auto windows =
        SiteWindowIndices(workload.sites, s, workload.window_ends);
    ASSERT_EQ(windows.size(), workload.window_ends.size());
    for (const auto& w : windows) total += w.size();
  }
  EXPECT_EQ(total, config.n);  // every arrival lands in exactly one slot
}

// ---------------------------------------------------------------------------
// Values no honest peer sends.

std::vector<uint8_t> ScalarPayload(double value) {
  std::vector<uint8_t> p;
  EncodeMatrixScalar(MatrixScalarMsg{value}, &p);
  return p;
}

std::vector<uint8_t> DirectionPayload(double lambda, std::vector<double> dir) {
  std::vector<uint8_t> p;
  EncodeMatrixDirection(MatrixDirectionMsg{lambda, std::move(dir)}, &p);
  return p;
}

TEST(MP2WireTest, NonFiniteOrNonPositiveFramesLeaveTheCoordinatorUnchanged) {
  matrix::MP2SvdThreshold protocol(2, 0.1);
  MP2Wire wire(&protocol, 2);
  std::string error;
  // Honest traffic first, so there is state to protect.
  const std::vector<uint8_t> scalar = ScalarPayload(3.0);
  ASSERT_TRUE(wire.ApplyFrame(0, MsgType::kMatrixScalar, scalar.data(),
                              scalar.size(), &error))
      << error;
  const std::vector<uint8_t> direction = DirectionPayload(2.0, {0.6, 0.8, 0});
  ASSERT_TRUE(wire.ApplyFrame(1, MsgType::kMatrixDirection, direction.data(),
                              direction.size(), &error))
      << error;
  const linalg::Matrix gram = protocol.CoordinatorGram();
  const double fest = protocol.coordinator_frobenius();
  const stream::CommStats stats = protocol.comm_stats();
  ASSERT_EQ(gram.rows(), 3u);
  ASSERT_GT(fest, 0.0);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Bad {
    const char* name;
    MsgType type;
    std::vector<uint8_t> payload;
  };
  const std::vector<Bad> bad = {
      {"NaN lambda", MsgType::kMatrixDirection,
       DirectionPayload(nan, {0.6, 0.8, 0})},
      {"negative lambda, Inf entry", MsgType::kMatrixDirection,
       DirectionPayload(-5.0, {inf, 0, 0})},
      {"zero lambda", MsgType::kMatrixDirection,
       DirectionPayload(0.0, {0.6, 0.8, 0})},
      {"Inf lambda", MsgType::kMatrixDirection,
       DirectionPayload(inf, {0.6, 0.8, 0})},
      {"Inf entry", MsgType::kMatrixDirection,
       DirectionPayload(2.0, {0.6, -inf, 0})},
      {"NaN entry", MsgType::kMatrixDirection,
       DirectionPayload(2.0, {0.6, 0.8, nan})},
      {"NaN scalar", MsgType::kMatrixScalar, ScalarPayload(nan)},
      {"Inf scalar", MsgType::kMatrixScalar, ScalarPayload(inf)},
      {"negative scalar", MsgType::kMatrixScalar, ScalarPayload(-1.0)},
      {"zero scalar", MsgType::kMatrixScalar, ScalarPayload(0.0)},
  };
  for (const Bad& frame : bad) {
    SCOPED_TRACE(frame.name);
    error.clear();
    EXPECT_FALSE(wire.ApplyFrame(0, frame.type, frame.payload.data(),
                                 frame.payload.size(), &error));
    EXPECT_FALSE(error.empty());
    const linalg::Matrix now = protocol.CoordinatorGram();
    ASSERT_EQ(now.rows(), gram.rows());
    EXPECT_EQ(std::memcmp(now.Row(0), gram.Row(0),
                          gram.rows() * gram.cols() * sizeof(double)),
              0);
    const double now_fest = protocol.coordinator_frobenius();
    EXPECT_EQ(std::memcmp(&now_fest, &fest, sizeof(double)), 0);
    EXPECT_EQ(protocol.comm_stats().scalar_up, stats.scalar_up);
    EXPECT_EQ(protocol.comm_stats().vector_up, stats.vector_up);
  }
}

// Forwards to a real adapter but pushes a fixed value as every window's
// broadcast — a coordinator that lies to its sites.
class FixedBroadcastAdapter : public WireAdapter {
 public:
  FixedBroadcastAdapter(WireAdapter* inner, double value)
      : inner_(inner), value_(value) {}

  std::string protocol_name() const override {
    return inner_->protocol_name();
  }
  size_t num_sites() const override { return inner_->num_sites(); }
  void EncodeWindow(size_t site, FrameBatch* batch) override {
    inner_->EncodeWindow(site, batch);
  }
  void ApplyBroadcast(size_t site, double value) override {
    inner_->ApplyBroadcast(site, value);
  }
  bool ApplyFrame(size_t site, MsgType type, const uint8_t* payload,
                  size_t n, std::string* error) override {
    return inner_->ApplyFrame(site, type, payload, n, error);
  }
  double BroadcastValue() const override { return value_; }

 private:
  WireAdapter* inner_;
  double value_;
};

// Runs one MP2 site against a coordinator that broadcasts `value` every
// window, over a local pair; returns whether the site finished and its
// error.
bool RunSiteAgainstBroadcast(double value, std::string* site_error) {
  WireRunConfig config = SmallConfig("mp2");
  config.num_sites = 1;
  const WireWorkload workload = MakeWireWorkload(config);
  WireProtocol coord = MakeWireProtocol(config);
  WireProtocol site = MakeWireProtocol(config);
  FixedBroadcastAdapter lying(coord.adapter.get(), value);
  auto channel = MakeLocalPair();
  std::unique_ptr<Connection> site_end = std::move(channel.first);
  std::vector<std::unique_ptr<Connection>> coord_ends;
  coord_ends.push_back(std::move(channel.second));

  bool site_ok = false;
  std::thread site_thread([&] {
    site_ok = RunWireSite(
        site.adapter.get(), 0,
        SiteWindowIndices(workload.sites, 0, workload.window_ends),
        MakeSiteUpdater(workload, &site, 0), site_end.get(), site_error);
    // A failed site hangs up, as its process would by exiting; that
    // unblocks the coordinator's drain.
    if (!site_ok) site_end->Close();
  });
  WireCoordinatorReport report;
  std::string coord_error;
  const bool coord_ok =
      RunWireCoordinator(&lying, &coord_ends, workload.window_ends.size(),
                         &report, &coord_error);
  site_thread.join();
  EXPECT_EQ(coord_ok, site_ok) << coord_error;
  return site_ok;
}

TEST(WireSiteTest, NonFiniteOrNegativeBroadcastFailsTheSite) {
  const double values[] = {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -1.0};
  for (double value : values) {
    SCOPED_TRACE(value);
    std::string error;
    EXPECT_FALSE(RunSiteAgainstBroadcast(value, &error));
    EXPECT_NE(error.find("broadcast value"), std::string::npos) << error;
  }
  // 0 is what every site holds before the first broadcast: legal.
  std::string error;
  EXPECT_TRUE(RunSiteAgainstBroadcast(0.0, &error)) << error;
}

}  // namespace
}  // namespace net
}  // namespace dmt
