// Determinism suite for the parallel simulation engine.
//
// The contract under test: for a fixed protocol seed, router assignment
// and chunk size, SimulationDriver runs with 1, 2 and 8 threads produce
// final sketches, CommStats and per-site message counts *bit-identical* to
// the serial execution of the same schedule — for every protocol (P1-P4,
// MP1-MP3 and both P3/MP3 variants), across uniform, round-robin and
// skewed routers. The serial reference is the driver at threads=1, which
// takes the plain single-threaded code path (no pool involved).
#include "stream/simulation_driver.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic_matrix.h"
#include "data/zipf.h"
#include "hh/exact_tracker.h"
#include "hh/p1_batched_mg.h"
#include "hh/p2_threshold.h"
#include "hh/p3_sampling.h"
#include "hh/p4_randomized.h"
#include "linalg/matrix.h"
#include "matrix/mp1_batched_fd.h"
#include "matrix/mp2_svd_threshold.h"
#include "matrix/mp3_sampling.h"
#include "matrix/mp4_experimental.h"

namespace dmt {
namespace stream {
namespace {

constexpr uint64_t kSeed = 2024;
constexpr size_t kSites = 8;
constexpr size_t kChunk = 256;  // several sync rounds over the test streams

const std::vector<RoutingPolicy> kPolicies = {
    RoutingPolicy::kUniform, RoutingPolicy::kRoundRobin,
    RoutingPolicy::kSkewed};

std::string PolicyName(RoutingPolicy p) {
  switch (p) {
    case RoutingPolicy::kUniform: return "uniform";
    case RoutingPolicy::kRoundRobin: return "round-robin";
    default: return "skewed";
  }
}

// ---------------------------------------------------------------------
// Heavy hitters.
// ---------------------------------------------------------------------

struct HhRunResult {
  CommStats stats;
  std::vector<uint64_t> per_site;
  double total_weight = 0.0;
  // (element, estimate) for every tracked element, sorted by element.
  std::vector<std::pair<uint64_t, double>> estimates;
};

HhRunResult FingerprintHh(const hh::HeavyHitterProtocol& p) {
  HhRunResult r;
  r.stats = p.comm_stats();
  r.per_site = p.per_site_messages();
  r.total_weight = p.EstimateTotalWeight();
  std::vector<uint64_t> tracked = p.TrackedElements();
  std::sort(tracked.begin(), tracked.end());
  for (uint64_t e : tracked) {
    r.estimates.emplace_back(e, p.EstimateElementWeight(e));
  }
  return r;
}

void ExpectSameStats(const CommStats& a, const CommStats& b) {
  EXPECT_EQ(a.scalar_up, b.scalar_up);
  EXPECT_EQ(a.element_up, b.element_up);
  EXPECT_EQ(a.vector_up, b.vector_up);
  EXPECT_EQ(a.broadcast_events, b.broadcast_events);
  EXPECT_EQ(a.broadcast_msgs, b.broadcast_msgs);
  EXPECT_EQ(a.rounds, b.rounds);
}

void ExpectIdentical(const HhRunResult& serial, const HhRunResult& parallel) {
  ExpectSameStats(serial.stats, parallel.stats);
  EXPECT_EQ(serial.per_site, parallel.per_site);
  // Bit-identical: exact double equality, deliberately no tolerance.
  EXPECT_EQ(serial.total_weight, parallel.total_weight);
  ASSERT_EQ(serial.estimates.size(), parallel.estimates.size());
  for (size_t i = 0; i < serial.estimates.size(); ++i) {
    EXPECT_EQ(serial.estimates[i].first, parallel.estimates[i].first);
    EXPECT_EQ(serial.estimates[i].second, parallel.estimates[i].second);
  }
}

using HhFactory =
    std::unique_ptr<hh::HeavyHitterProtocol> (*)(size_t m, uint64_t seed);

struct HhProtocolCase {
  const char* name;
  HhFactory make;
};

const HhProtocolCase kHhCases[] = {
    {"P1", [](size_t m, uint64_t) -> std::unique_ptr<hh::HeavyHitterProtocol> {
       return std::make_unique<hh::P1BatchedMG>(m, 0.15);
     }},
    {"P2", [](size_t m, uint64_t) -> std::unique_ptr<hh::HeavyHitterProtocol> {
       return std::make_unique<hh::P2Threshold>(m, 0.15);
     }},
    {"P2-bounded",
     [](size_t m, uint64_t) -> std::unique_ptr<hh::HeavyHitterProtocol> {
       hh::P2Options opt;
       opt.site_counters = 32;
       return std::make_unique<hh::P2Threshold>(m, 0.15, opt);
     }},
    {"P3wor",
     [](size_t m, uint64_t s) -> std::unique_ptr<hh::HeavyHitterProtocol> {
       return std::make_unique<hh::P3SamplingWoR>(m, 0.2, s,
                                                  /*sample_size=*/64);
     }},
    {"P3wr",
     [](size_t m, uint64_t s) -> std::unique_ptr<hh::HeavyHitterProtocol> {
       return std::make_unique<hh::P3SamplingWR>(m, 0.2, s,
                                                 /*sample_size=*/48);
     }},
    {"P4", [](size_t m, uint64_t s) -> std::unique_ptr<hh::HeavyHitterProtocol> {
       return std::make_unique<hh::P4Randomized>(m, 0.2, s, /*copies=*/2);
     }},
    {"Exact",
     [](size_t m, uint64_t) -> std::unique_ptr<hh::HeavyHitterProtocol> {
       return std::make_unique<hh::ExactTracker>(m);
     }},
};

std::vector<WeightedUpdate> MakeHhStream(size_t n) {
  data::ZipfianStream z(2000, 1.5, 100.0, kSeed);
  std::vector<WeightedUpdate> items(n);
  for (auto& it : items) {
    data::WeightedItem w = z.Next();
    it = WeightedUpdate{w.element, w.weight};
  }
  return items;
}

HhRunResult RunHh(const HhProtocolCase& c, const std::vector<size_t>& sites,
                  const std::vector<WeightedUpdate>& items, size_t threads) {
  auto protocol = c.make(kSites, kSeed + 7);
  SimulationOptions opt;
  opt.threads = threads;
  opt.chunk_elements = kChunk;
  SimulationDriver driver(opt);
  driver.Run(protocol.get(), sites, items);
  return FingerprintHh(*protocol);
}

TEST(SimulationDriverHhTest, ParallelRunsBitIdenticalToSerial) {
  const size_t kN = 4000;
  const std::vector<WeightedUpdate> items = MakeHhStream(kN);
  for (RoutingPolicy policy : kPolicies) {
    Router router(kSites, policy, kSeed + 1);
    const std::vector<size_t> sites = AssignSites(&router, kN);
    for (const HhProtocolCase& c : kHhCases) {
      SCOPED_TRACE(std::string(c.name) + " / " + PolicyName(policy));
      const HhRunResult serial = RunHh(c, sites, items, /*threads=*/1);
      // A protocol that never talks to the coordinator would pass this
      // suite trivially; require actual traffic.
      EXPECT_GT(serial.stats.total(), 0u);
      for (size_t threads : {2u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ExpectIdentical(serial, RunHh(c, sites, items, threads));
      }
    }
  }
}

// With chunk size 1 the driver drains after every arrival, which for the
// protocols whose Process() is the base SiteUpdate() + DrainSite()
// degenerates to exactly the legacy element-by-element serial path.
TEST(SimulationDriverHhTest, ChunkOfOneMatchesLegacySerialProcess) {
  const size_t kN = 1500;
  const std::vector<WeightedUpdate> items = MakeHhStream(kN);
  Router router(kSites, RoutingPolicy::kUniform, kSeed + 2);
  const std::vector<size_t> sites = AssignSites(&router, kN);

  // P4 is excluded: its serial path applies the weight report before
  // computing the send probability (the historical semantics), which a
  // deferred schedule intentionally does not reproduce.
  for (const char* name : {"P1", "P2", "P2-bounded", "P3wor", "P3wr",
                           "Exact"}) {
    const auto it = std::find_if(
        std::begin(kHhCases), std::end(kHhCases),
        [name](const HhProtocolCase& c) {
          return std::string(c.name) == name;
        });
    ASSERT_NE(it, std::end(kHhCases));
    SCOPED_TRACE(name);

    auto legacy = it->make(kSites, kSeed + 7);
    for (size_t i = 0; i < kN; ++i) {
      legacy->Process(sites[i], items[i].element, items[i].weight);
    }

    auto driven = it->make(kSites, kSeed + 7);
    SimulationOptions opt;
    opt.threads = 1;
    opt.chunk_elements = 1;
    SimulationDriver driver(opt);
    driver.Run(driven.get(), sites, items);

    ExpectIdentical(FingerprintHh(*legacy), FingerprintHh(*driven));
  }
}

// ---------------------------------------------------------------------
// Matrix protocols.
// ---------------------------------------------------------------------

struct MatrixRunResult {
  CommStats stats;
  std::vector<uint64_t> per_site;
  linalg::Matrix sketch;
};

MatrixRunResult FingerprintMatrix(const matrix::MatrixTrackingProtocol& p) {
  MatrixRunResult r;
  r.stats = p.comm_stats();
  r.per_site = p.per_site_messages();
  r.sketch = p.CoordinatorSketch();
  return r;
}

void ExpectIdentical(const MatrixRunResult& serial,
                     const MatrixRunResult& parallel) {
  ExpectSameStats(serial.stats, parallel.stats);
  EXPECT_EQ(serial.per_site, parallel.per_site);
  ASSERT_EQ(serial.sketch.rows(), parallel.sketch.rows());
  ASSERT_EQ(serial.sketch.cols(), parallel.sketch.cols());
  for (size_t i = 0; i < serial.sketch.rows(); ++i) {
    for (size_t j = 0; j < serial.sketch.cols(); ++j) {
      EXPECT_EQ(serial.sketch(i, j), parallel.sketch(i, j))
          << "sketch mismatch at (" << i << ", " << j << ")";
    }
  }
}

using MatrixFactory = std::unique_ptr<matrix::MatrixTrackingProtocol> (*)(
    size_t m, uint64_t seed);

struct MatrixProtocolCase {
  const char* name;
  MatrixFactory make;
};

const MatrixProtocolCase kMatrixCases[] = {
    {"MP1",
     [](size_t m, uint64_t) -> std::unique_ptr<matrix::MatrixTrackingProtocol> {
       return std::make_unique<matrix::MP1BatchedFD>(m, 0.25);
     }},
    {"MP2",
     [](size_t m, uint64_t) -> std::unique_ptr<matrix::MatrixTrackingProtocol> {
       return std::make_unique<matrix::MP2SvdThreshold>(m, 0.25);
     }},
    {"MP3wor",
     [](size_t m,
        uint64_t s) -> std::unique_ptr<matrix::MatrixTrackingProtocol> {
       return std::make_unique<matrix::MP3SamplingWoR>(m, 0.25, s,
                                                       /*sample_size=*/48);
     }},
    {"MP3wr",
     [](size_t m,
        uint64_t s) -> std::unique_ptr<matrix::MatrixTrackingProtocol> {
       return std::make_unique<matrix::MP3SamplingWR>(m, 0.25, s,
                                                      /*sample_size=*/32);
     }},
};

std::vector<std::vector<double>> MakeRowStream(size_t n) {
  data::SyntheticMatrixConfig cfg;
  cfg.dim = 16;
  cfg.latent_rank = 5;
  cfg.seed = kSeed + 3;
  data::SyntheticMatrixGenerator gen(cfg);
  std::vector<std::vector<double>> rows(n);
  for (auto& r : rows) r = gen.Next();
  return rows;
}

MatrixRunResult RunMatrix(const MatrixProtocolCase& c,
                          const std::vector<size_t>& sites,
                          const std::vector<std::vector<double>>& rows,
                          size_t threads) {
  auto protocol = c.make(kSites, kSeed + 11);
  SimulationOptions opt;
  opt.threads = threads;
  opt.chunk_elements = kChunk;
  SimulationDriver driver(opt);
  driver.Run(protocol.get(), sites, rows);
  return FingerprintMatrix(*protocol);
}

TEST(SimulationDriverMatrixTest, ParallelRunsBitIdenticalToSerial) {
  const size_t kN = 1600;
  const std::vector<std::vector<double>> rows = MakeRowStream(kN);
  for (RoutingPolicy policy : kPolicies) {
    Router router(kSites, policy, kSeed + 4);
    const std::vector<size_t> sites = AssignSites(&router, kN);
    for (const MatrixProtocolCase& c : kMatrixCases) {
      SCOPED_TRACE(std::string(c.name) + " / " + PolicyName(policy));
      const MatrixRunResult serial = RunMatrix(c, sites, rows, /*threads=*/1);
      EXPECT_GT(serial.stats.total(), 0u);
      for (size_t threads : {2u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ExpectIdentical(serial, RunMatrix(c, sites, rows, threads));
      }
    }
  }
}

// With chunk size 1, ProcessRow per row (the base SiteUpdate() +
// DrainSite() for MP1 and both MP3 variants) must replay the driver's
// schedule on one lane exactly: same messages, per-site counts and sketch
// bits. MP2 is excluded: its ProcessRow delivers the scalar report before
// the direction check, the paper's immediate-delivery schedule.
TEST(SimulationDriverMatrixTest, ChunkOfOneMatchesLegacySerialProcessRow) {
  const size_t kN = 600;
  const std::vector<std::vector<double>> rows = MakeRowStream(kN);
  Router router(kSites, RoutingPolicy::kUniform, kSeed + 9);
  const std::vector<size_t> sites = AssignSites(&router, kN);

  for (const char* name : {"MP1", "MP3wor", "MP3wr"}) {
    const auto it = std::find_if(
        std::begin(kMatrixCases), std::end(kMatrixCases),
        [name](const MatrixProtocolCase& c) {
          return std::string(c.name) == name;
        });
    ASSERT_NE(it, std::end(kMatrixCases));
    SCOPED_TRACE(name);

    auto legacy = it->make(kSites, kSeed + 11);
    for (size_t i = 0; i < kN; ++i) legacy->ProcessRow(sites[i], rows[i]);

    auto driven = it->make(kSites, kSeed + 11);
    SimulationOptions opt;
    opt.threads = 1;
    opt.chunk_elements = 1;
    SimulationDriver driver(opt);
    driver.Run(driven.get(), sites, rows);

    const MatrixRunResult want = FingerprintMatrix(*legacy);
    EXPECT_GT(want.stats.total(), 0u);
    ExpectIdentical(want, FingerprintMatrix(*driven));
  }
}

// MP4 does not support concurrent site updates; the driver must fall back
// to the serial schedule regardless of the requested thread count and stay
// deterministic.
TEST(SimulationDriverMatrixTest, UnsupportedProtocolFallsBackSerially) {
  const size_t kN = 600;
  const std::vector<std::vector<double>> rows = MakeRowStream(kN);
  Router router(kSites, RoutingPolicy::kUniform, kSeed + 5);
  const std::vector<size_t> sites = AssignSites(&router, kN);

  auto run = [&](size_t threads) {
    auto p = std::make_unique<matrix::MP4Experimental>(kSites, 0.3,
                                                       kSeed + 13);
    EXPECT_FALSE(p->SupportsConcurrentSiteUpdates());
    SimulationOptions opt;
    opt.threads = threads;
    opt.chunk_elements = kChunk;
    SimulationDriver driver(opt);
    driver.Run(p.get(), sites, rows);
    return FingerprintMatrix(*p);
  };

  const MatrixRunResult serial = run(1);
  ExpectIdentical(serial, run(8));
}

// ---------------------------------------------------------------------
// Hand-replayed drain order.
// ---------------------------------------------------------------------
//
// The suites above compare the driver with its own threads = 1 run, so a
// drain order that is wrong the same way at every lane count passes them.
// These replay the schedule by hand instead: every arrival's SiteUpdate
// in stream order, then, at each WindowEnds boundary, the sites with a
// non-empty outbox drained in ascending order — one SynchronizeSites call
// per site, or one call on the whole list where that call is the
// protocol's window batch (MP1).

template <typename Protocol, typename Apply>
void ReplayWindows(Protocol* p, const std::vector<size_t>& sites,
                   bool one_call_per_window, const Apply& apply) {
  size_t num_sites = 0;
  for (size_t s : sites) num_sites = std::max(num_sites, s + 1);
  std::vector<uint32_t> pending;
  size_t begin = 0;
  for (const size_t end : WindowEnds(sites.size(), kChunk, num_sites)) {
    for (size_t i = begin; i < end; ++i) apply(i);
    pending.clear();
    for (uint32_t s = 0; s < num_sites; ++s) {
      if (p->PendingOutboxSize(s) > 0) pending.push_back(s);
    }
    if (one_call_per_window) {
      p->SynchronizeSites(pending.data(), pending.size());
    } else {
      for (const uint32_t s : pending) p->SynchronizeSites(&s, 1);
    }
    begin = end;
  }
}

const RoutingPolicy kOraclePolicies[] = {RoutingPolicy::kUniform,
                                         RoutingPolicy::kSkewed};

TEST(SimulationDriverOracleTest, P2MatchesHandReplayedDrainOrder) {
  const size_t kN = 20000;
  const std::vector<WeightedUpdate> items = MakeHhStream(kN);
  const HhProtocolCase& p2 = kHhCases[1];
  ASSERT_EQ(std::string(p2.name), "P2");
  for (RoutingPolicy policy : kOraclePolicies) {
    SCOPED_TRACE(PolicyName(policy));
    Router router(kSites, policy, kSeed + 21);
    const std::vector<size_t> sites = AssignSites(&router, kN);
    auto replayed = p2.make(kSites, kSeed + 7);
    ReplayWindows(replayed.get(), sites, /*one_call_per_window=*/false,
                  [&](size_t i) {
                    replayed->SiteUpdate(sites[i], items[i].element,
                                         items[i].weight);
                  });
    const HhRunResult want = FingerprintHh(*replayed);
    EXPECT_GT(want.stats.total(), 0u);
    for (size_t threads : {1u, 2u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ExpectIdentical(want, RunHh(p2, sites, items, threads));
    }
  }
}

TEST(SimulationDriverOracleTest, MatrixMatchesHandReplayedDrainOrder) {
  const size_t kN = 1600;
  const std::vector<std::vector<double>> rows = MakeRowStream(kN);
  // MP1 drains a window as one batch; MP3wor drains site by site.
  for (const char* name : {"MP1", "MP3wor"}) {
    const auto it = std::find_if(
        std::begin(kMatrixCases), std::end(kMatrixCases),
        [name](const MatrixProtocolCase& c) {
          return std::string(c.name) == name;
        });
    ASSERT_NE(it, std::end(kMatrixCases));
    const bool one_call = std::string(name) == "MP1";
    for (RoutingPolicy policy : kOraclePolicies) {
      SCOPED_TRACE(std::string(name) + " / " + PolicyName(policy));
      Router router(kSites, policy, kSeed + 22);
      const std::vector<size_t> sites = AssignSites(&router, kN);
      auto replayed = it->make(kSites, kSeed + 11);
      ReplayWindows(replayed.get(), sites, one_call, [&](size_t i) {
        replayed->SiteUpdate(sites[i], rows[i]);
      });
      const MatrixRunResult want = FingerprintMatrix(*replayed);
      EXPECT_GT(want.stats.total(), 0u);
      for (size_t threads : {1u, 2u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ExpectIdentical(want, RunMatrix(*it, sites, rows, threads));
      }
    }
  }
}

// ---------------------------------------------------------------------
// Driver plumbing.
// ---------------------------------------------------------------------

TEST(SimulationDriverTest, EmptyStreamIsANoOp) {
  hh::P2Threshold p(kSites, 0.1);
  SimulationDriver driver(SimulationOptions{4, 128});
  driver.Run(&p, {}, std::vector<WeightedUpdate>{});
  EXPECT_EQ(p.comm_stats().total(), 0u);
}

TEST(SimulationDriverTest, ExactTrackerTotalsMatchStream) {
  const size_t kN = 3000;
  const std::vector<WeightedUpdate> items = MakeHhStream(kN);
  double want_total = 0.0;
  for (const auto& it : items) want_total += it.weight;

  Router router(kSites, RoutingPolicy::kUniform, kSeed + 6);
  const std::vector<size_t> sites = AssignSites(&router, kN);
  hh::ExactTracker exact(kSites);
  SimulationDriver driver(SimulationOptions{8, kChunk});
  driver.Run(&exact, sites, items);

  // Exact tracker forwards every arrival: per-site counts must equal the
  // router histogram and the estimate must be the exact stream total.
  EXPECT_DOUBLE_EQ(exact.EstimateTotalWeight(), want_total);
  std::vector<uint64_t> histogram(kSites, 0);
  for (size_t s : sites) ++histogram[s];
  EXPECT_EQ(exact.per_site_messages(), histogram);
  EXPECT_EQ(exact.comm_stats().element_up, kN);
}

TEST(SimulationDriverTest, ResolveThreadCountPrefersExplicitValue) {
  EXPECT_EQ(ResolveThreadCount(3), 3u);
  EXPECT_GE(ResolveThreadCount(0), 1u);  // env or hardware, both >= 1
}

// A protocol whose SiteUpdate throws mid-chunk: the driver must await the
// whole chunk's tasks, then surface the exception — not crash or hang.
class ThrowingProtocol : public hh::HeavyHitterProtocol {
 public:
  void SiteUpdate(size_t, uint64_t element, double) override {
    if (element == 42) throw std::runtime_error("poisoned element");
  }
  double EstimateElementWeight(uint64_t) const override { return 0.0; }
  double EstimateTotalWeight() const override { return 0.0; }
  const stream::CommStats& comm_stats() const override { return stats_; }
  std::vector<uint64_t> per_site_messages() const override { return {}; }
  std::string name() const override { return "Throwing"; }
  std::vector<uint64_t> TrackedElements() const override { return {}; }

 private:
  stream::CommStats stats_;
};

TEST(SimulationDriverTest, SiteExceptionPropagatesAfterChunkBarrier) {
  const size_t kN = 2000;
  std::vector<WeightedUpdate> items(kN, WeightedUpdate{7, 1.0});
  items[kN / 2].element = 42;  // one poisoned arrival mid-stream
  Router router(kSites, RoutingPolicy::kUniform, kSeed + 8);
  const std::vector<size_t> sites = AssignSites(&router, kN);

  ThrowingProtocol protocol;
  SimulationDriver driver(SimulationOptions{8, 128});
  EXPECT_THROW(driver.Run(&protocol, sites, items), std::runtime_error);
}

}  // namespace
}  // namespace stream
}  // namespace dmt
