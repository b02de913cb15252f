// Large-m determinism, drain-order and site-affinity tests for the
// home-range scheduler (stream/site_schedule.h +
// SimulationDriver::ExecuteWindow).
//
// The fine-grained contracts: (1) at m = 10^5 sites — the regime the
// scheduler was built for — results stay bit-identical across 1/2/8
// threads and across router policies; (2) the coordinator's targeted
// drain (SynchronizeSites over the concatenated lane pending-buffers)
// visits sites in strictly ascending order, exactly the sites with queued
// messages, no matter how the lanes carved up the window; (3) every site
// runs on one thread for the whole run — its lane's — and lane 0 is the
// thread that called Run.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/synthetic_matrix.h"
#include "data/zipf.h"
#include "hh/p2_threshold.h"
#include "matrix/mp1_batched_fd.h"
#include "stream/router.h"
#include "stream/simulation_driver.h"

namespace dmt {
namespace stream {
namespace {

constexpr uint64_t kSeed = 77;

std::vector<WeightedUpdate> MakeItems(size_t n, uint64_t seed) {
  data::ZipfianStream z(50000, 1.3, 50.0, seed);
  std::vector<WeightedUpdate> items(n);
  for (auto& it : items) {
    data::WeightedItem w = z.Next();
    it = WeightedUpdate{w.element, w.weight};
  }
  return items;
}

struct HhFingerprint {
  CommStats stats;
  std::vector<uint64_t> per_site;
  double total = 0.0;
  std::vector<std::pair<uint64_t, double>> estimates;
};

HhFingerprint FingerprintOf(const hh::HeavyHitterProtocol& p) {
  HhFingerprint r;
  r.stats = p.comm_stats();
  r.per_site = p.per_site_messages();
  r.total = p.EstimateTotalWeight();
  std::vector<uint64_t> tracked = p.TrackedElements();
  std::sort(tracked.begin(), tracked.end());
  for (uint64_t e : tracked) {
    r.estimates.emplace_back(e, p.EstimateElementWeight(e));
  }
  return r;
}

void ExpectIdentical(const HhFingerprint& a, const HhFingerprint& b) {
  EXPECT_EQ(a.stats.scalar_up, b.stats.scalar_up);
  EXPECT_EQ(a.stats.element_up, b.stats.element_up);
  EXPECT_EQ(a.stats.broadcast_msgs, b.stats.broadcast_msgs);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.per_site, b.per_site);
  // Bit-identical: exact double equality, deliberately no tolerance.
  EXPECT_EQ(a.total, b.total);
  ASSERT_EQ(a.estimates.size(), b.estimates.size());
  for (size_t i = 0; i < a.estimates.size(); ++i) {
    EXPECT_EQ(a.estimates[i].first, b.estimates[i].first);
    EXPECT_EQ(a.estimates[i].second, b.estimates[i].second);
  }
}

// m = 10^5 sites, ~2 arrivals per site: windows where nearly every active
// site has exactly one arrival, many sites never activate, and each
// lane's slice of the active list holds thousands of sites per window.
TEST(ParallelScaleTest, LargeMHeavyHitterBitIdenticalAcrossThreads) {
  const size_t kM = 100000;
  const size_t kN = 200000;
  const std::vector<WeightedUpdate> items = MakeItems(kN, kSeed);

  for (RoutingPolicy policy :
       {RoutingPolicy::kUniform, RoutingPolicy::kSkewed}) {
    Router router(kM, policy, kSeed + 1);
    const std::vector<size_t> sites = AssignSites(&router, kN);

    HhFingerprint serial;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      hh::P2Threshold protocol(kM, 0.05);
      SimulationOptions opt;
      opt.threads = threads;
      opt.chunk_elements = 8192;
      SimulationDriver driver(opt);
      driver.Run(&protocol, sites, items);

      EXPECT_GT(driver.scheduler_stats().windows, 1u);

      if (threads == 1) {
        serial = FingerprintOf(protocol);
      } else {
        ExpectIdentical(serial, FingerprintOf(protocol));
      }
    }
  }
}

// Matrix path at m = 10^4 (per-site FD sketches make 10^5 sites
// memory-prohibitive; the scheduler code path is identical).
TEST(ParallelScaleTest, LargeMMatrixBitIdenticalAcrossThreads) {
  const size_t kM = 10000;
  const size_t kN = 20000;
  const size_t kDim = 8;
  data::ZipfianStream z(1000, 1.2, 10.0, kSeed + 2);
  std::vector<std::vector<double>> rows(kN);
  for (auto& r : rows) {
    r.assign(kDim, 0.0);
    for (size_t j = 0; j < kDim; ++j) r[j] = 0.1 * (1.0 + z.Next().weight);
  }

  for (RoutingPolicy policy :
       {RoutingPolicy::kUniform, RoutingPolicy::kSkewed}) {
    Router router(kM, policy, kSeed + 3);
    const std::vector<size_t> sites = AssignSites(&router, kN);

    double serial_frob = 0.0;
    uint64_t serial_msgs = 0;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      matrix::MP1BatchedFD protocol(kM, 0.5);
      SimulationOptions opt;
      opt.threads = threads;
      opt.chunk_elements = 4096;
      SimulationDriver driver(opt);
      driver.Run(&protocol, sites, rows);

      if (threads == 1) {
        serial_frob = protocol.coordinator_frobenius();
        serial_msgs = protocol.comm_stats().total();
      } else {
        EXPECT_EQ(protocol.coordinator_frobenius(), serial_frob);
        EXPECT_EQ(protocol.comm_stats().total(), serial_msgs);
      }
    }
  }
}

// Records every coordinator drain the driver issues, through the base
// SynchronizeSites: one list per call, one entry per DrainSite. Each
// SiteUpdate queues one message, so the pending set of a window is
// exactly its active-site set.
class DrainRecorder : public hh::HeavyHitterProtocol {
 public:
  explicit DrainRecorder(size_t num_sites)
      : outbox_(num_sites), stats_{} {}

  void SiteUpdate(size_t site, uint64_t, double) override {
    ++outbox_[site];
  }
  void SynchronizeSites(const uint32_t* sites, size_t count) override {
    drains_.emplace_back();
    HeavyHitterProtocol::SynchronizeSites(sites, count);
  }
  size_t PendingOutboxSize(size_t site) const override {
    return outbox_[site];
  }

  double EstimateElementWeight(uint64_t) const override { return 0.0; }
  double EstimateTotalWeight() const override { return 0.0; }
  const CommStats& comm_stats() const override { return stats_; }
  std::vector<uint64_t> per_site_messages() const override { return {}; }
  std::string name() const override { return "recorder"; }
  std::vector<uint64_t> TrackedElements() const override { return {}; }

  const std::vector<std::vector<uint32_t>>& drains() const {
    return drains_;
  }

 private:
  void DrainSite(size_t site) override {
    drains_.back().push_back(static_cast<uint32_t>(site));
    outbox_[site] = 0;
  }

  std::vector<uint32_t> outbox_;  // queued message count per site
  std::vector<std::vector<uint32_t>> drains_;
  CommStats stats_;
};

// The pinned order contract: every window's drain visits exactly the
// sites with queued messages, each once, strictly ascending.
TEST(ParallelScaleTest, TargetedDrainVisitsPendingSitesAscending) {
  const size_t kM = 997;  // prime: batches never align with site strides
  const size_t kN = 20000;
  const std::vector<WeightedUpdate> items = MakeItems(kN, kSeed + 4);
  Router router(kM, RoutingPolicy::kUniform, kSeed + 5);
  const std::vector<size_t> sites = AssignSites(&router, kN);

  for (size_t threads : {size_t{2}, size_t{8}}) {
    DrainRecorder recorder(kM);
    SimulationOptions opt;
    opt.threads = threads;
    opt.chunk_elements = 1024;
    SimulationDriver driver(opt);
    driver.Run(&recorder, sites, items);

    const auto ends = WindowEnds(kN, 1024, kM);
    ASSERT_EQ(recorder.drains().size(), ends.size());
    size_t begin = 0;
    for (size_t w = 0; w < ends.size(); ++w) {
      // Expected pending set: the window's distinct sites, ascending.
      std::vector<uint32_t> expected(sites.begin() + begin,
                                     sites.begin() + ends[w]);
      std::sort(expected.begin(), expected.end());
      expected.erase(std::unique(expected.begin(), expected.end()),
                     expected.end());
      const std::vector<uint32_t>& got = recorder.drains()[w];
      ASSERT_TRUE(std::is_sorted(got.begin(), got.end()));
      EXPECT_EQ(got, expected) << "window " << w << ", threads " << threads;
      begin = ends[w];
    }
    EXPECT_EQ(driver.scheduler_stats().windows, ends.size());
  }
}

TEST(ParallelScaleTest, SchedulerCountersAreCoherent) {
  const size_t kM = 64;
  const size_t kN = 10000;
  const std::vector<WeightedUpdate> items = MakeItems(kN, kSeed + 10);
  Router router(kM, RoutingPolicy::kUniform, kSeed + 11);
  const std::vector<size_t> sites = AssignSites(&router, kN);

  ASSERT_EQ(*std::max_element(sites.begin(), sites.end()) + 1, kM);

  hh::P2Threshold protocol(kM, 0.1);
  SimulationOptions opt;
  opt.threads = 4;
  opt.chunk_elements = 1024;
  SimulationDriver driver(opt);
  driver.Run(&protocol, sites, items);

  const SchedulerStats& s = driver.scheduler_stats();
  const auto ends = WindowEnds(kN, 1024, kM);
  EXPECT_EQ(s.windows, ends.size());
  // sites_scheduled counts each (window, active site) pair exactly once:
  // it must equal the sum of per-window distinct-site counts, which is
  // schedule-determined (thread-count-invariant). batches_reserved counts
  // the lanes whose home range [i*m/L, (i+1)*m/L) held an active site.
  const size_t lanes = driver.threads();
  uint64_t expected_scheduled = 0;
  uint64_t expected_ranges = 0;
  size_t begin = 0;
  for (size_t end : ends) {
    std::vector<size_t> active(sites.begin() + begin, sites.begin() + end);
    std::sort(active.begin(), active.end());
    active.erase(std::unique(active.begin(), active.end()), active.end());
    expected_scheduled += active.size();
    for (size_t lane = 0; lane < lanes; ++lane) {
      const auto first = std::lower_bound(active.begin(), active.end(),
                                          lane * kM / lanes);
      if (first != active.end() && *first < (lane + 1) * kM / lanes) {
        ++expected_ranges;
      }
    }
    begin = end;
  }
  EXPECT_EQ(s.sites_scheduled, expected_scheduled);
  EXPECT_EQ(s.batches_reserved, expected_ranges);
  EXPECT_GE(s.batches_reserved, s.windows);
  EXPECT_LE(s.batches_reserved, s.windows * lanes);
}

// Records the thread of every SiteUpdate, per site. A site's record is
// written only by the lane that runs the site in a window, and windows
// are separated by the driver's barrier, so plain per-site fields are
// race-free even if the binding under test were broken.
class ThreadRecorder : public matrix::MatrixTrackingProtocol {
 public:
  explicit ThreadRecorder(size_t num_sites)
      : owner_(num_sites), calls_(num_sites, 0), moved_(num_sites, 0) {}

  void SiteUpdate(size_t site, const std::vector<double>&) override {
    const std::thread::id self = std::this_thread::get_id();
    if (calls_[site]++ == 0) {
      owner_[site] = self;
    } else if (owner_[site] != self) {
      moved_[site] = 1;
    }
  }
  size_t PendingOutboxSize(size_t) const override { return 0; }

  linalg::Matrix CoordinatorSketch() const override { return {}; }
  const CommStats& comm_stats() const override { return stats_; }
  std::vector<uint64_t> per_site_messages() const override { return {}; }
  std::string name() const override { return "thread-recorder"; }

  size_t num_sites() const { return owner_.size(); }
  uint64_t calls(size_t site) const { return calls_[site]; }
  bool moved(size_t site) const { return moved_[site] != 0; }
  std::thread::id owner(size_t site) const { return owner_[site]; }

 private:
  std::vector<std::thread::id> owner_;  // thread of the first call
  std::vector<uint64_t> calls_;
  std::vector<uint8_t> moved_;  // a later call came from another thread
  CommStats stats_;
};

// Every site ran on one thread; lane i's home range [i*m/L, (i+1)*m/L)
// ran on one thread per lane, a different one for each lane; lane 0's
// thread is `caller`. Every lane must have had work.
void ExpectSitesStayOnLaneThreads(const ThreadRecorder& rec, size_t lanes,
                                  std::thread::id caller) {
  const size_t m = rec.num_sites();
  std::vector<std::thread::id> lane_thread(lanes);
  for (size_t lane = 0; lane < lanes; ++lane) {
    for (size_t s = lane * m / lanes; s < (lane + 1) * m / lanes; ++s) {
      if (rec.calls(s) == 0) continue;
      EXPECT_FALSE(rec.moved(s)) << "site " << s << " changed threads";
      if (lane_thread[lane] == std::thread::id()) {
        lane_thread[lane] = rec.owner(s);
      }
      EXPECT_EQ(rec.owner(s), lane_thread[lane])
          << "site " << s << " ran off lane " << lane << "'s thread";
    }
    ASSERT_NE(lane_thread[lane], std::thread::id()) << "lane " << lane;
  }
  EXPECT_EQ(lane_thread[0], caller);
  for (size_t a = 0; a < lanes; ++a) {
    for (size_t b = a + 1; b < lanes; ++b) {
      EXPECT_NE(lane_thread[a], lane_thread[b])
          << "lanes " << a << " and " << b;
    }
  }
}

constexpr RoutingPolicy kAllPolicies[] = {
    RoutingPolicy::kUniform, RoutingPolicy::kRoundRobin,
    RoutingPolicy::kSkewed};

TEST(ParallelScaleTest, MaterializedRunKeepsEverySiteOnItsLaneThread) {
  const size_t kM = 61;  // prime: home ranges of unequal length
  const size_t kN = 6000;
  const std::vector<std::vector<double>> rows(kN,
                                              std::vector<double>(4, 1.0));
  for (RoutingPolicy policy : kAllPolicies) {
    Router router(kM, policy, kSeed + 12);
    const std::vector<size_t> sites = AssignSites(&router, kN);
    ASSERT_EQ(*std::max_element(sites.begin(), sites.end()) + 1, kM);
    for (size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
      SCOPED_TRACE(testing::Message() << "policy "
                                      << static_cast<int>(policy)
                                      << ", threads " << threads);
      ThreadRecorder rec(kM);
      SimulationOptions opt;
      opt.threads = threads;
      opt.chunk_elements = 256;
      SimulationDriver driver(opt);
      driver.Run(&rec, sites, rows);
      ExpectSitesStayOnLaneThreads(rec, driver.threads(),
                                   std::this_thread::get_id());
    }
  }
}

TEST(ParallelScaleTest, StreamingRunKeepsEverySiteOnItsLaneThread) {
  const size_t kM = 61;
  const size_t kN = 6000;
  for (RoutingPolicy policy : kAllPolicies) {
    for (size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
      SCOPED_TRACE(testing::Message() << "policy "
                                      << static_cast<int>(policy)
                                      << ", threads " << threads);
      data::SyntheticSource source(
          data::SyntheticMatrixGenerator::PamapLike(kSeed + 13), kN);
      Router router(kM, policy, kSeed + 14);
      ThreadRecorder rec(kM);
      SimulationOptions opt;
      opt.threads = threads;
      opt.chunk_elements = 256;
      SimulationDriver driver(opt);
      ASSERT_EQ(driver.Run(&rec, &router, &source, kN), kN);
      ExpectSitesStayOnLaneThreads(rec, driver.threads(),
                                   std::this_thread::get_id());
    }
  }
}

// Satellite contract: a present --threads flag / DMT_THREADS variable must
// be a positive integer — 0, negatives and garbage are hard errors, not
// silent fallbacks (a typo'd value silently running serial would
// invalidate a benchmark comparison).
TEST(ThreadCountValidationDeathTest, ThreadsFlagRejectsZero) {
  char prog[] = "prog";
  char flag[] = "--threads";
  char zero[] = "0";
  char* argv[] = {prog, flag, zero};
  EXPECT_EXIT(ParseThreadsArg(3, argv), ::testing::ExitedWithCode(2),
              "positive integer");
}

TEST(ThreadCountValidationDeathTest, ThreadsFlagRejectsNegative) {
  char prog[] = "prog";
  char arg[] = "--threads=-4";
  char* argv[] = {prog, arg};
  EXPECT_EXIT(ParseThreadsArg(2, argv), ::testing::ExitedWithCode(2),
              "positive integer");
}

TEST(ThreadCountValidationDeathTest, ThreadsFlagRejectsGarbage) {
  char prog[] = "prog";
  char arg[] = "--threads=lots";
  char* argv[] = {prog, arg};
  EXPECT_EXIT(ParseThreadsArg(2, argv), ::testing::ExitedWithCode(2),
              "positive integer");
}

TEST(ThreadCountValidationDeathTest, EnvRejectsZeroAndGarbage) {
  // setenv runs inside the forked death-test child, so the parent's
  // environment is untouched.
  EXPECT_EXIT(
      {
        setenv("DMT_THREADS", "0", 1);
        ResolveThreadCount(0);
      },
      ::testing::ExitedWithCode(2), "positive integer");
  EXPECT_EXIT(
      {
        setenv("DMT_THREADS", "-2", 1);
        ResolveThreadCount(0);
      },
      ::testing::ExitedWithCode(2), "positive integer");
  EXPECT_EXIT(
      {
        setenv("DMT_THREADS", "2x", 1);
        ResolveThreadCount(0);
      },
      ::testing::ExitedWithCode(2), "positive integer");
}

TEST(ThreadCountValidationTest, ClampsExtremeOversubscription) {
  const unsigned hc = std::thread::hardware_concurrency();
  const size_t hw = hc == 0 ? 1 : static_cast<size_t>(hc);
  // At the cap: accepted verbatim. Beyond it: clamped, never rejected.
  EXPECT_EQ(ResolveThreadCount(4 * hw), 4 * hw);
  EXPECT_EQ(ResolveThreadCount(4 * hw + 1), 4 * hw);
  EXPECT_EQ(ResolveThreadCount(1000000), 4 * hw);
}

}  // namespace
}  // namespace stream
}  // namespace dmt
