// Example: weighted heavy hitters over distributed server access logs.
//
// The paper's second motivating scenario: log records arrive continuously
// at many servers; each record references a resource (URL, tag, word) and
// carries a size in bytes. The operator wants, at any moment, the
// resources responsible for at least 5% of total traffic *by bytes* —
// weighted heavy hitters, not mere counts.
//
// This example replays a Zipfian byte-weighted log across 30 servers with
// protocol P2 and compares against the exact oracle, printing the live
// heavy-hitter board at checkpoints.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/continuous_hh_tracker.h"
#include "data/zipf.h"
#include "stream/router.h"

int main() {
  const size_t kServers = 30;
  const double kEps = 0.005;
  const double kPhi = 0.05;

  dmt::HhTrackerConfig cfg;
  cfg.num_sites = kServers;
  cfg.epsilon = kEps;
  cfg.protocol = "p2";
  dmt::ContinuousHeavyHitterTracker tracker(cfg);

  // Requests follow a Zipf law over 50k resources; response sizes are
  // 1..1024 "KB".
  dmt::data::ZipfianStream logs(50000, 2.0, 1024.0, 11);
  dmt::stream::Router router(kServers, dmt::stream::RoutingPolicy::kUniform,
                             12);
  dmt::data::ExactWeights oracle;

  const size_t kRecords = 500000;
  std::printf("tracking >=%.0f%%-of-traffic resources across %zu servers "
              "(eps=%.3f)\n",
              100 * kPhi, kServers, kEps);
  for (size_t i = 0; i < kRecords; ++i) {
    dmt::data::WeightedItem rec = logs.Next();
    oracle.Observe(rec);
    tracker.Observe(router.NextSite(), rec.element, rec.weight);

    if ((i + 1) % 125000 == 0) {
      auto reported = tracker.HeavyHitters(kPhi);
      std::sort(reported.begin(), reported.end());
      auto truth = oracle.HeavyHitters(kPhi);
      size_t hits = 0;
      for (uint64_t e : truth) {
        if (std::find(reported.begin(), reported.end(), e) !=
            reported.end()) {
          ++hits;
        }
      }
      std::printf("\nafter %zu records: %zu heavy resources, recall %.2f, "
                  "messages %llu\n",
                  i + 1, truth.size(),
                  truth.empty() ? 1.0
                                : static_cast<double>(hits) / truth.size(),
                  static_cast<unsigned long long>(
                      tracker.comm_stats().total()));
      std::printf("  %-12s %-16s %-16s %-8s\n", "resource",
                  "bytes(true)", "bytes(tracked)", "share");
      for (uint64_t e : reported) {
        std::printf("  %-12llu %-16.0f %-16.0f %-8.4f\n",
                    static_cast<unsigned long long>(e), oracle.Weight(e),
                    tracker.EstimateWeight(e),
                    oracle.Weight(e) / oracle.total_weight());
      }
    }
  }

  std::printf("\ntotal: %zu records; protocol sent %llu messages "
              "(%.3f%% of naive)\n",
              kRecords,
              static_cast<unsigned long long>(tracker.comm_stats().total()),
              100.0 * static_cast<double>(tracker.comm_stats().total()) /
                  static_cast<double>(kRecords));
  return 0;
}
