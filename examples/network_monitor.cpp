// Example: distributed traffic-matrix monitoring with drift detection.
//
// Network monitors at many vantage points each observe flow records; a
// flow record is embedded as a feature row (ports, protocol mix, packet
// sizes...). Operators want to detect when the *direction* of traffic
// variation changes — the structural-analysis use case of Lakhina et al.
// cited by the paper — without ever centralizing the raw flows.
//
// This example tracks the flow matrix with protocol P3 (sampling) and
// watches the principal direction of the coordinator's sketch. Halfway
// through, the traffic pattern shifts (a new dominant subspace); the
// monitor detects the rotation of the top principal direction within a
// few thousand flows.
//
// Flows arrive in batches of 5000 and are pushed through the parallel
// simulation driver (--threads N, default DMT_THREADS / hardware
// concurrency): every monitor's local sampling runs concurrently, queries
// happen at batch boundaries, and the output is identical for any thread
// count.
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/continuous_matrix_tracker.h"
#include "data/synthetic_matrix.h"
#include "linalg/svd.h"
#include "linalg/vec_ops.h"
#include "stream/router.h"
#include "stream/simulation_driver.h"

namespace {

std::vector<double> TopDirection(const dmt::linalg::Matrix& gram) {
  dmt::linalg::RightSingular rs = dmt::linalg::RightSingularFromGram(gram);
  std::vector<double> v(gram.rows());
  for (size_t i = 0; i < v.size(); ++i) v[i] = rs.v(i, 0);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t kMonitors = 16;
  const size_t kDim = 32;
  dmt::MatrixTrackerConfig cfg;
  cfg.num_sites = kMonitors;
  cfg.epsilon = 0.1;
  cfg.protocol = "mp3wor";
  cfg.seed = 77;
  dmt::ContinuousMatrixTracker tracker(cfg);

  // Two traffic regimes with different dominant subspaces (different
  // generator seeds produce rotated bases).
  dmt::data::SyntheticMatrixConfig regime_a;
  regime_a.dim = kDim;
  regime_a.latent_rank = 4;
  regime_a.decay_base = 0.6;
  regime_a.seed = 1001;
  dmt::data::SyntheticMatrixConfig regime_b = regime_a;
  regime_b.seed = 2002;

  dmt::data::SyntheticMatrixGenerator gen_a(regime_a);
  dmt::data::SyntheticMatrixGenerator gen_b(regime_b);
  dmt::stream::Router router(kMonitors,
                             dmt::stream::RoutingPolicy::kUniform, 3);

  const size_t kFlows = 80000;
  const size_t kShiftAt = kFlows / 2;
  const size_t kBatch = 5000;  // flows between queries / sync points
  std::vector<double> baseline_direction;

  dmt::stream::SimulationOptions driver_opt;
  driver_opt.threads = dmt::stream::ParseThreadsArg(argc, argv);
  driver_opt.chunk_elements = 1024;
  dmt::stream::SimulationDriver driver(driver_opt);

  std::printf("traffic matrix monitor: %zu vantage points, d=%zu, "
              "regime shift at flow %zu, %zu site threads\n\n",
              kMonitors, kDim, kShiftAt, driver.threads());
  std::printf("%10s  %22s  %12s\n", "flows", "|cos(top dir, baseline)|",
              "messages");

  for (size_t done = 0; done < kFlows; done += kBatch) {
    std::vector<std::vector<double>> flows(kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      flows[i] = (done + i < kShiftAt) ? gen_a.Next() : gen_b.Next();
    }
    const std::vector<size_t> sites =
        dmt::stream::AssignSites(&router, kBatch);
    tracker.AppendBatch(&driver, sites, flows);

    std::vector<double> dir = TopDirection(tracker.SketchGram());
    if (baseline_direction.empty()) baseline_direction = dir;
    const double cosine =
        std::fabs(dmt::linalg::Dot(dir, baseline_direction));
    std::printf("%10zu  %22.4f  %12llu%s\n", done + kBatch, cosine,
                static_cast<unsigned long long>(
                    tracker.comm_stats().total()),
                cosine < 0.7 ? "   <-- drift detected" : "");
  }
  return 0;
}
