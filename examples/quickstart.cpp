// Quickstart: track a distributed matrix with protocol P2 and compare the
// coordinator's continuous approximation against the exact covariance.
//
// Build & run:
//   cmake -B build -S . && cmake --build build -j
//   ./build/examples/quickstart
#include <cstdio>

#include "core/continuous_matrix_tracker.h"
#include "data/synthetic_matrix.h"
#include "matrix/error.h"
#include "stream/router.h"

int main() {
  // A 6-site deployment tracking 20-dimensional rows with eps = 0.1.
  dmt::MatrixTrackerConfig cfg;
  cfg.num_sites = 6;
  cfg.epsilon = 0.1;
  cfg.protocol = "mp2";
  dmt::ContinuousMatrixTracker tracker(cfg);

  // A synthetic low-rank row stream plays the role of live data.
  dmt::data::SyntheticMatrixConfig gen_cfg;
  gen_cfg.dim = 20;
  gen_cfg.latent_rank = 5;
  gen_cfg.seed = 7;
  dmt::data::SyntheticMatrixGenerator gen(gen_cfg);

  dmt::stream::Router router(cfg.num_sites,
                             dmt::stream::RoutingPolicy::kUniform, 99);
  dmt::matrix::CovarianceTracker truth(gen_cfg.dim);

  const size_t kRows = 20000;
  for (size_t i = 0; i < kRows; ++i) {
    std::vector<double> row = gen.Next();
    truth.AddRow(row);
    tracker.Append(router.NextSite(), row);

    // Continuous queries: ask at a few checkpoints mid-stream.
    if ((i + 1) % 5000 == 0) {
      double err = dmt::matrix::CovarianceError(truth, tracker.SketchGram());
      std::printf("after %6zu rows: err = %.6f (guarantee %.2f), "
                  "messages = %llu\n",
                  i + 1, err, cfg.epsilon,
                  static_cast<unsigned long long>(
                      tracker.comm_stats().total()));
    }
  }

  dmt::linalg::Matrix sketch = tracker.Sketch();
  std::printf("\nfinal sketch: %zu rows x %zu cols (stream had %zu rows)\n",
              sketch.rows(), sketch.cols(), kRows);
  std::printf("communication: %llu messages vs %zu naive\n",
              static_cast<unsigned long long>(tracker.comm_stats().total()),
              kRows);
  return 0;
}
