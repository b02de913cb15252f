// Example: continuous PCA over distributed image-feature streams.
//
// The paper's motivating scenario (Section 1): a search-engine company has
// image data arriving at many data centers; each row is a feature vector
// (e.g. a 128-dimensional SIFT descriptor) and the company needs an
// excellent, real-time approximation of the global feature matrix for
// downstream PCA/LSI — without shipping every image's features.
//
// This example streams synthetic 128-d feature vectors into 20 "data
// centers", tracks them with protocol P2, and at checkpoints extracts the
// top principal directions from the coordinator's sketch, comparing the
// captured variance against exact PCA.
#include <cstdio>
#include <vector>

#include "core/continuous_matrix_tracker.h"
#include "data/synthetic_matrix.h"
#include "linalg/svd.h"
#include "matrix/error.h"
#include "stream/router.h"

namespace {

// Fraction of total variance captured by the top-k eigenpairs of `gram`.
double CapturedVariance(const dmt::linalg::Matrix& gram, size_t k) {
  dmt::linalg::RightSingular rs = dmt::linalg::RightSingularFromGram(gram);
  double total = 0.0, head = 0.0;
  for (size_t i = 0; i < rs.squared_sigma.size(); ++i) {
    total += rs.squared_sigma[i];
    if (i < k) head += rs.squared_sigma[i];
  }
  return total > 0.0 ? head / total : 0.0;
}

}  // namespace

int main() {
  const size_t kDataCenters = 20;
  const size_t kDim = 128;  // SIFT-like descriptors
  const size_t kTopK = 10;
  const double kEps = 0.05;

  dmt::MatrixTrackerConfig cfg;
  cfg.num_sites = kDataCenters;
  cfg.epsilon = kEps;
  cfg.protocol = "mp2";
  dmt::ContinuousMatrixTracker tracker(cfg);

  // Feature vectors concentrate on a ~15-dimensional "visual vocabulary"
  // subspace plus descriptor noise.
  dmt::data::SyntheticMatrixConfig gen_cfg;
  gen_cfg.dim = kDim;
  gen_cfg.latent_rank = 15;
  gen_cfg.decay_base = 0.8;
  gen_cfg.noise_level = 0.02;
  gen_cfg.beta = 64.0;
  gen_cfg.seed = 2024;
  dmt::data::SyntheticMatrixGenerator gen(gen_cfg);

  dmt::stream::Router router(kDataCenters,
                             dmt::stream::RoutingPolicy::kUniform, 5);
  dmt::matrix::CovarianceTracker truth(kDim);

  std::printf("continuous PCA across %zu data centers (d=%zu, eps=%.2f)\n\n",
              kDataCenters, kDim, kEps);
  std::printf("%10s  %12s  %12s  %10s  %12s\n", "images", "PCA(exact)",
              "PCA(sketch)", "err", "messages");

  const size_t kImages = 60000;
  for (size_t i = 0; i < kImages; ++i) {
    std::vector<double> feature = gen.Next();
    truth.AddRow(feature);
    tracker.Append(router.NextSite(), feature);
    if ((i + 1) % 15000 == 0) {
      const double exact_var = CapturedVariance(truth.gram(), kTopK);
      const double sketch_var =
          CapturedVariance(tracker.SketchGram(), kTopK);
      const double err =
          dmt::matrix::CovarianceError(truth, tracker.SketchGram());
      std::printf("%10zu  %12.4f  %12.4f  %10.6f  %12llu\n", i + 1,
                  exact_var, sketch_var, err,
                  static_cast<unsigned long long>(
                      tracker.comm_stats().total()));
    }
  }

  std::printf("\nnaive cost would be %zu messages; the tracker used %llu "
              "(%.2f%%)\n",
              kImages,
              static_cast<unsigned long long>(tracker.comm_stats().total()),
              100.0 * static_cast<double>(tracker.comm_stats().total()) /
                  static_cast<double>(kImages));
  return 0;
}
