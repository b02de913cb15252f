// Edge-case contract of the serving query surface: empty pre-window
// snapshots, k beyond the tracked count, rank beyond the sketch rank,
// zero-row sketches — all defined results; invalid *arguments* abort
// (death tests). The snapshot's factorization is pinned against an
// independent reference SVD (tests/reference_eigen.h).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/synthetic_matrix.h"
#include "hh/p1_batched_mg.h"
#include "linalg/spectral.h"
#include "linalg/vec_ops.h"
#include "matrix/mp1_batched_fd.h"
#include "matrix/mp2_svd_threshold.h"
#include "reference_eigen.h"
#include "serve/query_engine.h"
#include "serve/serving_coordinator.h"
#include "serve/snapshot.h"
#include "serve/snapshot_store.h"
#include "stream/router.h"
#include "stream/simulation_driver.h"
#include "util/rng.h"

namespace dmt {
namespace {

TEST(ServingEdgeTest, EmptySnapshotEveryQueryDefined) {
  std::unique_ptr<const serve::Snapshot> snap = serve::BuildEmptySnapshot();
  serve::QueryEngine engine(snap.get());

  EXPECT_EQ(engine.window_index(), 0u);
  EXPECT_EQ(engine.items_ingested(), 0u);
  EXPECT_EQ(engine.TrackedCount(), 0u);
  EXPECT_TRUE(engine.TopK(5).empty());
  EXPECT_EQ(engine.TopKMass(5), 0.0);
  EXPECT_EQ(engine.ElementWeight(123), 0.0);
  EXPECT_EQ(engine.TotalWeight(), 0.0);
  EXPECT_TRUE(engine.HeavyHitters(0.1, 0.05).empty());
  EXPECT_EQ(engine.SketchRows(), 0u);
  EXPECT_EQ(engine.SketchCols(), 0u);
  EXPECT_EQ(engine.SketchSquaredFrobenius(), 0.0);
  EXPECT_TRUE(engine.TopSingularValues(3).empty());
  EXPECT_EQ(engine.CovarianceQuadraticForm({1.0, 2.0}), 0.0);
  // Projection on an empty sketch: the zero vector of the input's size.
  const std::vector<double> p = engine.ProjectRow({1.0, 2.0, 3.0}, 2);
  EXPECT_EQ(p, std::vector<double>({0.0, 0.0, 0.0}));
}

TEST(ServingEdgeTest, KLargerThanTrackedCountClamps) {
  hh::P1BatchedMG protocol(2, 0.1);
  for (uint64_t e = 0; e < 5; ++e) {
    protocol.Process(e % 2, e, static_cast<double>(e + 1));
  }
  std::unique_ptr<const serve::Snapshot> snap =
      serve::BuildSnapshot(protocol, 1, 5);
  serve::QueryEngine engine(snap.get());

  const size_t tracked = engine.TrackedCount();
  ASSERT_GT(tracked, 0u);
  EXPECT_EQ(engine.TopK(1000000).size(), tracked);
  // The clamped mass equals the full tracked mass.
  EXPECT_EQ(engine.TopKMass(1000000), engine.TopKMass(tracked));
  // TopK order: weight descending, ties by ascending element.
  const std::vector<serve::HHEntry> top = engine.TopK(tracked);
  for (size_t i = 0; i + 1 < top.size(); ++i) {
    EXPECT_GE(top[i].weight, top[i + 1].weight);
    if (top[i].weight == top[i + 1].weight) {
      EXPECT_LT(top[i].element, top[i + 1].element);
    }
  }
}

TEST(ServingEdgeTest, RankBeyondSketchRankClamps) {
  matrix::MP1BatchedFD protocol(2, 0.3);
  for (size_t i = 0; i < 200; ++i) {
    std::vector<double> row(6, 0.0);
    row[i % 6] = 1.0 + static_cast<double>(i % 3);
    protocol.ProcessRow(i % 2, row);
  }
  std::unique_ptr<const serve::Snapshot> snap =
      serve::BuildSnapshot(protocol, 1, 200);
  serve::QueryEngine engine(snap.get());
  ASSERT_GT(engine.SketchRows(), 0u);

  const size_t r = snap->sigma.size();
  ASSERT_GT(r, 0u);
  // Requests beyond the factorization rank clamp to it, bit-exactly.
  EXPECT_EQ(engine.TopSingularValues(1000000), engine.TopSingularValues(r));
  std::vector<double> x(6, 1.0);
  EXPECT_EQ(engine.ProjectRow(x, 1000000), engine.ProjectRow(x, r));
}

// A protocol whose coordinator sketch is a fixed matrix, so a snapshot can
// be built from any sketch.
class FixedSketchProtocol : public matrix::MatrixTrackingProtocol {
 public:
  explicit FixedSketchProtocol(linalg::Matrix sketch)
      : sketch_(std::move(sketch)) {}
  void SiteUpdate(size_t, const std::vector<double>&) override {}
  linalg::Matrix CoordinatorSketch() const override { return sketch_; }
  const stream::CommStats& comm_stats() const override { return stats_; }
  std::vector<uint64_t> per_site_messages() const override { return {}; }
  std::string name() const override { return "fixed"; }

 private:
  linalg::Matrix sketch_;
  stream::CommStats stats_;
};

TEST(ServingEdgeTest, ZeroRowSketchIsDefined) {
  // A matrix protocol whose sketch has no rows yet exports an empty matrix
  // snapshot: has_matrix set, every query the documented empty result.
  FixedSketchProtocol protocol{linalg::Matrix()};
  std::unique_ptr<const serve::Snapshot> snap =
      serve::BuildSnapshot(protocol, /*window_index=*/1,
                           /*items_ingested=*/0);
  EXPECT_TRUE(snap->has_matrix);
  serve::QueryEngine engine(snap.get());
  EXPECT_EQ(engine.SketchRows(), 0u);
  EXPECT_EQ(engine.SketchSquaredFrobenius(), 0.0);
  EXPECT_TRUE(engine.TopSingularValues(2).empty());
  EXPECT_EQ(engine.CovarianceQuadraticForm({1.0, 2.0, 3.0}), 0.0);
  EXPECT_EQ(engine.ProjectRow({1.0, 2.0}, 3),
            std::vector<double>({0.0, 0.0}));
}

// Tolerance on snapshot sigma_i given the reference singular values.
using SigmaTolerance =
    std::function<double(const std::vector<double>& ref_sigma, size_t i)>;

double WithinTenToTheMinusTenSigma1(const std::vector<double>& ref_sigma,
                                    size_t /*i*/) {
  return 1e-10 * ref_sigma[0];
}

// The snapshot's sigma / V must be the sketch's singular structure, not
// just self-consistent: compare BuildSnapshot against the reference SVD
// of the very sketch it stores. sigma within `sigma_tol`; V columns equal
// up to sign wherever sigma^2 is separated from its neighbours; the
// engine's TopSingularValues agrees to `sigma_tol` and ProjectRow (at
// separated ranks) to 1e-10. Returns how many V columns were separated
// enough to check.
size_t ExpectSnapshotMatchesReferenceSvd(
    const serve::Snapshot& snap,
    const SigmaTolerance& sigma_tol = WithinTenToTheMinusTenSigma1) {
  const linalg::Matrix& b = snap.sketch;
  const linalg::ReferenceSvdResult ref = linalg::ReferenceSvd(b);
  const size_t r = ref.sigma.size();
  const size_t d = b.cols();
  EXPECT_EQ(snap.sigma.size(), r);
  EXPECT_EQ(snap.right_vectors.rows(), d);
  EXPECT_EQ(snap.right_vectors.cols(), r);
  if (snap.sigma.size() != r || snap.right_vectors.cols() != r) return 0;
  const double s1 = ref.sigma[0];
  for (size_t i = 0; i < r; ++i) {
    EXPECT_NEAR(snap.sigma[i], ref.sigma[i], sigma_tol(ref.sigma, i))
        << "sigma " << i;
  }

  // sigma^2 gap of column i to its neighbours, relative to sigma_1^2.
  const auto gap = [&ref, r, s1](size_t i) {
    double g = s1 * s1;
    const double li = ref.sigma[i] * ref.sigma[i];
    if (i > 0) g = std::min(g, ref.sigma[i - 1] * ref.sigma[i - 1] - li);
    if (i + 1 < r) {
      g = std::min(g, li - ref.sigma[i + 1] * ref.sigma[i + 1]);
    }
    return g / (s1 * s1);
  };
  size_t checked = 0;
  for (size_t i = 0; i < r; ++i) {
    if (gap(i) < 1e-3) continue;
    double dot = 0.0;
    for (size_t k = 0; k < d; ++k) {
      dot += snap.right_vectors(k, i) * ref.v(k, i);
    }
    const double sign = dot < 0.0 ? -1.0 : 1.0;
    for (size_t k = 0; k < d; ++k) {
      EXPECT_NEAR(snap.right_vectors(k, i), sign * ref.v(k, i), 1e-10)
          << "V(" << k << ", " << i << ")";
    }
    ++checked;
  }

  serve::QueryEngine engine(&snap);
  const std::vector<double> top = engine.TopSingularValues(r);
  EXPECT_EQ(top.size(), r);
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_NEAR(top[i], ref.sigma[i], sigma_tol(ref.sigma, i));
  }
  std::vector<double> x(d);
  for (size_t k = 0; k < d; ++k) x[k] = 1.0 / static_cast<double>(k + 1);
  for (size_t rank = 1; rank < r; ++rank) {
    const double split = ref.sigma[rank - 1] * ref.sigma[rank - 1] -
                         ref.sigma[rank] * ref.sigma[rank];
    if (split < 1e-3 * s1 * s1) continue;
    std::vector<double> expect(d, 0.0);
    for (size_t i = 0; i < rank; ++i) {
      double coef = 0.0;
      for (size_t k = 0; k < d; ++k) coef += ref.v(k, i) * x[k];
      for (size_t k = 0; k < d; ++k) expect[k] += coef * ref.v(k, i);
    }
    const std::vector<double> got = engine.ProjectRow(x, rank);
    for (size_t k = 0; k < d; ++k) {
      EXPECT_NEAR(got[k], expect[k], 1e-10 * linalg::Norm(x))
          << "rank " << rank << ", coordinate " << k;
    }
  }
  return checked;
}

TEST(ServingEdgeTest, SnapshotFactorizationMatchesReferenceSvd) {
  // PAMAP-like rows (d = 44) through both matrix protocols: MP2's
  // coordinator sketch has one row per positive eigenvalue of its Gram
  // (rows >= cols), MP1's FD sketch at most 2 ell rows (rows < cols, so
  // its Gram has rank < d and the snapshot keeps the leading `rows`
  // pairs).
  data::SyntheticMatrixGenerator gen(
      data::SyntheticMatrixGenerator::PamapLike(5));
  matrix::MP2SvdThreshold mp2(4, 0.1);
  matrix::MP1BatchedFD mp1(4, 0.1);
  for (size_t i = 0; i < 3000; ++i) {
    const std::vector<double> row = gen.Next();
    mp2.ProcessRow(i % 4, row);
    mp1.ProcessRow(i % 4, row);
  }

  std::unique_ptr<const serve::Snapshot> mp2_snap =
      serve::BuildSnapshot(mp2, 1, 3000);
  ASSERT_GE(mp2_snap->sketch.rows(), mp2_snap->sketch.cols());
  EXPECT_GE(ExpectSnapshotMatchesReferenceSvd(*mp2_snap), 3u);

  std::unique_ptr<const serve::Snapshot> mp1_snap =
      serve::BuildSnapshot(mp1, 1, 3000);
  ASSERT_GT(mp1_snap->sketch.rows(), 0u);
  ASSERT_LT(mp1_snap->sketch.rows(), mp1_snap->sketch.cols());
  EXPECT_GE(ExpectSnapshotMatchesReferenceSvd(*mp1_snap), 3u);
}

// Publishes of one MP1 serving run: those whose σ and V came from the
// coordinator FD's last shrink, and those after a first shrink that
// solved for their own.
struct Mp1Publishes {
  size_t factored = 0;
  size_t solved_after_a_shrink = 0;
};

// MP1 over `n` PAMAP-like rows and 32 sites, `chunk` rows per window,
// checking every published snapshot. On factored windows σ·Vᵀ must be the
// stored sketch bit for bit, which a second factorization misses by
// rounding; on every window the snapshot holds the sketch's singular
// structure, whichever path built it.
Mp1Publishes RunMp1Serving(size_t n, size_t chunk) {
  const size_t sites = 32;
  data::SyntheticMatrixGenerator gen(
      data::SyntheticMatrixGenerator::PamapLike(7));
  const linalg::Matrix rows = gen.Take(n);
  data::DatasetInfo info;
  info.name = "pamap-like";
  info.dim = rows.cols();
  info.rows = n;
  data::MaterializedSource source(info, rows);
  stream::Router router(sites, stream::RoutingPolicy::kUniform, 8);
  matrix::MP1BatchedFD protocol(sites, 0.1);
  stream::SimulationOptions opt;
  opt.threads = 2;
  opt.chunk_elements = chunk;
  stream::SimulationDriver driver(opt);
  serve::SnapshotStore store;
  serve::ServingCoordinator serving(&store);
  serving.AttachMatrix(&driver, &protocol);

  Mp1Publishes out;
  serving.set_publish_observer([&](const serve::Snapshot& snap) {
    linalg::Matrix sketch;
    linalg::RightSingular factors;
    const bool own = protocol.ExportSnapshotFactors(&sketch, &factors);
    ASSERT_EQ(sketch.rows(), snap.sketch.rows());
    if (snap.sketch.empty()) return;
    const size_t r = snap.sketch.rows(), d = snap.sketch.cols();
    if (own) {
      ++out.factored;
      ASSERT_EQ(snap.sigma.size(), r);
      ASSERT_EQ(snap.right_vectors.cols(), r);
      size_t mismatches = 0;
      for (size_t i = 0; i < r; ++i) {
        for (size_t j = 0; j < d; ++j) {
          if (snap.sketch(i, j) != snap.sigma[i] * snap.right_vectors(j, i)) {
            ++mismatches;
          }
        }
      }
      EXPECT_EQ(mismatches, 0u) << "window " << snap.window_index;
    } else if (protocol.coordinator_shrink_count() > 0) {
      ++out.solved_after_a_shrink;
    }
    ExpectSnapshotMatchesReferenceSvd(snap);
  });
  EXPECT_EQ(driver.Run(&protocol, &router, &source), n);
  serving.Detach();
  return out;
}

// MP1 publishes the σ and V of its coordinator FD's last shrink whenever
// a window's batch ended on one (ExportSnapshotFactors returns true), and
// solves for them otherwise. At the benchmark's chunk of 96 rows nearly
// every window merges 2*ell rows or more, so it ends on a shrink. At 8
// rows per window most windows after a shrink merge fewer, so rows have
// entered the sketch since its last factorization and the snapshot
// solves for its own.
TEST(ServingEdgeTest, Mp1SnapshotReusesItsShrinkFactorization) {
  const Mp1Publishes bench_chunk = RunMp1Serving(6000, 96);
  EXPECT_GT(bench_chunk.factored, 0u);
  const Mp1Publishes small_chunk = RunMp1Serving(1500, 8);
  EXPECT_GT(small_chunk.factored, 0u);
  EXPECT_GT(small_chunk.solved_after_a_shrink, 0u);
}

// The Gram route's stated accuracy (linalg/svd.h): sigma_i^2 to about
// d eps sigma_1^2, so sigma_i to that over sigma_i, on a graded MP1-shaped
// sketch (30 x 44, sigma from 1 down to 1e-8 geometrically). There the
// smallest sigma_i are far outside 1e-10 sigma_1, while V and ProjectRow
// at separated ranks still hold to 1e-10.
TEST(ServingEdgeTest, GradedSketchFactorizationMeetsTheGramRouteBound) {
  const size_t n = 30, d = 44;
  Rng rng(31);
  const linalg::Matrix u = linalg::RandomOrthogonalMatrix(n, &rng);
  const linalg::Matrix v = linalg::RandomOrthogonalMatrix(d, &rng);
  linalg::Matrix b(n, d);
  for (size_t t = 0; t < n; ++t) {
    const double sigma =
        std::pow(10.0, -8.0 * static_cast<double>(t) /
                           static_cast<double>(n - 1));
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < d; ++j) b(i, j) += u(i, t) * sigma * v(j, t);
    }
  }
  FixedSketchProtocol protocol(b);
  std::unique_ptr<const serve::Snapshot> snap =
      serve::BuildSnapshot(protocol, 1, n);

  const linalg::ReferenceSvdResult ref = linalg::ReferenceSvd(b);
  ASSERT_EQ(snap->sigma.size(), n);
  const double s1 = ref.sigma[0];
  EXPECT_LT(ref.sigma[n - 1], 2e-8 * s1);
  // The bound under test, plus the reference's own error: cyclic Jacobi
  // on the (n + d)-square Jordan-Wielandt matrix gets sigma_i to a few
  // (n + d) eps sigma_1, which moves its sigma_i^2 by twice that times
  // sigma_i (negligible below the leading values).
  const double eps = std::numeric_limits<double>::epsilon();
  const double gram_bound = static_cast<double>(d) * eps * s1 * s1;
  const double ref_sigma_err = static_cast<double>(n + d) * eps * s1;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(snap->sigma[i] * snap->sigma[i],
                ref.sigma[i] * ref.sigma[i],
                gram_bound + 2.0 * ref.sigma[i] * ref_sigma_err)
        << "sigma^2 " << i;
  }
  // |sigma - sigma'| = |sigma^2 - sigma'^2| / (sigma + sigma').
  const SigmaTolerance from_sigma_sq_bound =
      [gram_bound, ref_sigma_err](const std::vector<double>& ref_sigma,
                                  size_t i) {
        return gram_bound / ref_sigma[i] + 2.0 * ref_sigma_err;
      };
  EXPECT_GE(ExpectSnapshotMatchesReferenceSvd(*snap, from_sigma_sq_bound),
            3u);
}

TEST(ServingEdgeDeathTest, InvalidArgumentsDie) {
  std::unique_ptr<const serve::Snapshot> snap = serve::BuildEmptySnapshot();
  serve::QueryEngine engine(snap.get());
  EXPECT_DEATH((void)engine.TopK(0), "DMT_CHECK");
  EXPECT_DEATH((void)engine.TopKMass(0), "DMT_CHECK");
  EXPECT_DEATH((void)engine.TopSingularValues(0), "DMT_CHECK");
  EXPECT_DEATH((void)engine.ProjectRow({1.0}, 0), "DMT_CHECK");
  EXPECT_DEATH((void)engine.HeavyHitters(0.0, 0.1), "DMT_CHECK");
  EXPECT_DEATH((void)engine.HeavyHitters(0.1, -1.0), "DMT_CHECK");
  EXPECT_DEATH(serve::QueryEngine(nullptr), "DMT_CHECK");
}

TEST(ServingEdgeDeathTest, DimensionMismatchDies) {
  matrix::MP1BatchedFD protocol(2, 0.3);
  for (size_t i = 0; i < 50; ++i) {
    std::vector<double> row(4, 1.0);
    protocol.ProcessRow(i % 2, row);
  }
  std::unique_ptr<const serve::Snapshot> snap =
      serve::BuildSnapshot(protocol, 1, 50);
  serve::QueryEngine engine(snap.get());
  ASSERT_GT(engine.SketchRows(), 0u);
  EXPECT_DEATH((void)engine.CovarianceQuadraticForm({1.0}), "DMT_CHECK");
  EXPECT_DEATH((void)engine.ProjectRow({1.0, 2.0, 3.0}, 2), "DMT_CHECK");
}

}  // namespace
}  // namespace dmt
