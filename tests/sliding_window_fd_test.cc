#include "sketch/sliding_window_fd.h"

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "linalg/spectral.h"
#include "linalg/symmetric_eigen.h"
#include "serve/snapshot.h"
#include "util/rng.h"

namespace dmt {
namespace sketch {
namespace {

using linalg::Matrix;

double RelativeSpectralDiff(const Matrix& gram_a, const Matrix& gram_b,
                            double frob_a) {
  Matrix diff = gram_a;
  diff.Subtract(gram_b);
  return linalg::SpectralNormSymmetric(diff) / frob_a;
}

TEST(SlidingWindowFdTest, BlockCountLogarithmic) {
  SlidingWindowFD sw(1024, 8);
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    std::vector<double> row(6);
    for (auto& v : row) v = rng.NextGaussian();
    sw.Append(row);
    ASSERT_LE(sw.block_count(), 2 * 12 + 2u);  // 2 per size class
  }
}

TEST(SlidingWindowFdTest, ExpiresOldRegime) {
  // Phase 1 fills direction e1 heavily; phase 2 (longer than the window)
  // only feeds e2. After phase 2 the sketch must carry ~no e1 energy.
  const size_t window = 500;
  SlidingWindowFD sw(window, 8);
  std::vector<double> e1{10.0, 0.0};
  std::vector<double> e2{0.0, 1.0};
  for (int i = 0; i < 1000; ++i) sw.Append(e1);
  for (int i = 0; i < 3000; ++i) sw.Append(e2);

  Matrix gram = sw.Gram();
  // Energy along e1 must be zero (all e1 blocks expired).
  EXPECT_NEAR(gram(0, 0), 0.0, 1e-9);
  // Energy along e2 covers roughly the window (between W/2 and W+slack).
  EXPECT_GT(gram(1, 1), window / 2.0);
  EXPECT_LT(gram(1, 1), 2.0 * window);
}

class SlidingWindowAccuracyTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(SlidingWindowAccuracyTest, ApproximatesExactWindowMatrix) {
  auto [window, ell] = GetParam();
  const size_t d = 8;
  SlidingWindowFD sw(window, ell);
  Rng rng(7);
  std::vector<std::vector<double>> history;
  const size_t n = 4 * window;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row(d);
    for (auto& v : row) v = rng.NextGaussian();
    history.push_back(row);
    sw.Append(row);
  }
  // Exact matrix over the covered range: [newest - covered + 1, newest].
  // The sketch covers between (window - oldest_block) and (window +
  // oldest_block) rows; compare against the window plus the straddling
  // slack and require the FD bound plus the boundary slack.
  Matrix exact_window(0, d);
  for (size_t i = n - window; i < n; ++i) {
    exact_window.AppendRow(history[i]);
  }
  const double frob = exact_window.SquaredFrobeniusNorm();
  const double fd_eps = 1.0 / static_cast<double>(ell + 1);
  // Boundary slack: at most oldest_block_rows() rows (each of expected
  // squared norm ~d) may be extra or missing.
  const double boundary =
      static_cast<double>(sw.oldest_block_rows() * d) * 2.5 / frob;
  const double err =
      RelativeSpectralDiff(exact_window.Gram(), sw.Gram(), frob);
  EXPECT_LE(err, 3.0 * fd_eps + boundary)
      << "window=" << window << " ell=" << ell;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SlidingWindowAccuracyTest,
    ::testing::Combine(::testing::Values<size_t>(256, 1024),
                       ::testing::Values<size_t>(8, 16)));

TEST(SlidingWindowFdTest, ConservativeQueryExcludesStraddler) {
  SlidingWindowFD sw(100, 4);
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    std::vector<double> row(4);
    for (auto& v : row) v = rng.NextGaussian();
    sw.Append(row);
  }
  Matrix with = sw.Gram(true);
  Matrix without = sw.Gram(false);
  // The conservative query never has more energy than the inclusive one.
  double trace_with = 0.0, trace_without = 0.0;
  for (size_t i = 0; i < 4; ++i) {
    trace_with += with(i, i);
    trace_without += without(i, i);
  }
  EXPECT_LE(trace_without, trace_with + 1e-9);
}

TEST(SlidingWindowFdTest, StrictSketchExcludesFrontBlockAnchoredAtRowOne) {
  // Regression: the straddle check used to require b.newest > b.rows,
  // which a front block anchored at stream row 1 (newest == rows) never
  // satisfies. With window=4 and 5 appends the blocks are
  // [rows 1-2][rows 3-4][row 5]; row 1 has expired, so the front block
  // straddles and the conservative query must drop it — before the fix it
  // was always included, leaking expired energy into Sketch(false).
  const size_t d = 6;
  SlidingWindowFD sw(4, 8);
  for (size_t i = 0; i < 5; ++i) {
    std::vector<double> row(d, 0.0);
    row[i] = 1.0;
    sw.Append(row);
  }
  ASSERT_EQ(sw.rows_seen(), 5u);
  ASSERT_EQ(sw.oldest_block_rows(), 2u);

  Matrix strict = sw.Gram(false);
  Matrix inclusive = sw.Gram(true);
  // The straddling block (rows 1-2, axes e0/e1) is dropped by the strict
  // query but present in the inclusive one.
  EXPECT_NEAR(strict(0, 0), 0.0, 1e-12);
  EXPECT_NEAR(strict(1, 1), 0.0, 1e-12);
  EXPECT_GT(inclusive(0, 0), 0.5);
  // Rows 3-5 stay covered either way.
  for (size_t i = 2; i < 5; ++i) {
    EXPECT_GT(strict(i, i), 0.5) << "axis " << i;
    EXPECT_GT(inclusive(i, i), 0.5) << "axis " << i;
  }
}

TEST(SlidingWindowFdTest, RowsSeenCounts) {
  SlidingWindowFD sw(10, 2);
  for (int i = 0; i < 7; ++i) sw.Append({1.0});
  EXPECT_EQ(sw.rows_seen(), 7u);
}

// Serving-layer deep-copy contract: a snapshot pinned via
// serve::BuildWindowedSnapshot must stay bit-identical while the window
// keeps sliding — appends trigger merges, expiries and FD shrinks that
// rewrite the live block buffers, and none of it may show through the
// pinned export.
TEST(SlidingWindowFdSnapshotTest, PinnedSnapshotSurvivesAppends) {
  SlidingWindowFD sw(64, 4);
  Rng rng(7);
  const auto next_row = [&rng]() {
    std::vector<double> row(6);
    for (auto& v : row) v = rng.NextGaussian();
    return row;
  };
  for (int i = 0; i < 100; ++i) sw.Append(next_row());

  const auto pinned = serve::BuildWindowedSnapshot(
      sw, /*include_straddling=*/true, /*window_index=*/1,
      /*items_ingested=*/100);
  const uint64_t checksum = serve::SnapshotChecksum(*pinned);
  ASSERT_GT(pinned->sketch.rows(), 0u);

  // Slide far past the pinned state: every original block merges,
  // expires, or shrinks at least once.
  for (int i = 0; i < 500; ++i) sw.Append(next_row());

  EXPECT_EQ(serve::SnapshotChecksum(*pinned), checksum);
}

// ExportSketch (the deep-copy path the snapshot builder uses) must be
// value-identical to Sketch() at the same instant, for both straddling
// modes.
TEST(SlidingWindowFdSnapshotTest, ExportSketchMatchesSketch) {
  SlidingWindowFD sw(48, 4);
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> row(5);
    for (auto& v : row) v = rng.NextGaussian();
    sw.Append(row);

    for (bool straddling : {true, false}) {
      const Matrix a = sw.Sketch(straddling);
      const Matrix b = sw.ExportSketch(straddling);
      ASSERT_EQ(a.rows(), b.rows());
      ASSERT_EQ(a.cols(), b.cols());
      for (size_t r = 0; r < a.rows(); ++r) {
        for (size_t c = 0; c < a.cols(); ++c) {
          ASSERT_EQ(a(r, c), b(r, c));
        }
      }
    }
  }
}

}  // namespace
}  // namespace sketch
}  // namespace dmt
