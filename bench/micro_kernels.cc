// Naive-vs-blocked throughput of the linalg kernel layer plus the FD
// shrink pipeline, tracked as BENCH_micro_kernels.json the same way
// parallel_sites tracks the simulation engine.
//
// Usage: micro_kernels [output.json]
//   DMT_SCALE=small|default|paper scales the problem sizes and timing
//   budget. The JSON is printed to stdout and, when a path is given,
//   written there (the repo keeps a checked-in BENCH_micro_kernels.json).
//
// Reported metrics:
//  * GEMM and Gram GFLOP/s for the seed's naive triple loops
//    (kernels::GemmNaive / GramNaive) versus the blocked kernels, across
//    square and tall problem sizes.
//  * Frequent Directions shrink pipeline: streaming rows/sec, shrink
//    events/sec through the warm-started in-place pipeline, and the cost
//    of one cold RightSingularOf-based shrink of the same buffer shape
//    for comparison.
//  * symmetric_eigen: MP1's coordinator shrink at eps = 0.1 on PAMAP's
//    d = 44 (ell = 20, so a full buffer is 4 ell = 80 rows and the solve
//    wants ell + 1 = 21 pairs): microseconds per call, fastest single
//    call of N, for the blocked 44 x 44 Gram, for the Householder-QL
//    solve of it (SymmetricEigenInPlace), and for the whole
//    LanczosSolver::TopKOfRows call the shrink makes (its dense route at
//    this shape: Gram, QL and a residual GEMM).
//
// The envelope records the instruction set the kernels dispatched to.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "data/synthetic_matrix.h"
#include "linalg/kernels.h"
#include "linalg/lanczos.h"
#include "linalg/matrix.h"
#include "linalg/svd.h"
#include "linalg/symmetric_eigen.h"
#include "sketch/frequent_directions.h"
#include "util/check.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace dmt;
namespace kn = linalg::kernels;

std::vector<double> RandomVec(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng->NextGaussian();
  return v;
}

// Adaptive best-effort timing: repeats `fn` until `budget` seconds of
// samples accumulate and returns seconds per call (minimum over batches,
// to shed scheduler noise).
template <typename Fn>
double SecondsPerCall(Fn fn, double budget) {
  fn();  // warm the caches / page in the buffers
  size_t reps = 1;
  double best = 1e100;
  double spent = 0.0;
  while (spent < budget) {
    Timer t;
    for (size_t i = 0; i < reps; ++i) fn();
    const double s = t.Seconds();
    spent += s;
    best = std::min(best, s / static_cast<double>(reps));
    if (s < budget / 8.0) reps *= 2;
  }
  return best;
}

struct KernelPoint {
  size_t m, k, n;          // problem shape (Gram: n rows = m, d = k)
  double naive_gflops;
  double blocked_gflops;
  double speedup;
  double max_abs_diff;     // blocked vs naive result (sanity)
};

KernelPoint MeasureGemm(size_t s, double budget, Rng* rng) {
  std::vector<double> a = RandomVec(s * s, rng);
  std::vector<double> b = RandomVec(s * s, rng);
  std::vector<double> c_naive(s * s), c_blocked(s * s);
  const double flops = 2.0 * static_cast<double>(s) * s * s;
  const double tn = SecondsPerCall(
      [&] { kn::GemmNaive(a.data(), b.data(), c_naive.data(), s, s, s); },
      budget);
  const double tb = SecondsPerCall(
      [&] { kn::Gemm(a.data(), b.data(), c_blocked.data(), s, s, s); },
      budget);
  KernelPoint p{s, s, s, flops / tn / 1e9, flops / tb / 1e9, tn / tb, 0.0};
  for (size_t i = 0; i < s * s; ++i) {
    p.max_abs_diff =
        std::max(p.max_abs_diff, std::fabs(c_naive[i] - c_blocked[i]));
  }
  return p;
}

KernelPoint MeasureGram(size_t n, size_t d, double budget, Rng* rng) {
  std::vector<double> a = RandomVec(n * d, rng);
  std::vector<double> g_naive(d * d), g_blocked(d * d);
  // Upper-triangle MACs mirrored: count the same n*d^2 flops for both.
  const double flops = static_cast<double>(n) * d * d;
  const double tn = SecondsPerCall(
      [&] { kn::GramNaive(a.data(), n, d, g_naive.data()); }, budget);
  const double tb = SecondsPerCall(
      [&] { kn::Gram(a.data(), n, d, g_blocked.data()); }, budget);
  KernelPoint p{n, d, d, flops / tn / 1e9, flops / tb / 1e9, tn / tb, 0.0};
  for (size_t i = 0; i < d * d; ++i) {
    p.max_abs_diff =
        std::max(p.max_abs_diff, std::fabs(g_naive[i] - g_blocked[i]));
  }
  return p;
}

struct ShrinkPoint {
  size_t dim, ell, rows;
  double rows_per_sec;
  size_t shrink_events;
  double shrink_events_per_sec;   // amortized over the full append stream
  double cold_shrink_seconds;     // one cold RightSingularOf shrink
};

ShrinkPoint MeasureShrink(size_t d, size_t ell, size_t n, Rng* rng) {
  sketch::FrequentDirections fd(ell, d);
  std::vector<double> row(d);
  Timer t;
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : row) v = rng->NextGaussian();
    fd.Append(row);
  }
  const double s = t.Seconds();
  ShrinkPoint p{d, ell, n, n / s, fd.shrink_count(), fd.shrink_count() / s,
                0.0};

  // Cold comparison: one from-scratch decomposition of a full 2*ell x d
  // buffer, the per-event cost of the pre-warm-start pipeline.
  linalg::Matrix buffer(2 * ell, d);
  for (size_t i = 0; i < 2 * ell; ++i) {
    for (size_t j = 0; j < d; ++j) buffer(i, j) = rng->NextGaussian();
  }
  p.cold_shrink_seconds = SecondsPerCall(
      [&] {
        linalg::RightSingular rs = linalg::RightSingularOf(buffer);
        DMT_CHECK(!rs.squared_sigma.empty());
      },
      0.2);
  return p;
}

struct EigenPoint {
  size_t rows, dim, k;
  const char* route;  // TopKOfRows' route at this shape
  size_t calls;
  double gram_us;
  double eigen_us;
  double top_k_us;
};

EigenPoint MeasureSymmetricEigen(size_t calls) {
  const size_t n = 80, k = 21;
  data::SyntheticMatrixGenerator gen(
      data::SyntheticMatrixGenerator::PamapLike(7));
  const linalg::Matrix rows = gen.Take(n);
  const size_t d = rows.cols();
  std::vector<double> gram(d * d), work(d * d), lambda(d), scratch(d);
  linalg::LanczosOptions opts;
  opts.tol = 1e-11;  // the FD shrink's tolerance
  linalg::LanczosSolver solver;
  std::vector<double> vals;
  linalg::Matrix vecs;
  EigenPoint p{n, d, k,
               linalg::LanczosSolver::UsesDenseRoute(d, k, opts) ? "dense"
                                                                 : "krylov",
               calls, 1e100, 1e100, 1e100};
  const auto fastest = [](double* best, const Timer& t) {
    *best = std::min(*best, t.Seconds() * 1e6);
  };
  for (size_t c = 0; c < calls; ++c) {
    Timer gram_t;
    kn::Gram(rows.Row(0), n, d, gram.data());
    fastest(&p.gram_us, gram_t);
    std::copy(gram.begin(), gram.end(), work.begin());
    Timer eigen_t;
    const bool ok = linalg::SymmetricEigenInPlace(work.data(), d,
                                                  lambda.data(),
                                                  scratch.data());
    fastest(&p.eigen_us, eigen_t);
    DMT_CHECK(ok);
    Timer top_k_t;
    const linalg::LanczosInfo info =
        solver.TopKOfRows(rows, k, &vals, &vecs, opts);
    fastest(&p.top_k_us, top_k_t);
    DMT_CHECK(info.converged);
  }
  return p;
}

void PrintKernelPoints(FILE* f, const char* name,
                       const std::vector<KernelPoint>& points, bool last) {
  std::fprintf(f, "  \"%s\": [\n", name);
  for (size_t i = 0; i < points.size(); ++i) {
    const KernelPoint& p = points[i];
    std::fprintf(f,
                 "    {\"m\": %zu, \"k\": %zu, \"n\": %zu, "
                 "\"naive_gflops\": %.3f, \"blocked_gflops\": %.3f, "
                 "\"speedup\": %.3f, \"max_abs_diff\": %.3e}%s\n",
                 p.m, p.k, p.n, p.naive_gflops, p.blocked_gflops, p.speedup,
                 p.max_abs_diff, i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]%s\n", last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--threads") {
      ++i;  // space-separated flag value is not the output path
      continue;
    }
    if (argv[i][0] != '-') out_path = argv[i];
  }

  const Scale scale = GetScale();
  // small keeps the CI smoke run to a couple of seconds; default covers
  // the 256^3 acceptance point; paper adds a 384 point.
  std::vector<size_t> sizes = {64, 128};
  if (scale != Scale::kSmall) sizes.push_back(256);
  if (scale == Scale::kPaper) sizes.push_back(384);
  const double budget = scale == Scale::kSmall ? 0.05 : 0.25;

  Rng rng(12345);
  std::vector<KernelPoint> gemm, gram;
  for (size_t s : sizes) gemm.push_back(MeasureGemm(s, budget, &rng));
  for (size_t s : sizes) {
    gram.push_back(MeasureGram(2 * s, s, budget, &rng));
  }
  const size_t shrink_rows =
      static_cast<size_t>(ScaledN(40000, 2, 20));
  ShrinkPoint shrink = MeasureShrink(64, 32, shrink_rows, &rng);
  const EigenPoint eigen =
      MeasureSymmetricEigen(scale == Scale::kSmall ? 20 : 400);

  bench::EmitBenchJson(out_path, "micro_kernels", [&](FILE* f) {
    std::fprintf(f,
                 "  \"tiles\": {\"row\": %zu, \"col\": %zu, \"k\": %zu, "
                 "\"panel\": %zu},\n",
                 kn::kRowTile, kn::kColTile, kn::kKTile, kn::kPanelRows);
    PrintKernelPoints(f, "gemm", gemm, false);
    PrintKernelPoints(f, "gram", gram, false);
    std::fprintf(
        f,
        "  \"fd_shrink\": {\"dim\": %zu, \"ell\": %zu, \"rows\": %zu, "
        "\"rows_per_sec\": %.0f, \"shrink_events\": %zu, "
        "\"shrink_events_per_sec\": %.1f, "
        "\"cold_shrink_seconds\": %.6f},\n",
        shrink.dim, shrink.ell, shrink.rows, shrink.rows_per_sec,
        shrink.shrink_events, shrink.shrink_events_per_sec,
        shrink.cold_shrink_seconds);
    std::fprintf(
        f,
        "  \"symmetric_eigen\": {\"rows\": %zu, \"dim\": %zu, \"k\": %zu, "
        "\"route\": \"%s\", \"calls\": %zu, \"gram_us\": %.2f, "
        "\"eigen_us\": %.2f, \"top_k_of_rows_us\": %.2f}\n",
        eigen.rows, eigen.dim, eigen.k, eigen.route, eigen.calls,
        eigen.gram_us, eigen.eigen_us, eigen.top_k_us);
  });

  // Hard correctness gate so the smoke run fails loudly if the blocked
  // kernels ever drift from the reference loops.
  for (const auto& p : gemm) DMT_CHECK_LT(p.max_abs_diff, 1e-6);
  for (const auto& p : gram) DMT_CHECK_LT(p.max_abs_diff, 1e-6);
  return 0;
}
