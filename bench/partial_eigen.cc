// Lanczos partial eigensolver vs the full dense solve on the FD shrink
// shape, tracked as BENCH_partial_eigen.json.
//
// Usage: partial_eigen [output.json]
//   DMT_SCALE=small|default|paper selects the (ell, d) sweep; small keeps
//   the CI smoke run to the d=256 column. Every scale also measures
//   (ell, d) = (20, 44), protocol MP1's coordinator shape on PAMAP-like
//   data, where the Lanczos basis would span R^d and the solver takes
//   its dense route.
//
// Two comparisons per (ell, d) point:
//  * solver: top ell+1 eigenpairs of a 2*ell x d buffer's Gram — thick
//    restart Lanczos (linalg/lanczos.h TopKOfRows; row matvecs when
//    2*ell < d, so the Gram is never materialized) against the
//    full-spectrum route (blocked Gram build + Householder-QL
//    SymmetricEigen, `dense_seconds`), each the fastest of three calls,
//    with the eigenvalue agreement reported and gated.
//  * fd_stream: FrequentDirections streaming throughput with the Lanczos
//    shrink backend vs the Jacobi reference backend, with the final
//    covariance error of both sketches against the exact Gram — the two
//    must agree within 1e-8 (hard DMT_CHECK, every scale).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "linalg/jacobi_eigen.h"
#include "linalg/kernels.h"
#include "linalg/lanczos.h"
#include "linalg/matrix.h"
#include "matrix/error.h"
#include "sketch/frequent_directions.h"
#include "util/check.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace dmt;

linalg::Matrix GaussianRows(size_t n, size_t d, Rng* rng) {
  linalg::Matrix a(n, d);
  for (size_t i = 0; i < n; ++i) {
    double* r = a.Row(i);
    for (size_t j = 0; j < d; ++j) r[j] = rng->NextGaussian();
  }
  return a;
}

struct SolverPoint {
  size_t ell, d, rows, k;
  double dense_seconds;
  double lanczos_seconds;
  double speedup;
  size_t lanczos_matvecs;
  double rel_eig_diff;  // max |lambda_L - lambda_dense| / lambda_1
};

// Calls in each timing; the fastest one is reported.
constexpr int kSolverReps = 3;

SolverPoint MeasureSolver(size_t ell, size_t d, Rng* rng) {
  const size_t n = 2 * ell;  // the streaming shrink shape
  const size_t k = std::min(ell + 1, d);
  linalg::Matrix buffer = GaussianRows(n, d, rng);

  SolverPoint p{ell, d, n, k, 1e300, 1e300, 0.0, 0, 0.0};

  // Full-spectrum reference: blocked Gram build + dense QL, timed
  // together (that is what a full-decomposition shrink pays).
  linalg::EigenDecomposition full;
  for (int rep = 0; rep < kSolverReps; ++rep) {
    Timer t;
    linalg::Matrix gram(d, d);
    linalg::kernels::Gram(buffer.Row(0), n, d, gram.Row(0));
    full = linalg::SymmetricEigen(gram);
    p.dense_seconds = std::min(p.dense_seconds, t.Seconds());
  }

  std::vector<double> vals;
  linalg::Matrix vecs;
  linalg::LanczosInfo info;
  for (int rep = 0; rep < kSolverReps; ++rep) {
    Timer t;
    linalg::LanczosOptions opts;
    opts.tol = 1e-11;
    // The solver picks rows, Gram or dense route from the shape, exactly
    // as in a FrequentDirections shrink.
    info = linalg::LanczosTopKOfRows(buffer, k, &vals, &vecs, opts);
    p.lanczos_seconds = std::min(p.lanczos_seconds, t.Seconds());
  }
  DMT_CHECK(info.converged);
  p.lanczos_matvecs = info.matvecs;
  p.speedup = p.dense_seconds / p.lanczos_seconds;

  const double scale = std::max(full.eigenvalues.front(), 1e-300);
  for (size_t i = 0; i < k; ++i) {
    const double ref = std::max(0.0, full.eigenvalues[i]);
    p.rel_eig_diff =
        std::max(p.rel_eig_diff, std::fabs(vals[i] - ref) / scale);
  }
  return p;
}

struct StreamPoint {
  size_t ell, d, rows;
  double jacobi_rows_per_sec;
  double lanczos_rows_per_sec;
  double speedup;
  size_t jacobi_shrinks, lanczos_shrinks;
  double cov_err_jacobi;
  double cov_err_lanczos;
  double abs_err_diff;
};

StreamPoint MeasureStream(size_t ell, size_t d, Rng* rng) {
  const size_t n = 8 * ell;  // enough rows for several shrinks
  linalg::Matrix a = GaussianRows(n, d, rng);
  matrix::CovarianceTracker truth(d);
  truth.AddRows(a);

  const auto run = [&](sketch::FdShrinkBackend backend, double* seconds,
                       size_t* shrinks) {
    sketch::FrequentDirections fd(ell, d);
    fd.set_shrink_backend(backend);
    Timer t;
    for (size_t i = 0; i < n; ++i) fd.Append(a.Row(i), d);
    *seconds = t.Seconds();
    *shrinks = fd.shrink_count();
    return matrix::CovarianceError(truth, fd.Gram());
  };

  StreamPoint p{ell, d, n, 0, 0, 0, 0, 0, 0, 0, 0};
  double sj = 0.0, sl = 0.0;
  p.cov_err_jacobi = run(sketch::FdShrinkBackend::kJacobi, &sj,
                         &p.jacobi_shrinks);
  p.cov_err_lanczos = run(sketch::FdShrinkBackend::kLanczos, &sl,
                          &p.lanczos_shrinks);
  p.jacobi_rows_per_sec = n / sj;
  p.lanczos_rows_per_sec = n / sl;
  p.speedup = sj / sl;
  p.abs_err_diff = std::fabs(p.cov_err_jacobi - p.cov_err_lanczos);
  return p;
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
  std::vector<size_t> ells = {16, 64, 128, 256};
  std::vector<size_t> dims = {256, 1024};
  if (scale == Scale::kSmall) {
    ells = {16, 64};  // CI smoke: seconds, not minutes
    dims = {256};
  }

  // MP1's coordinator shape (eps = 0.1 -> ell = 20, PAMAP d = 44), first.
  std::vector<std::pair<size_t, size_t>> points = {{20, 44}};
  for (size_t d : dims) {
    for (size_t ell : ells) points.emplace_back(ell, d);
  }

  Rng rng(777);
  std::vector<SolverPoint> solver;
  std::vector<StreamPoint> streams;
  for (const auto& [ell, d] : points) {
    solver.push_back(MeasureSolver(ell, d, &rng));
    streams.push_back(MeasureStream(ell, d, &rng));
  }

  bench::EmitBenchJson(out_path, "partial_eigen", [&](FILE* f) {
    std::fprintf(f, "  \"solver\": [\n");
    for (size_t i = 0; i < solver.size(); ++i) {
      const SolverPoint& p = solver[i];
      std::fprintf(f,
                   "    {\"ell\": %zu, \"d\": %zu, \"rows\": %zu, "
                   "\"k\": %zu, \"dense_seconds\": %.6f, "
                   "\"lanczos_seconds\": %.6f, \"speedup\": %.3f, "
                   "\"lanczos_matvecs\": %zu, \"rel_eig_diff\": %.3e}%s\n",
                   p.ell, p.d, p.rows, p.k, p.dense_seconds,
                   p.lanczos_seconds, p.speedup, p.lanczos_matvecs,
                   p.rel_eig_diff, i + 1 < solver.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"fd_stream\": [\n");
    for (size_t i = 0; i < streams.size(); ++i) {
      const StreamPoint& p = streams[i];
      std::fprintf(
          f,
          "    {\"ell\": %zu, \"d\": %zu, \"rows\": %zu, "
          "\"jacobi_rows_per_sec\": %.0f, \"lanczos_rows_per_sec\": %.0f, "
          "\"speedup\": %.3f, \"jacobi_shrinks\": %zu, "
          "\"lanczos_shrinks\": %zu, \"cov_err_jacobi\": %.10f, "
          "\"cov_err_lanczos\": %.10f, \"abs_err_diff\": %.3e}%s\n",
          p.ell, p.d, p.rows, p.jacobi_rows_per_sec, p.lanczos_rows_per_sec,
          p.speedup, p.jacobi_shrinks, p.lanczos_shrinks, p.cov_err_jacobi,
          p.cov_err_lanczos, p.abs_err_diff,
          i + 1 < streams.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n");
  });

  // Hard gates (every scale): the partial solver must agree with the full
  // decomposition, and the Lanczos-backed FD must leave the covariance
  // error unchanged within 1e-8.
  for (const auto& p : solver) DMT_CHECK_LT(p.rel_eig_diff, 1e-9);
  for (const auto& p : streams) {
    DMT_CHECK_EQ(p.jacobi_shrinks, p.lanczos_shrinks);
    DMT_CHECK_LT(p.abs_err_diff, 1e-8);
  }
  return 0;
}
