// Ablation benches for design choices called out in DESIGN.md:
//
//  1. MP2's lazy check guard (trace guard plus leading-pair
//     certificate): how many eigendecompositions the guard performs
//     versus the paper's literal per-row svd formulation (the guard sends
//     identical messages — verified in tests — at a fraction of the
//     decompositions).
//  2. MP4 basis re-alignment: the appendix's sketched fix (periodic FD
//     re-alignment) versus plain P4 — error repaired vs extra messages.
//  3. MP3 sampling modes: without- vs with-replacement at equal eps.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "matrix/mp2_svd_threshold.h"
#include "matrix/mp4_experimental.h"
#include "util/timer.h"

namespace {

using namespace dmt;
using namespace dmt::bench;

void AblationMp2TraceGuard() {
  const size_t n = static_cast<size_t>(ScaledN(200000, 2, 20));
  const size_t m = 50;
  TablePrinter t(
      "Ablation 1: MP2 trace guard plus leading-pair certificate "
      "(PAMAP-like stream)");
  t.SetHeader({"eps", "rows", "eigendecompositions", "decomp/row",
               "messages", "err"});
  for (double eps : {5e-2, 1e-1, 5e-1}) {
    matrix::MP2SvdThreshold p(m, eps);
    data::SyntheticMatrixGenerator gen(
        data::SyntheticMatrixGenerator::PamapLike(42));
    stream::Router router(m, stream::RoutingPolicy::kUniform, 7);
    matrix::CovarianceTracker truth(gen.config().dim);
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> row = gen.Next();
      truth.AddRow(row);
      p.ProcessRow(router.NextSite(), row);
    }
    t.AddRow({Fmt(eps), Fmt(static_cast<uint64_t>(n)),
              Fmt(static_cast<uint64_t>(p.decomposition_count())),
              Fmt(static_cast<double>(p.decomposition_count()) /
                  static_cast<double>(n)),
              Fmt(p.comm_stats().total()),
              Fmt(matrix::CovarianceError(truth, p.CoordinatorGram()))});
  }
  t.Print();
  std::printf("\n");
}

void AblationMp4Realignment() {
  const size_t n = static_cast<size_t>(ScaledN(100000, 2, 20));
  const size_t m = 50;
  const double eps = 0.1;
  TablePrinter t("Ablation 2: MP4 basis re-alignment (PAMAP-like stream)");
  t.SetHeader({"variant", "err", "messages"});
  for (size_t realign : {0u, 8u, 4u, 2u}) {
    matrix::MP4Options opts;
    opts.realign_rounds = realign;
    matrix::MP4Experimental p(m, eps, 3, opts);
    data::SyntheticMatrixGenerator gen(
        data::SyntheticMatrixGenerator::PamapLike(42));
    stream::Router router(m, stream::RoutingPolicy::kUniform, 9);
    matrix::CovarianceTracker truth(gen.config().dim);
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> row = gen.Next();
      truth.AddRow(row);
      p.ProcessRow(router.NextSite(), row);
    }
    std::string name = realign == 0
                           ? "plain (paper appendix C)"
                           : "realign every " + std::to_string(realign) +
                                 " rounds";
    t.AddRow({name, Fmt(matrix::CovarianceError(truth, p.CoordinatorGram())),
              Fmt(p.comm_stats().total())});
  }
  t.Print();
  std::printf("\n");
}

void AblationMp3Modes() {
  const size_t n = static_cast<size_t>(ScaledN(200000, 2, 20));
  TablePrinter t("Ablation 3: MP3 without- vs with-replacement sampling");
  t.SetHeader({"eps", "P3wor err", "P3wor msg", "P3wr err", "P3wr msg"});
  MatrixExperimentConfig cfg;
  cfg.generator = data::SyntheticMatrixGenerator::PamapLike(42);
  cfg.stream_len = n;
  cfg.num_sites = 50;
  for (double eps : {5e-2, 1e-1, 2e-1}) {
    std::vector<MatrixProtocolSpec> specs{{"mp3wor", eps, 0},
                                          {"mp3wr", eps, 0}};
    auto rows = RunMatrixExperiment(cfg, specs);
    t.AddRow({Fmt(eps), Fmt(rows[0].err), Fmt(rows[0].messages),
              Fmt(rows[1].err), Fmt(rows[1].messages)});
  }
  t.Print();
}

}  // namespace

int main() {
  std::printf("Ablation benches (design choices from DESIGN.md)\n\n");
  AblationMp2TraceGuard();
  AblationMp4Realignment();
  AblationMp3Modes();
  return 0;
}
