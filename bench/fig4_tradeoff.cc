// Figure 4 (a),(b): communication vs error trade-off, eps tuned per run.
//
// For each protocol a sweep of eps produces one (err, msg) pair per run;
// the paper plots messages against achieved error. P1 wins at the
// smallest errors (at near-naive communication), P2/P3 win when orders of
// magnitude less communication is required.
#include <cstdio>
#include <vector>

#include "bench_util.h"

namespace {

void RunDataset(const char* label, dmt::data::SyntheticMatrixConfig gen,
                size_t paper_n, size_t threads, size_t chunk) {
  using namespace dmt;
  using namespace dmt::bench;

  MatrixExperimentConfig cfg;
  cfg.generator = gen;
  cfg.stream_len = static_cast<size_t>(ScaledN(
      static_cast<int64_t>(paper_n), 6, 60));
  cfg.num_sites = 50;
  cfg.threads = threads;
  cfg.chunk_elements = chunk;

  TablePrinter t(std::string("Figure 4: messages vs err, ") + label +
                 " (N=" + std::to_string(cfg.stream_len) + ")");
  t.SetHeader({"protocol", "eps", "err", "messages"});
  // One shared pass per eps drives all three protocols on identical data.
  for (double eps : {5e-3, 1e-2, 5e-2, 1e-1, 5e-1}) {
    std::vector<MatrixProtocolSpec> specs{
        {"mp1", eps, 0}, {"mp2", eps, 0}, {"mp3wor", eps, 0}};
    auto rows = RunMatrixExperiment(cfg, specs);
    for (const auto& r : rows) {
      t.AddRow({r.protocol, Fmt(eps), Fmt(r.err), Fmt(r.messages)});
    }
  }
  t.Print();
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using dmt::data::SyntheticMatrixGenerator;
  const size_t threads = dmt::bench::ParseThreadsFlag(argc, argv);
  const size_t chunk = dmt::stream::ParseChunkArg(argc, argv, 4096);
  std::printf("Figure 4: communication cost vs approximation error\n\n");
  RunDataset("(a) PAMAP-like", SyntheticMatrixGenerator::PamapLike(42),
             629250, threads, chunk);
  RunDataset("(b) MSD-like", SyntheticMatrixGenerator::MsdLike(43), 300000,
             threads, chunk);
  return 0;
}
