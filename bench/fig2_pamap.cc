// Figure 2 (a)-(d): matrix tracking on the PAMAP (low rank) stream.
//
//   (a) err vs eps   (b) messages vs eps   (eps in {5e-3 ... 5e-1}, m=50)
//   (c) messages vs m   (d) err vs m       (m in {10..100}, eps=0.1)
//
// Runs on the real PAMAP matrix when it is available:
//   fig2_pamap --dataset pamap --data-dir <dir> [--threads N] [--chunk N]
// Falls back to the synthetic PAMAP-like stream (with a log line) when
// the data directory is absent; `--dataset synthetic` forces that. See
// docs/DATASETS.md for the download/layout and tools/fetch_datasets.sh.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dmt;
  using namespace dmt::bench;

  std::unique_ptr<data::DatasetSource> source =
      OpenBenchDataset(argc, argv, "pamap");

  MatrixExperimentConfig base;
  base.source = source.get();
  base.stream_len = static_cast<size_t>(ScaledN(629250, 6, 60));
  if (source->info().rows != 0) {
    base.stream_len = std::min<size_t>(
        base.stream_len, static_cast<size_t>(source->info().rows));
  }
  base.num_sites = 50;
  base.threads = ParseThreadsFlag(argc, argv);
  base.chunk_elements =
      stream::ParseChunkArg(argc, argv, base.chunk_elements);

  std::printf("Figure 2: PAMAP stream, N=%zu, d=%zu\n\n", base.stream_len,
              source->dim());

  const std::vector<double> eps_values{5e-3, 1e-2, 5e-2, 1e-1, 5e-1};
  TablePrinter err_eps("Figure 2(a): err vs eps (m=50)");
  TablePrinter msg_eps("Figure 2(b): messages vs eps (m=50)");
  err_eps.SetHeader({"eps", "P1", "P2", "P3"});
  msg_eps.SetHeader({"eps", "P1", "P2", "P3"});
  for (double eps : eps_values) {
    std::vector<MatrixProtocolSpec> specs{
        {"mp1", eps, 0}, {"mp2", eps, 0}, {"mp3wor", eps, 0}};
    auto rows = RunMatrixExperiment(base, specs);
    err_eps.AddRow(
        {Fmt(eps), Fmt(rows[0].err), Fmt(rows[1].err), Fmt(rows[2].err)});
    msg_eps.AddRow({Fmt(eps), Fmt(rows[0].messages), Fmt(rows[1].messages),
                    Fmt(rows[2].messages)});
  }
  err_eps.Print();
  std::printf("\n");
  msg_eps.Print();
  std::printf("\n");

  TablePrinter msg_m("Figure 2(c): messages vs sites (eps=0.1)");
  TablePrinter err_m("Figure 2(d): err vs sites (eps=0.1)");
  msg_m.SetHeader({"m", "P1", "P2", "P3"});
  err_m.SetHeader({"m", "P1", "P2", "P3"});
  for (size_t m : {10u, 25u, 50u, 75u, 100u}) {
    MatrixExperimentConfig cfg = base;
    cfg.num_sites = m;
    std::vector<MatrixProtocolSpec> specs{
        {"mp1", 0.1, 0}, {"mp2", 0.1, 0}, {"mp3wor", 0.1, 0}};
    auto rows = RunMatrixExperiment(cfg, specs);
    msg_m.AddRow({Fmt(static_cast<uint64_t>(m)), Fmt(rows[0].messages),
                  Fmt(rows[1].messages), Fmt(rows[2].messages)});
    err_m.AddRow({Fmt(static_cast<uint64_t>(m)), Fmt(rows[0].err),
                  Fmt(rows[1].err), Fmt(rows[2].err)});
  }
  msg_m.Print();
  std::printf("\n");
  err_m.Print();
  return 0;
}
