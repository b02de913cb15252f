// Table 1: raw err and msg numbers on PAMAP (k=30) and MSD (k=50).
//
// Paper setup: PAMAP N=629,250 d=44 (low rank), MSD N=300,000 d=90 (high
// rank), eps = 0.1, m = 50. Methods: P1, P2, P3wor, P3wr, and the two
// ship-everything baselines FD (ell = k) and SVD (best rank-k).
//
// Runs on the real matrices when they are available:
//   table1_matrix_raw --data-dir <dir>                  # both datasets
//   table1_matrix_raw --dataset pamap --data-dir <dir>  # one of them
// Each dataset falls back to its synthetic stand-in (with a log line)
// when its files are absent. See docs/DATASETS.md / tools/fetch_datasets.sh.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

void RunDataset(int argc, char** argv, const std::string& name,
                size_t paper_n, int64_t default_div, size_t k) {
  using namespace dmt;
  using namespace dmt::bench;

  std::unique_ptr<data::DatasetSource> source =
      OpenBenchDataset(argc, argv, name);

  MatrixExperimentConfig cfg;
  cfg.source = source.get();
  cfg.stream_len = static_cast<size_t>(
      ScaledN(static_cast<int64_t>(paper_n), default_div, default_div * 10));
  if (source->info().rows != 0) {
    cfg.stream_len = std::min<size_t>(
        cfg.stream_len, static_cast<size_t>(source->info().rows));
  }
  cfg.num_sites = 50;
  cfg.threads = ParseThreadsFlag(argc, argv);
  cfg.chunk_elements = stream::ParseChunkArg(argc, argv, cfg.chunk_elements);

  std::vector<MatrixProtocolSpec> specs{
      {"mp1", 0.1, k},   {"mp2", 0.1, k}, {"mp3wor", 0.1, k},
      {"mp3wr", 0.1, k}, {"fd", 0.1, k},  {"svd", 0.1, k}};
  auto rows = RunMatrixExperiment(cfg, specs);

  TablePrinter t("Table 1: " + source->info().name + ", k=" +
                 std::to_string(k) + ", N=" + std::to_string(cfg.stream_len) +
                 ", d=" + std::to_string(source->dim()) + ", eps=0.1, m=50");
  t.SetHeader({"Method", "err", "msg"});
  for (const auto& r : rows) {
    t.AddRow({r.protocol, Fmt(r.err), Fmt(r.messages)});
  }
  t.Print();
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using dmt::data::ParseDatasetArgs;
  std::printf("Table 1: distributed matrix tracking, raw numbers\n\n");
  // --dataset selects one matrix; the default runs the paper's both.
  const std::string selected = ParseDatasetArgs(argc, argv).name;
  const bool pamap_like = selected != "msd" && selected != "synthetic-msd";
  const bool msd_like = selected != "pamap" && selected != "synthetic-pamap";
  if (pamap_like) RunDataset(argc, argv, "pamap", 629250, 3, 30);
  if (msd_like) RunDataset(argc, argv, "msd", 300000, 3, 50);
  return 0;
}
