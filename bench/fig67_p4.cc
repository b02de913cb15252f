// Figures 6 and 7 (appendix): why matrix protocol P4 does not work.
//
// P4 is compared against P1/P2/P3 on both data regimes: err vs eps and
// err vs number of sites. The expected shape: P4's error does not track
// eps at all — it typically exceeds every other protocol and the eps
// target itself (on the low-rank stream dramatically so).
#include <cstdio>
#include <vector>

#include "bench_util.h"

namespace {

void RunDataset(const char* fig, const char* label,
                dmt::data::SyntheticMatrixConfig gen, size_t paper_n) {
  using namespace dmt;
  using namespace dmt::bench;

  MatrixExperimentConfig base;
  base.generator = gen;
  base.stream_len = static_cast<size_t>(ScaledN(
      static_cast<int64_t>(paper_n), 6, 60));
  base.num_sites = 50;

  TablePrinter err_eps(std::string(fig) + "(a): err vs eps, " + label +
                       " (m=50, N=" + std::to_string(base.stream_len) + ")");
  err_eps.SetHeader({"eps", "P1", "P2", "P3", "P4"});
  for (double eps : {1e-2, 5e-2, 1e-1, 5e-1}) {
    std::vector<MatrixProtocolSpec> specs{
        {"mp1", eps, 0}, {"mp2", eps, 0}, {"mp3wor", eps, 0}, {"mp4", eps, 0}};
    auto rows = RunMatrixExperiment(base, specs);
    err_eps.AddRow({Fmt(eps), Fmt(rows[0].err), Fmt(rows[1].err),
                    Fmt(rows[2].err), Fmt(rows[3].err)});
  }
  err_eps.Print();
  std::printf("\n");

  TablePrinter err_m(std::string(fig) + "(b): err vs sites, " + label +
                     " (eps=0.1)");
  err_m.SetHeader({"m", "P1", "P2", "P3", "P4"});
  for (size_t m : {10u, 50u, 100u}) {
    MatrixExperimentConfig cfg = base;
    cfg.num_sites = m;
    std::vector<MatrixProtocolSpec> specs{
        {"mp1", 0.1, 0}, {"mp2", 0.1, 0}, {"mp3wor", 0.1, 0}, {"mp4", 0.1, 0}};
    auto rows = RunMatrixExperiment(cfg, specs);
    err_m.AddRow({Fmt(static_cast<uint64_t>(m)), Fmt(rows[0].err),
                  Fmt(rows[1].err), Fmt(rows[2].err), Fmt(rows[3].err)});
  }
  err_m.Print();
  std::printf("\n");
}

}  // namespace

int main() {
  using dmt::data::SyntheticMatrixGenerator;
  std::printf("Figures 6/7 (appendix): matrix protocol P4 vs the rest\n\n");
  RunDataset("Figure 6", "PAMAP-like",
             SyntheticMatrixGenerator::PamapLike(42), 629250);
  RunDataset("Figure 7", "MSD-like", SyntheticMatrixGenerator::MsdLike(43),
             300000);
  return 0;
}
