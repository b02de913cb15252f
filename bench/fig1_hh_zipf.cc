// Figure 1 (a)-(f): distributed weighted heavy hitters on Zipfian data.
//
// Paper setup: 10^7 Zipf(skew=2) elements, weights Unif[1, beta=1000],
// m = 50 sites, phi = 0.05, eps in {5e-4, 1e-3, 5e-3, 1e-2, 5e-2}.
// DMT_SCALE=paper reproduces the full 10^7; the default runs 10^6 so the
// whole suite finishes in minutes with the same qualitative shape.
//
//   (a) recall vs eps        (b) precision vs eps
//   (c) avg err of true HH vs eps   (d) #messages vs eps
//   (e) err vs messages (the same runs re-keyed)
//   (f) messages vs beta at fixed eps
#include <cstdio>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dmt;
  using namespace dmt::bench;

  HhExperimentConfig base;
  base.stream_len = static_cast<size_t>(ScaledN(10000000, 10, 100));
  base.num_sites = 50;
  base.beta = 1000.0;
  base.phi = 0.05;
  // Site-phase parallelism; results are thread-count invariant (but do
  // depend on --chunk, which is part of the simulated schedule).
  base.threads = ParseThreadsFlag(argc, argv);
  base.chunk_elements =
      dmt::stream::ParseChunkArg(argc, argv, base.chunk_elements);

  const std::vector<std::string> protos{"p1", "p2", "p3wor", "p4"};
  const std::vector<double> eps_values{5e-4, 1e-3, 5e-3, 1e-2, 5e-2};

  std::printf("Figure 1: weighted heavy hitters, Zipf skew=2, N=%zu, "
              "m=%zu, beta=%.0f, phi=%.2f\n\n",
              base.stream_len, base.num_sites, base.beta, base.phi);

  TablePrinter recall("Figure 1(a): recall vs eps");
  TablePrinter precision("Figure 1(b): precision vs eps");
  TablePrinter err("Figure 1(c): avg rel err of true HH vs eps");
  TablePrinter msg("Figure 1(d): messages vs eps");
  TablePrinter tradeoff("Figure 1(e): err vs messages");
  for (auto* t : {&recall, &precision, &err, &msg}) {
    t->SetHeader({"eps", "P1", "P2", "P3", "P4"});
  }
  tradeoff.SetHeader({"protocol", "eps", "messages", "err"});

  for (double eps : eps_values) {
    HhExperimentConfig cfg = base;
    auto rows = RunHhExperiment(cfg, protos,
                                std::vector<double>(protos.size(), eps));
    std::vector<std::string> r{Fmt(eps)}, p{Fmt(eps)}, e{Fmt(eps)},
        m{Fmt(eps)};
    for (const auto& row : rows) {
      r.push_back(Fmt(row.recall));
      p.push_back(Fmt(row.precision));
      e.push_back(Fmt(row.avg_rel_err));
      m.push_back(Fmt(row.messages));
      tradeoff.AddRow(
          {row.protocol, Fmt(eps), Fmt(row.messages), Fmt(row.avg_rel_err)});
    }
    recall.AddRow(r);
    precision.AddRow(p);
    err.AddRow(e);
    msg.AddRow(m);
  }
  recall.Print();
  std::printf("\n");
  precision.Print();
  std::printf("\n");
  err.Print();
  std::printf("\n");
  msg.Print();
  std::printf("\n");
  tradeoff.Print();
  std::printf("\n");

  // Figure 1(f): messages vs beta at fixed eps (the paper tunes each
  // protocol to err ~ 0.1; a fixed moderate eps shows the same robustness
  // of the message count to the weight upper bound).
  TablePrinter beta_table("Figure 1(f): messages vs beta (eps = 0.01)");
  beta_table.SetHeader({"beta", "P1", "P2", "P3", "P4"});
  for (double beta : {1.0, 10.0, 100.0, 1000.0, 10000.0}) {
    HhExperimentConfig cfg = base;
    cfg.beta = beta;
    cfg.stream_len = base.stream_len / 4;  // 5 extra passes; keep it quick
    auto rows = RunHhExperiment(
        cfg, protos, std::vector<double>(protos.size(), 0.01));
    std::vector<std::string> r{Fmt(beta)};
    for (const auto& row : rows) r.push_back(Fmt(row.messages));
    beta_table.AddRow(r);
  }
  beta_table.Print();
  return 0;
}
