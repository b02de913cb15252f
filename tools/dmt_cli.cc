// dmt_cli — run any tracking protocol over CSV, registry datasets, or
// synthetic data.
//
// Examples:
//   dmt_cli --protocol=mp2 --eps=0.1 --sites=50 --synthetic=pamap --rows=100000
//   dmt_cli --protocol=mp3wor --input=features.csv --eps=0.05
//   dmt_cli --protocol=mp2 --dataset=pamap --data-dir=./data
//   dmt_cli --protocol=p2 --eps=0.001 --rows=1000000 --phi=0.05
//
// --protocol takes a core/registry.h name, and the name's family picks the
// run. A matrix protocol reports the continuous approximation error
// against the exact covariance at checkpoints; a heavy-hitter protocol
// prints the final heavy hitters with true vs tracked weights.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/registry.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "data/synthetic_matrix.h"
#include "data/zipf.h"
#include "matrix/error.h"
#include "stream/router.h"
#include "util/env.h"

namespace {

struct Args {
  std::string protocol = "mp2";      // a registry name (core/registry.h)
  std::string input;                 // CSV path (matrix mode)
  std::string dataset;               // registry name (matrix mode)
  std::string data_dir;              // raw files / .dmtbin caches
  std::string synthetic = "pamap";   // pamap | msd (matrix mode)
  double eps = 0.1;
  size_t sites = 50;
  size_t rows = 100000;
  double phi = 0.05;
  double beta = 1000.0;
  uint64_t universe = 10000;
  uint64_t seed = 1;
};

bool ParseArg(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  return false;
}

Args Parse(int argc, char** argv) {
  Args a;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    if (ParseArg(argv[i], "--protocol", &v)) a.protocol = v;
    else if (ParseArg(argv[i], "--input", &v)) a.input = v;
    else if (ParseArg(argv[i], "--dataset", &v)) a.dataset = v;
    else if (ParseArg(argv[i], "--data-dir", &v)) a.data_dir = v;
    else if (ParseArg(argv[i], "--synthetic", &v)) a.synthetic = v;
    else if (ParseArg(argv[i], "--eps", &v)) a.eps = std::atof(v.c_str());
    else if (ParseArg(argv[i], "--sites", &v)) a.sites = std::atoi(v.c_str());
    else if (ParseArg(argv[i], "--rows", &v)) a.rows = std::atoll(v.c_str());
    else if (ParseArg(argv[i], "--phi", &v)) a.phi = std::atof(v.c_str());
    else if (ParseArg(argv[i], "--beta", &v)) a.beta = std::atof(v.c_str());
    else if (ParseArg(argv[i], "--universe", &v))
      a.universe = std::atoll(v.c_str());
    else if (ParseArg(argv[i], "--seed", &v)) a.seed = std::atoll(v.c_str());
    else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return a;
}

int RunMatrix(const Args& args,
              dmt::matrix::MatrixTrackingProtocol* protocol) {
  dmt::stream::Router router(args.sites,
                             dmt::stream::RoutingPolicy::kUniform,
                             args.seed + 1);

  // Data source: registry dataset or CSV file if given, else a synthetic
  // generator.
  dmt::linalg::Matrix csv;
  std::unique_ptr<dmt::data::SyntheticMatrixGenerator> gen;
  size_t n = args.rows;
  if (!args.dataset.empty()) {
    dmt::data::DatasetSpec spec;
    spec.name = args.dataset;
    // Same default as the benches: --data-dir, else DMT_DATA_DIR.
    spec.data_dir = args.data_dir.empty()
                        ? dmt::GetEnvString("DMT_DATA_DIR", "")
                        : args.data_dir;
    spec.max_rows = args.rows;
    spec.seed = args.seed + 2;
    std::string error;
    auto source = dmt::data::OpenDataset(spec, &error);
    if (source == nullptr) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    csv = source->Take(args.rows);
    if (csv.empty()) {
      std::fprintf(stderr, "dataset %s served no rows\n",
                   args.dataset.c_str());
      return 1;
    }
    n = csv.rows();
  } else if (!args.input.empty()) {
    csv = dmt::data::LoadCsv(args.input);
    if (csv.empty()) {
      std::fprintf(stderr, "could not read any rows from %s\n",
                   args.input.c_str());
      return 1;
    }
    n = csv.rows();
  } else {
    auto gen_cfg = args.synthetic == "msd"
                       ? dmt::data::SyntheticMatrixGenerator::MsdLike(
                             args.seed + 2)
                       : dmt::data::SyntheticMatrixGenerator::PamapLike(
                             args.seed + 2);
    gen = std::make_unique<dmt::data::SyntheticMatrixGenerator>(gen_cfg);
  }

  const size_t dim = csv.empty() ? gen->config().dim : csv.cols();
  dmt::matrix::CovarianceTracker truth(dim);
  const size_t checkpoint = std::max<size_t>(1, n / 5);
  std::printf("matrix %s: %zu rows x %zu cols, m=%zu, eps=%g\n\n",
              args.protocol.c_str(), n, dim, args.sites, args.eps);
  std::printf("%12s  %12s  %12s\n", "rows", "err", "messages");
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row =
        csv.empty() ? gen->Next() : csv.RowVector(i);
    truth.AddRow(row);
    protocol->ProcessRow(router.NextSite(), row);
    if ((i + 1) % checkpoint == 0 || i + 1 == n) {
      std::printf("%12zu  %12.6f  %12llu\n", i + 1,
                  dmt::matrix::CovarianceError(truth,
                                               protocol->CoordinatorGram()),
                  static_cast<unsigned long long>(
                      protocol->comm_stats().total()));
    }
  }
  std::printf("\nnaive would send %zu messages; protocol sent %llu\n", n,
              static_cast<unsigned long long>(
                  protocol->comm_stats().total()));
  return 0;
}

int RunHh(const Args& args, dmt::hh::HeavyHitterProtocol* protocol) {
  dmt::stream::Router router(args.sites,
                             dmt::stream::RoutingPolicy::kUniform,
                             args.seed + 1);
  dmt::data::ZipfianStream z(args.universe, 2.0, args.beta, args.seed + 2);
  dmt::data::ExactWeights truth;

  std::printf("hh %s: N=%zu, m=%zu, eps=%g, phi=%g, beta=%g\n\n",
              args.protocol.c_str(), args.rows, args.sites, args.eps,
              args.phi, args.beta);
  for (size_t i = 0; i < args.rows; ++i) {
    dmt::data::WeightedItem item = z.Next();
    truth.Observe(item);
    protocol->Process(router.NextSite(), item.element, item.weight);
  }

  std::printf("%-10s %-16s %-16s\n", "element", "weight(true)",
              "weight(tracked)");
  for (uint64_t e : protocol->HeavyHitters(args.phi, args.eps)) {
    std::printf("%-10llu %-16.1f %-16.1f\n",
                static_cast<unsigned long long>(e), truth.Weight(e),
                protocol->EstimateElementWeight(e));
  }
  std::printf("\nmessages: %llu of %zu naive (%.2f%%)\n",
              static_cast<unsigned long long>(protocol->comm_stats().total()),
              args.rows,
              100.0 * static_cast<double>(protocol->comm_stats().total()) /
                  static_cast<double>(args.rows));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  const dmt::TrackerConfig config{args.sites, args.eps, args.seed};
  if (auto hh = dmt::MakeHhProtocol(args.protocol, config)) {
    return RunHh(args, hh.get());
  }
  if (auto matrix = dmt::MakeMatrixProtocol(args.protocol, config)) {
    return RunMatrix(args, matrix.get());
  }
  // fd and svd need a rank k, which dmt_cli does not take.
  std::fprintf(stderr, "cannot run protocol %s; dmt_cli runs:",
               args.protocol.c_str());
  for (const dmt::ProtocolInfo& row : dmt::Protocols()) {
    if (dmt::MakeHhProtocol(row.name, config) != nullptr ||
        dmt::MakeMatrixProtocol(row.name, config) != nullptr) {
      std::fprintf(stderr, " %s", row.name);
    }
  }
  std::fprintf(stderr, "\n");
  return 2;
}
