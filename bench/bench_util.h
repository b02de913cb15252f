// Shared drivers for the figure/table reproduction harnesses.
//
// Every harness follows the paper's evaluation recipe: generate one stream,
// feed all protocols the identical (site, element) sequence, then report
// the metrics of Section 6 — recall / precision / avg relative error of
// true heavy hitters / message counts for the HH experiments, and
// covariance error / message counts for the matrix experiments.
//
// Streams are materialized once and protocols run through the parallel
// stream::SimulationDriver: site-local sketch work uses all configured
// threads (--threads flag / DMT_THREADS env, default hardware concurrency)
// while results stay bit-identical across thread counts.
#ifndef DMT_BENCH_BENCH_UTIL_H_
#define DMT_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "data/dataset.h"
#include "data/synthetic_matrix.h"
#include "data/zipf.h"
#include "linalg/kernels.h"
#include "matrix/error.h"
#include "stream/router.h"
#include "stream/simulation_driver.h"
#include "util/check.h"
#include "util/env.h"
#include "util/table_printer.h"

namespace dmt {
namespace bench {

/// Emits a BENCH_*.json artifact the way the repo tracks perf
/// trajectories. The harness prints the standard envelope — bench name,
/// the machine's detected hardware-thread count (a single-core recording
/// gets the degraded_environment marker, so it is machine-checkable),
/// the DMT_SCALE in effect and the instruction set the linalg kernels
/// dispatched to — then `body(f)`
/// appends the bench-specific fields (two-space indented, no trailing
/// comma on the last one) before the closing brace. The JSON goes to
/// stdout and, when `path` is non-null, to that file too (the repo keeps
/// the checked-in BENCH_*.json up to date).
template <typename Body>
inline void EmitBenchJson(const char* path, const char* bench_name,
                          Body body) {
  // dmt-lint: allow(determinism-thread-fp): recorded as metadata only.
  const unsigned hw = std::thread::hardware_concurrency();
  const bool degraded = hw <= 1;
  if (degraded) {
    std::fprintf(stderr,
                 "warning: single hardware thread detected — parallel "
                 "speedups in this recording are not meaningful\n");
  }
  const auto emit = [&](FILE* f) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"%s\",\n", bench_name);
    std::fprintf(f, "  \"hardware_threads\": %u,\n", hw);
    if (degraded) {
      std::fprintf(f, "  \"degraded_environment\": \"single hardware "
                   "thread — speedups not meaningful\",\n");
    }
    std::fprintf(f, "  \"scale\": \"%s\",\n",
                 GetEnvString("DMT_SCALE", "default").c_str());
    std::fprintf(f, "  \"kernel_isa\": \"%s\",\n",
                 linalg::kernels::SelectedIsa());
    body(f);
    std::fprintf(f, "}\n");
  };
  emit(stdout);
  if (path != nullptr) {
    FILE* f = std::fopen(path, "w");
    DMT_CHECK(f != nullptr);
    emit(f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", path);
  }
}

/// Parses a `--threads N` / `--threads=N` flag; 0 (flag absent) lets the
/// driver resolve DMT_THREADS / hardware concurrency.
inline size_t ParseThreadsFlag(int argc, char** argv) {
  return stream::ParseThreadsArg(argc, argv);
}

// ---------------------------------------------------------------------
// Heavy hitters.
// ---------------------------------------------------------------------

struct HhMetrics {
  std::string protocol;
  double recall = 0.0;
  double precision = 0.0;
  double avg_rel_err = 0.0;  // of true heavy hitters
  uint64_t messages = 0;
};

struct HhExperimentConfig {
  size_t stream_len = 1000000;
  size_t num_sites = 50;
  uint64_t universe = 10000;
  double skew = 2.0;
  double beta = 1000.0;
  double phi = 0.05;
  uint64_t seed = 1;
  /// Site-phase worker threads (0 = DMT_THREADS / hardware concurrency).
  size_t threads = 0;
  /// Arrivals between coordinator synchronization rounds.
  size_t chunk_elements = 8192;
};

/// Runs all `protocol_names` (core/registry.h names) over one shared
/// Zipfian stream with the given per-protocol epsilon values (parallel
/// array), and reports the paper's four HH metrics for each.
inline std::vector<HhMetrics> RunHhExperiment(
    const HhExperimentConfig& cfg,
    const std::vector<std::string>& protocol_names,
    const std::vector<double>& epsilons) {
  std::vector<std::unique_ptr<hh::HeavyHitterProtocol>> protocols;
  for (size_t i = 0; i < protocol_names.size(); ++i) {
    protocols.push_back(MakeHhProtocol(
        protocol_names[i], {cfg.num_sites, epsilons[i], cfg.seed + 100 + i}));
    DMT_CHECK(protocols.back() != nullptr);
  }

  // Materialize the stream + assignment once; every protocol then runs
  // over the identical (site, element) sequence on the parallel driver.
  data::ZipfianStream z(cfg.universe, cfg.skew, cfg.beta, cfg.seed);
  stream::Router router(cfg.num_sites, stream::RoutingPolicy::kUniform,
                        cfg.seed + 1);
  data::ExactWeights truth;
  std::vector<stream::WeightedUpdate> items(cfg.stream_len);
  for (size_t i = 0; i < cfg.stream_len; ++i) {
    data::WeightedItem item = z.Next();
    truth.Observe(item);
    items[i] = stream::WeightedUpdate{item.element, item.weight};
  }
  const std::vector<size_t> sites =
      stream::AssignSites(&router, cfg.stream_len);

  stream::SimulationOptions driver_opt;
  driver_opt.threads = cfg.threads;
  driver_opt.chunk_elements = cfg.chunk_elements;
  stream::SimulationDriver driver(driver_opt);
  for (auto& p : protocols) driver.Run(p.get(), sites, items);

  const auto truth_hh = truth.HeavyHitters(cfg.phi);
  std::vector<HhMetrics> out;
  for (size_t i = 0; i < protocols.size(); ++i) {
    const auto& p = protocols[i];
    HhMetrics m;
    m.protocol = protocol_names[i];
    m.messages = p->comm_stats().total();

    auto reported = p->HeavyHitters(cfg.phi, epsilons[i]);
    size_t hits = 0;
    for (uint64_t e : truth_hh) {
      if (std::find(reported.begin(), reported.end(), e) != reported.end()) {
        ++hits;
      }
    }
    m.recall = truth_hh.empty()
                   ? 1.0
                   : static_cast<double>(hits) / truth_hh.size();
    m.precision = reported.empty()
                      ? 1.0
                      : static_cast<double>(hits) / reported.size();
    double err_sum = 0.0;
    for (uint64_t e : truth_hh) {
      const double w = truth.Weight(e);
      err_sum += std::abs(p->EstimateElementWeight(e) - w) / w;
    }
    m.avg_rel_err = truth_hh.empty() ? 0.0 : err_sum / truth_hh.size();
    out.push_back(m);
  }
  return out;
}

// ---------------------------------------------------------------------
// Matrix tracking.
// ---------------------------------------------------------------------

struct MatrixMetrics {
  std::string protocol;
  double err = 0.0;  // ||A^T A - B^T B||_2 / ||A||_F^2
  uint64_t messages = 0;
};

struct MatrixExperimentConfig {
  /// Synthetic generator, used when `source` is null (the pre-dataset
  /// harness path, still taken by fig4/fig67/ablation).
  data::SyntheticMatrixConfig generator;
  /// Optional dataset source (data/dataset.h). When set, rows are
  /// streamed from it — each protocol pass Reset()s the source and
  /// re-feeds it through the driver's streaming entry point, so the
  /// stream is never materialized whole. `generator` is then ignored
  /// except that `stream_len` still caps the row count.
  data::DatasetSource* source = nullptr;
  size_t stream_len = 100000;
  size_t num_sites = 50;
  uint64_t seed = 1;
  /// Site-phase worker threads (0 = DMT_THREADS / hardware concurrency).
  size_t threads = 0;
  /// Rows between coordinator synchronization rounds.
  size_t chunk_elements = 4096;
};

struct MatrixProtocolSpec {
  std::string name;  // a matrix name in core/registry.h
  double eps = 0.1;
  size_t k = 30;  // only for the fd / svd baselines
};

/// Runs all `specs` over one shared row stream — synthetic
/// (cfg.generator) or a real dataset (cfg.source) — and reports the
/// paper's matrix metrics for each.
///
/// Both paths feed every protocol the identical (site, row) sequence:
/// the synthetic path materializes the stream once; the dataset path
/// replays the source per protocol (Reset() replays are bit-identical by
/// contract) through the driver's streaming entry point, with a fresh
/// equally-seeded router per pass, so only one synchronization window is
/// ever in memory.
inline std::vector<MatrixMetrics> RunMatrixExperiment(
    const MatrixExperimentConfig& cfg,
    const std::vector<MatrixProtocolSpec>& specs) {
  const size_t dim = cfg.source != nullptr ? cfg.source->dim()
                                           : cfg.generator.dim;
  std::vector<std::unique_ptr<matrix::MatrixTrackingProtocol>> protocols;
  for (size_t i = 0; i < specs.size(); ++i) {
    protocols.push_back(MakeMatrixProtocol(
        specs[i].name, {cfg.num_sites, specs[i].eps, cfg.seed + 200 + i}, dim,
        specs[i].k));
    DMT_CHECK(protocols.back() != nullptr);
  }

  stream::SimulationOptions driver_opt;
  driver_opt.threads = cfg.threads;
  driver_opt.chunk_elements = cfg.chunk_elements;
  stream::SimulationDriver driver(driver_opt);

  matrix::CovarianceTracker truth(dim);
  if (cfg.source != nullptr) {
    // Truth pass, then one streaming replay per protocol. Same 0 -> 1
    // coercion the driver applies to chunk_elements, and the same
    // unbounded-source guard: stream_len == 0 means "the whole dataset",
    // which needs a finite one.
    DMT_CHECK(cfg.stream_len > 0 || cfg.source->info().rows > 0);
    const size_t chunk = cfg.chunk_elements == 0 ? 1 : cfg.chunk_elements;
    cfg.source->Reset();
    linalg::Matrix window;
    size_t fed = 0;
    while (cfg.stream_len == 0 || fed < cfg.stream_len) {
      const size_t want = cfg.stream_len == 0
                              ? chunk
                              : std::min(chunk, cfg.stream_len - fed);
      window.ClearRows();
      const size_t got = cfg.source->NextChunk(want, &window);
      if (got == 0) break;
      truth.AddRows(window);
      fed += got;
    }
    for (auto& p : protocols) {
      cfg.source->Reset();
      stream::Router router(cfg.num_sites, stream::RoutingPolicy::kUniform,
                            cfg.seed + 2);
      const size_t protocol_fed = driver.Run(p.get(), &router, cfg.source, fed);
      DMT_CHECK_EQ(protocol_fed, fed);
    }
  } else {
    data::SyntheticMatrixGenerator gen(cfg.generator);
    stream::Router router(cfg.num_sites, stream::RoutingPolicy::kUniform,
                          cfg.seed + 2);
    std::vector<std::vector<double>> rows(cfg.stream_len);
    for (size_t i = 0; i < cfg.stream_len; ++i) {
      rows[i] = gen.Next();
      truth.AddRow(rows[i]);
    }
    const std::vector<size_t> sites =
        stream::AssignSites(&router, cfg.stream_len);
    for (auto& p : protocols) driver.Run(p.get(), sites, rows);
  }

  std::vector<MatrixMetrics> out;
  for (size_t i = 0; i < protocols.size(); ++i) {
    MatrixMetrics m;
    m.protocol = specs[i].name;
    m.err = matrix::CovarianceError(truth, protocols[i]->CoordinatorGram());
    m.messages = protocols[i]->comm_stats().total();
    out.push_back(m);
  }
  return out;
}

/// Opens the dataset a figure/table bench was pointed at (--dataset /
/// --data-dir / --max-rows, DMT_DATA_DIR) and prints one header line
/// saying what is actually being served. `default_name` is the bench's
/// real dataset ("pamap" / "msd"); a bare `--dataset synthetic` is
/// mapped to the matched synthetic stand-in so fig3 never silently runs
/// d=44 data. Exits with a message on unknown names or unusable files.
inline std::unique_ptr<data::DatasetSource> OpenBenchDataset(
    int argc, char** argv, const std::string& default_name) {
  data::DatasetSpec defaults;
  defaults.name = default_name;
  data::DatasetSpec spec = data::ParseDatasetArgs(argc, argv, defaults);
  if (spec.name == "synthetic" && default_name == "msd") {
    spec.name = "synthetic-msd";
  }
  std::string error;
  std::unique_ptr<data::DatasetSource> source =
      data::OpenDataset(spec, &error);
  if (source == nullptr) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    std::exit(2);
  }
  const data::DatasetInfo& info = source->info();
  std::printf("dataset: %s (%s%s) — %llu rows x %zu cols, beta=%g\n",
              info.name.c_str(), info.origin.c_str(),
              info.synthetic_fallback ? ", fallback for missing real data"
                                      : "",
              static_cast<unsigned long long>(info.rows), info.dim,
              info.beta);
  return source;
}

/// Formats a count compactly for table cells.
inline std::string Fmt(uint64_t v) { return std::to_string(v); }
inline std::string Fmt(double v) { return TablePrinter::FormatDouble(v); }

}  // namespace bench
}  // namespace dmt

#endif  // DMT_BENCH_BENCH_UTIL_H_
