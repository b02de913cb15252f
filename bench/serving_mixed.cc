// Mixed read/write throughput of the serving layer: reader threads
// hammer SnapshotStore::Acquire + QueryEngine queries flat out while the
// parallel SimulationDriver ingests at full rate and the
// ServingCoordinator publishes a fresh snapshot at every window boundary.
//
// Two workloads, matching the serving test harnesses:
//
//  - hh_p2_zipf: P2 over a Zipfian weighted stream; each query op pins a
//    snapshot and runs TopK(8) + ElementWeight + TotalWeight.
//  - matrix_mp1_pamap: MP1 over a PAMAP-like row stream; each query op
//    runs a covariance quadratic form + TopSingularValues(3) off the
//    precomputed factorization.
//
// Each workload records three ingest timings — no serving attached,
// publish-only (snapshot export cost on the coordinator thread), and
// mixed (readers live) — plus the read side: total query ops, queries/sec
// over the mixed run, and p50/p99/max per-op latency from every-8th-op
// samples. Readers are wait-free by design, so the interesting numbers
// are publish_overhead (snapshot export, paid by ingestion) and
// reader_slowdown (cache pressure only; ~1.0 means readers really don't
// block the write path).
//
// Usage: serving_mixed [output.json] [--readers N] [--threads N]
//   DMT_SCALE=small|default|paper scales the stream lengths.
// The JSON goes to stdout and, when a path is given, to that file (the
// repo keeps a checked-in BENCH_serving_mixed.json).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "data/synthetic_matrix.h"
#include "data/zipf.h"
#include "hh/p2_threshold.h"
#include "matrix/mp1_batched_fd.h"
#include "serve/query_engine.h"
#include "serve/serving_coordinator.h"
#include "serve/snapshot.h"
#include "serve/snapshot_store.h"
#include "stream/router.h"
#include "stream/simulation_driver.h"
#include "util/check.h"
#include "util/env.h"
#include "util/timer.h"

namespace {

using namespace dmt;

struct ReaderStats {
  uint64_t query_ops = 0;
  std::vector<double> sample_us;  // every-8th-op latencies
};

// One query op: pin the current snapshot, answer a fixed query mix, drop
// the pin. The mix touches both precomputed structures (sorted HH list,
// factored sketch) so the op cost reflects real serving work, not just
// the acquire fast path.
void QueryOp(serve::SnapshotReader* reader) {
  serve::SnapshotRef ref = reader->Acquire();
  const serve::Snapshot& snap = *ref;
  serve::QueryEngine engine(&snap);
  if (snap.has_hh) {
    (void)engine.TopK(8);
    (void)engine.ElementWeight(42);
    (void)engine.TotalWeight();
  }
  if (snap.has_matrix && !snap.sketch.empty()) {
    std::vector<double> x(snap.sketch.cols(), 0.0);
    x[0] = 1.0;
    (void)engine.CovarianceQuadraticForm(x);
    (void)engine.TopSingularValues(3);
  }
}

// Runs query ops until `done`. The first op completes before the reader
// counts itself into `started`, the start latch the mixed run waits on,
// so every reader has served at least one query however fast ingestion
// finishes.
void ReaderLoop(serve::SnapshotStore* store, std::atomic<size_t>* started,
                std::atomic<bool>* done, ReaderStats* stats) {
  constexpr size_t kMaxSamples = 1u << 20;
  serve::SnapshotReader reader(store);
  stats->sample_us.reserve(kMaxSamples);
  uint64_t iter = 0;
  do {
    if ((iter++ & 7) == 0 && stats->sample_us.size() < kMaxSamples) {
      Timer t;
      QueryOp(&reader);
      stats->sample_us.push_back(t.Seconds() * 1e6);
    } else {
      QueryOp(&reader);
    }
    if (++stats->query_ops == 1) {
      started->fetch_add(1, std::memory_order_release);
    }
  } while (!done->load(std::memory_order_acquire));
}

double Percentile(const std::vector<double>& sorted, double frac) {
  if (sorted.empty()) return 0.0;
  return sorted[static_cast<size_t>(frac *
                                    static_cast<double>(sorted.size() - 1))];
}

struct WorkloadResult {
  size_t stream_len = 0;
  size_t num_sites = 0;
  size_t effective_threads = 0;
  uint64_t windows = 0;
  double ingest_no_serving_s = 0.0;
  double ingest_publish_only_s = 0.0;
  double ingest_mixed_s = 0.0;
  uint64_t query_ops = 0;
  size_t samples = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

// Runs one workload three times on fresh protocols: ingest-only,
// publish-only, then mixed with `readers` query threads. `attach` hooks
// the fresh protocol into the serving coordinator (AttachHH /
// AttachMatrix pick the snapshot builder).
template <typename MakeProtocol, typename AttachFn, typename Items>
WorkloadResult RunWorkload(MakeProtocol make, AttachFn attach,
                           const std::vector<size_t>& sites,
                           const Items& items, size_t num_sites,
                           size_t threads, size_t chunk, size_t readers) {
  WorkloadResult res;
  res.stream_len = items.size();
  res.num_sites = num_sites;
  stream::SimulationOptions opt;
  opt.threads = threads;
  opt.chunk_elements = chunk;

  {
    auto protocol = make();
    stream::SimulationDriver driver(opt);
    Timer t;
    driver.Run(&protocol, sites, items);
    res.ingest_no_serving_s = t.Seconds();
    res.effective_threads = driver.threads();
  }

  {
    auto protocol = make();
    stream::SimulationDriver driver(opt);
    serve::SnapshotStore store;
    serve::ServingCoordinator serving(&store);
    attach(&serving, &driver, &protocol);
    Timer t;
    driver.Run(&protocol, sites, items);
    res.ingest_publish_only_s = t.Seconds();
    res.windows = serving.windows_published();
    serving.Detach();
  }

  {
    auto protocol = make();
    stream::SimulationDriver driver(opt);
    serve::SnapshotStore store;
    serve::ServingCoordinator serving(&store);
    attach(&serving, &driver, &protocol);

    std::atomic<size_t> started{0};
    std::atomic<bool> done{false};
    std::vector<ReaderStats> stats(readers);
    std::vector<std::thread> pool;
    pool.reserve(readers);
    for (size_t r = 0; r < readers; ++r) {
      pool.emplace_back(ReaderLoop, &store, &started, &done, &stats[r]);
    }
    // Start latch: ingestion may finish in milliseconds, before a reader
    // thread is even scheduled.
    while (started.load(std::memory_order_acquire) < readers) {
      std::this_thread::yield();
    }
    Timer t;
    driver.Run(&protocol, sites, items);
    res.ingest_mixed_s = t.Seconds();
    done.store(true, std::memory_order_release);
    for (auto& th : pool) th.join();
    serving.Detach();

    std::vector<double> all;
    for (const ReaderStats& s : stats) {
      res.query_ops += s.query_ops;
      all.insert(all.end(), s.sample_us.begin(), s.sample_us.end());
    }
    std::sort(all.begin(), all.end());
    res.samples = all.size();
    res.qps = static_cast<double>(res.query_ops) / res.ingest_mixed_s;
    res.p50_us = Percentile(all, 0.50);
    res.p99_us = Percentile(all, 0.99);
    res.max_us = all.empty() ? 0.0 : all.back();
  }
  return res;
}

void PrintWorkload(FILE* f, const char* name, const WorkloadResult& r,
                   bool last) {
  std::fprintf(f, "    \"%s\": {\n", name);
  std::fprintf(f, "      \"stream_len\": %zu,\n", r.stream_len);
  std::fprintf(f, "      \"num_sites\": %zu,\n", r.num_sites);
  std::fprintf(f, "      \"effective_threads\": %zu,\n",
               r.effective_threads);
  std::fprintf(f, "      \"windows_published\": %llu,\n",
               static_cast<unsigned long long>(r.windows));
  std::fprintf(f,
               "      \"ingest_seconds\": {\"no_serving\": %.6f, "
               "\"publish_only\": %.6f, \"mixed\": %.6f},\n",
               r.ingest_no_serving_s, r.ingest_publish_only_s,
               r.ingest_mixed_s);
  std::fprintf(f, "      \"publish_overhead\": %.3f,\n",
               r.ingest_publish_only_s / r.ingest_no_serving_s);
  std::fprintf(f, "      \"reader_slowdown\": %.3f,\n",
               r.ingest_mixed_s / r.ingest_publish_only_s);
  std::fprintf(f, "      \"query_ops\": %llu,\n",
               static_cast<unsigned long long>(r.query_ops));
  std::fprintf(f, "      \"queries_per_sec\": %.0f,\n", r.qps);
  std::fprintf(f,
               "      \"latency_us\": {\"p50\": %.2f, \"p99\": %.2f, "
               "\"max\": %.2f, \"samples\": %zu}\n",
               r.p50_us, r.p99_us, r.max_us, r.samples);
  std::fprintf(f, "    }%s\n", last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = nullptr;
  size_t readers = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--readers" && i + 1 < argc) {
      readers = static_cast<size_t>(std::atol(argv[++i]));
      continue;
    }
    if (arg.rfind("--readers=", 0) == 0) {
      readers = static_cast<size_t>(std::atol(arg.c_str() + 10));
      continue;
    }
    if (arg == "--threads") {
      ++i;  // space-separated flag value is not the output path
      continue;
    }
    if (arg[0] != '-') out_path = argv[i];
  }
  DMT_CHECK_GE(readers, 1u);
  const size_t threads = bench::ParseThreadsFlag(argc, argv);

  // Heavy hitters: P2 over a Zipf stream.
  const size_t hh_n = static_cast<size_t>(ScaledN(2000000, 2, 40));
  const size_t hh_m = 16;
  data::ZipfianStream z(100000, 1.5, 100.0, 41);
  std::vector<stream::WeightedUpdate> items(hh_n);
  for (auto& it : items) {
    data::WeightedItem w = z.Next();
    it = stream::WeightedUpdate{w.element, w.weight};
  }
  stream::Router hh_router(hh_m, stream::RoutingPolicy::kUniform, 42);
  const std::vector<size_t> hh_sites = stream::AssignSites(&hh_router, hh_n);

  const WorkloadResult hh = RunWorkload(
      [&] { return hh::P2Threshold(hh_m, 0.05); },
      [](serve::ServingCoordinator* serving, stream::SimulationDriver* d,
         hh::P2Threshold* p) { serving->AttachHH(d, p); },
      hh_sites, items, hh_m, threads, 8192, readers);

  // Matrix: MP1 over a PAMAP-like row stream.
  const size_t mx_n = static_cast<size_t>(ScaledN(150000, 2, 40));
  const size_t mx_m = 16;
  data::SyntheticMatrixGenerator gen(
      data::SyntheticMatrixGenerator::PamapLike(43));
  std::vector<std::vector<double>> rows(mx_n);
  for (auto& r : rows) r = gen.Next();
  stream::Router mx_router(mx_m, stream::RoutingPolicy::kUniform, 44);
  const std::vector<size_t> mx_sites = stream::AssignSites(&mx_router, mx_n);

  const WorkloadResult mx = RunWorkload(
      [&] { return matrix::MP1BatchedFD(mx_m, 0.1); },
      [](serve::ServingCoordinator* serving, stream::SimulationDriver* d,
         matrix::MP1BatchedFD* p) { serving->AttachMatrix(d, p); },
      mx_sites, rows, mx_m, threads, 4096, readers);

  // Smoke gate: the mixed run must actually have served queries (the
  // start latch guarantees one per reader) and published every window.
  DMT_CHECK_GT(hh.query_ops, 0u);
  DMT_CHECK_GT(mx.query_ops, 0u);
  DMT_CHECK_GT(hh.windows, 0u);
  DMT_CHECK_GT(mx.windows, 0u);

  bench::EmitBenchJson(out_path, "serving_mixed", [&](FILE* f) {
    std::fprintf(f, "  \"readers\": %zu,\n", readers);
    std::fprintf(f, "  \"query_mix\": \"pin + TopK(8)/ElementWeight/"
                 "TotalWeight (hh) or quadratic form/TopSingularValues(3) "
                 "(matrix) + unpin\",\n");
    std::fprintf(f, "  \"workloads\": {\n");
    PrintWorkload(f, "hh_p2_zipf", hh, false);
    PrintWorkload(f, "matrix_mp1_pamap", mx, true);
    std::fprintf(f, "  }\n");
  });
  return 0;
}
