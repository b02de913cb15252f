// Serial-vs-parallel speedup and site-count scaling of the multi-site
// simulation engine.
//
// Two sections:
//
//  - Fixed workloads: a heavy-hitter stream (P2, hash-map bound site
//    phase) routed uniformly and routed skewed (half of all arrivals at
//    site 0, which lands on lane 0's home range — the case a work-stealing
//    scheduler would target), and a matrix row stream (MP1, FD compute
//    bound), through stream::SimulationDriver at 1/2/4/8 requested
//    threads, verifying bit-identical results across counts (messages +
//    the coordinator's total-weight / Frobenius fingerprint) and reporting
//    wall-clock speedups. Each configuration runs kReps times, with the
//    thread counts interleaved: repetition r runs every count once,
//    starting at a rotated position, so a slow stretch of a shared host
//    lands on all counts alike. Each point records the median and the
//    min-max of its runs; speedups are ratios of medians, and
//    `separates_from_serial` says whether the point's min-max range is
//    clear of the 1-thread range. A speedup whose range overlaps the
//    serial one is not resolved by the recording.
//
//  - m-sweep: P2 at m = 10^3..10^5 sites (10^4 at DMT_SCALE=small, 10^6
//    at DMT_SCALE=paper) with
//    ~10 arrivals per site, exercising the home-range scheduler
//    where the old one-task-per-site driver drowned (m pool round-trips
//    and O(m) drain scans per window). Each point records the driver's
//    SchedulerStats counters — windows, non-empty lane ranges
//    (batches_reserved) and mean sites per range.
//
// Every run records both the requested and the effective thread count
// (ResolveThreadCount clamps at 4x the hardware threads); on a
// single-hardware-thread machine the JSON carries a degraded_environment
// marker and speedups are not meaningful.
//
// Usage: parallel_sites [output.json] [--threads ignored]
//   DMT_SCALE=small|default|paper scales the stream lengths.
// The JSON is printed to stdout and, when a path is given, written there
// (the repo keeps a checked-in BENCH_parallel_sites.json).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/synthetic_matrix.h"
#include "data/zipf.h"
#include "hh/p2_threshold.h"
#include "matrix/mp1_batched_fd.h"
#include "stream/router.h"
#include "stream/simulation_driver.h"
#include "util/check.h"
#include "util/env.h"
#include "util/timer.h"

namespace {

using namespace dmt;

// Repetitions per fixed-workload configuration.
constexpr size_t kReps = 9;

struct RunPoint {
  size_t threads;               // requested
  size_t effective_threads;     // after DMT_THREADS / clamp resolution
  std::vector<double> seconds;  // wall clock of each repetition
  uint64_t messages;
  double fingerprint;  // coordinator total weight (bit-compared)
  stream::SchedulerStats sched;

  double Median() const {
    std::vector<double> s = seconds;
    std::sort(s.begin(), s.end());
    const size_t h = s.size() / 2;
    return s.size() % 2 == 1 ? s[h] : 0.5 * (s[h - 1] + s[h]);
  }
  double Min() const {
    return *std::min_element(seconds.begin(), seconds.end());
  }
  double Max() const {
    return *std::max_element(seconds.begin(), seconds.end());
  }
};

// Coordinator-state fingerprint, bit-compared across thread counts (the
// full bit-identity guarantee is covered by tests/simulation_driver_test
// and tests/parallel_scale_test).
inline double Fingerprint(const hh::P2Threshold& p) {
  return p.EstimateTotalWeight();
}
inline double Fingerprint(const matrix::MP1BatchedFD& p) {
  return p.coordinator_frobenius();
}

// Times one driver configuration per thread count, `reps` times each,
// interleaved: repetition r runs every count once, starting at count
// r mod |thread_counts|. Every run must reproduce the first run's
// messages and fingerprint bit for bit.
template <typename MakeProtocol, typename Items>
std::vector<RunPoint> TimeRuns(MakeProtocol make,
                               const std::vector<size_t>& sites,
                               const Items& items,
                               const std::vector<size_t>& thread_counts,
                               size_t chunk, size_t reps) {
  std::vector<RunPoint> points;
  for (size_t t : thread_counts) {
    points.push_back(RunPoint{t, 0, {}, 0, 0.0, {}});
  }
  const size_t n = points.size();
  for (size_t rep = 0; rep < reps; ++rep) {
    for (size_t j = 0; j < n; ++j) {
      RunPoint& point = points[(j + rep) % n];
      auto protocol = make();
      stream::SimulationOptions opt;
      opt.threads = point.threads;
      opt.chunk_elements = chunk;
      stream::SimulationDriver driver(opt);
      Timer timer;
      driver.Run(&protocol, sites, items);
      point.seconds.push_back(timer.Seconds());
      point.effective_threads = driver.threads();
      point.messages = protocol.comm_stats().total();
      point.fingerprint = Fingerprint(protocol);
      point.sched = driver.scheduler_stats();
      const RunPoint& first = points[0];  // ran first: rep 0, j 0
      DMT_CHECK_EQ(point.messages, first.messages);
      DMT_CHECK_EQ(point.fingerprint, first.fingerprint);
    }
  }
  return points;
}

void PrintSched(FILE* f, const stream::SchedulerStats& s) {
  std::fprintf(f,
               "\"windows\": %llu, \"batches_reserved\": %llu, "
               "\"mean_sites_per_batch\": %.1f",
               static_cast<unsigned long long>(s.windows),
               static_cast<unsigned long long>(s.batches_reserved),
               s.mean_sites_per_batch());
}

void PrintWorkload(FILE* f, const char* name, size_t n, size_t m,
                   const std::vector<RunPoint>& points, bool last) {
  std::fprintf(f, "    \"%s\": {\n", name);
  std::fprintf(f, "      \"stream_len\": %zu,\n", n);
  std::fprintf(f, "      \"num_sites\": %zu,\n", m);
  std::fprintf(f, "      \"messages\": %llu,\n",
               static_cast<unsigned long long>(points[0].messages));
  std::fprintf(f, "      \"runs\": [\n");
  const RunPoint& serial = points[0];
  for (size_t i = 0; i < points.size(); ++i) {
    const RunPoint& p = points[i];
    std::fprintf(f,
                 "        {\"threads\": %zu, \"effective_threads\": %zu, "
                 "\"reps\": %zu, \"median_s\": %.6f, \"min_s\": %.6f, "
                 "\"max_s\": %.6f, \"speedup\": %.3f, ",
                 p.threads, p.effective_threads, p.seconds.size(),
                 p.Median(), p.Min(), p.Max(),
                 serial.Median() / p.Median());
    if (i > 0) {
      const bool separates =
          p.Max() < serial.Min() || p.Min() > serial.Max();
      std::fprintf(f, "\"separates_from_serial\": %s, ",
                   separates ? "true" : "false");
    }
    PrintSched(f, p.sched);
    std::fprintf(f, "}%s\n", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "      ]\n");
  std::fprintf(f, "    }%s\n", last ? "" : ",");
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

  const std::vector<size_t> thread_counts = {1, 2, 4, 8};

  // Heavy hitters: P2 over a Zipf stream (hash-map bound site phase).
  const size_t hh_n = static_cast<size_t>(ScaledN(4000000, 2, 40));
  const size_t hh_m = 32;
  data::ZipfianStream z(100000, 1.5, 100.0, 21);
  std::vector<stream::WeightedUpdate> items(hh_n);
  for (auto& it : items) {
    data::WeightedItem w = z.Next();
    it = stream::WeightedUpdate{w.element, w.weight};
  }
  const auto hh_runs = [&](stream::RoutingPolicy policy) {
    stream::Router router(hh_m, policy, 22);
    const std::vector<size_t> sites = stream::AssignSites(&router, hh_n);
    return TimeRuns([&] { return hh::P2Threshold(hh_m, 0.01); }, sites,
                    items, thread_counts, 8192, kReps);
  };
  const std::vector<RunPoint> hh_points =
      hh_runs(stream::RoutingPolicy::kUniform);
  const std::vector<RunPoint> hh_skewed_points =
      hh_runs(stream::RoutingPolicy::kSkewed);

  // Matrix: MP1 over a PAMAP-like row stream (FD compute bound site phase).
  const size_t mx_n = static_cast<size_t>(ScaledN(120000, 2, 40));
  const size_t mx_m = 32;
  data::SyntheticMatrixGenerator gen(
      data::SyntheticMatrixGenerator::PamapLike(23));
  std::vector<std::vector<double>> rows(mx_n);
  for (auto& r : rows) r = gen.Next();
  stream::Router mx_router(mx_m, stream::RoutingPolicy::kUniform, 24);
  const std::vector<size_t> mx_sites = stream::AssignSites(&mx_router, mx_n);

  const std::vector<RunPoint> mx_points =
      TimeRuns([&] { return matrix::MP1BatchedFD(mx_m, 0.1); }, mx_sites,
               rows, thread_counts, 4096, kReps);

  // m-sweep: P2 at large site counts, ~10 arrivals per site. This is the
  // regime the home-range scheduler exists for; the counters show
  // how the windows were carved up. Timings use one rep (the sweep is
  // about scaling shape and counters, not best-case latency) and threads
  // {1, 4} — enough to see the scheduler operate without multiplying the
  // bench time.
  // Scale gates the sweep's upper end: small (CI smoke) stops at 10^4,
  // default records through 10^5 (the regime the scheduler targets),
  // paper adds the 10^6 point.
  const Scale scale = GetScale();
  std::vector<size_t> sweep_ms = {1000, 10000};
  if (scale != Scale::kSmall) sweep_ms.push_back(100000);
  if (scale == Scale::kPaper) sweep_ms.push_back(1000000);
  const std::vector<size_t> sweep_threads = {1, 4};

  struct SweepPoint {
    size_t m;
    size_t n;
    std::vector<RunPoint> runs;
  };
  std::vector<SweepPoint> sweep;
  for (size_t m : sweep_ms) {
    const size_t n = 10 * m;
    data::ZipfianStream sz(100000, 1.5, 100.0, 31);
    std::vector<stream::WeightedUpdate> sitems(n);
    for (auto& it : sitems) {
      data::WeightedItem w = sz.Next();
      it = stream::WeightedUpdate{w.element, w.weight};
    }
    stream::Router sr(m, stream::RoutingPolicy::kUniform, 32);
    const std::vector<size_t> ssites = stream::AssignSites(&sr, n);

    sweep.push_back(SweepPoint{
        m, n,
        TimeRuns([&] { return hh::P2Threshold(m, 0.05); }, ssites, sitems,
                 sweep_threads, 8192, /*reps=*/1)});
  }

  bench::EmitBenchJson(out_path, "parallel_sites", [&](FILE* f) {
    std::fprintf(f, "  \"determinism_check\": \"messages and coordinator "
                 "fingerprint identical across thread counts\",\n");
    std::fprintf(f, "  \"workloads\": {\n");
    PrintWorkload(f, "hh_p2_zipf", hh_n, hh_m, hh_points, false);
    PrintWorkload(f, "hh_p2_skewed", hh_n, hh_m, hh_skewed_points, false);
    PrintWorkload(f, "matrix_mp1_pamap", mx_n, mx_m, mx_points, true);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"m_sweep\": [\n");
    for (size_t i = 0; i < sweep.size(); ++i) {
      const SweepPoint& p = sweep[i];
      std::fprintf(f, "    {\"num_sites\": %zu, \"stream_len\": %zu, "
                   "\"messages\": %llu, \"runs\": [\n",
                   p.m, p.n,
                   static_cast<unsigned long long>(p.runs[0].messages));
      for (size_t j = 0; j < p.runs.size(); ++j) {
        std::fprintf(f,
                     "      {\"threads\": %zu, \"effective_threads\": %zu, "
                     "\"seconds\": %.6f, ",
                     p.runs[j].threads, p.runs[j].effective_threads,
                     p.runs[j].Median());
        PrintSched(f, p.runs[j].sched);
        std::fprintf(f, "}%s\n", j + 1 < p.runs.size() ? "," : "");
      }
      std::fprintf(f, "    ]}%s\n", i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n");
  });
  return 0;
}
