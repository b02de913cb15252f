// Shared run configuration and deterministic workload construction for the
// wire binaries (tools/dmt_site, tools/dmt_coordinator), the
// transport-equivalence tests and pipebench's wire workload.
//
// Every process of one distributed run parses the same flags and calls
// MakeWireWorkload with the same config; because stream generation, site
// assignment and the window schedule are all pure functions of the config
// (seeded generators, stream::WindowEnds), each process independently
// reconstructs the identical global stream — no data travels out-of-band.
#ifndef DMT_NET_WORKLOAD_H_
#define DMT_NET_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/remote.h"
#include "stream/simulation_driver.h"

namespace dmt {
namespace net {

/// One distributed run's parameters (every process must agree on these).
struct WireRunConfig {
  std::string protocol = "p1";  ///< "p1" (HH) or "mp2" (matrix)
  size_t num_sites = 4;
  size_t n = 20000;             ///< stream length (items or rows)
  size_t chunk = 1024;          ///< arrivals per synchronization window
  double eps = 0.1;
  uint64_t seed = 42;
  // HH workload (protocol == "p1"): Zipfian stream parameters.
  uint64_t universe = 16384;
  double skew = 2.0;
  double beta = 4.0;
  // Matrix workload (protocol == "mp2").
  size_t dim = 24;
  // Transport endpoint.
  std::string host = "127.0.0.1";
  uint16_t port = 0;            ///< 0 = ephemeral (coordinator side)
  std::string port_file;        ///< publish/poll the bound port here
  // Role-specific.
  size_t site = SIZE_MAX;       ///< dmt_site --site
  bool check = false;           ///< dmt_coordinator --check (oracle compare)
};

/// Parses the shared flag vocabulary (--protocol, --sites, --n, --chunk,
/// --eps, --seed, --universe, --skew, --beta, --dim, --host, --port,
/// --port-file, --site, --check). Unknown flags are ignored so role-only
/// flags can coexist.
WireRunConfig ParseWireArgs(int argc, char** argv);

/// The materialized global stream: exactly one of items/rows is populated,
/// plus the site assignment and the oracle's window schedule.
struct WireWorkload {
  std::vector<stream::WeightedUpdate> items;  ///< protocol == "p1"
  std::vector<std::vector<double>> rows;      ///< protocol == "mp2"
  std::vector<size_t> sites;                  ///< arrival i -> site
  std::vector<size_t> window_ends;            ///< stream::WindowEnds
};

/// Builds the workload deterministically from the config (same config in
/// two processes -> bit-identical streams, assignment and schedule).
WireWorkload MakeWireWorkload(const WireRunConfig& config);

/// A protocol instance bundled with its wire adapter; exactly one of
/// hh/mp is set. `adapter` is null when config.protocol is unknown.
struct WireProtocol {
  std::unique_ptr<hh::P1BatchedMG> hh;
  std::unique_ptr<matrix::MP2SvdThreshold> mp;
  std::unique_ptr<WireAdapter> adapter;
};

/// Instantiates the configured protocol and its adapter.
WireProtocol MakeWireProtocol(const WireRunConfig& config);

/// The site-update callback RunWireSite needs: applies stream arrival
/// `idx` to `protocol` as site `site`. `workload` and `protocol` must
/// outlive the returned function.
std::function<void(uint32_t)> MakeSiteUpdater(const WireWorkload& workload,
                                              WireProtocol* protocol,
                                              size_t site);

/// Runs the same workload through the in-process SimulationDriver — the
/// deterministic oracle a wire run is compared against.
WireProtocol RunOracle(const WireRunConfig& config,
                       const WireWorkload& workload);

/// Compares two instances' final coordinator state and CommStats exactly
/// (doubles by bit pattern). Returns "" when identical, else a
/// human-readable description of the first difference.
std::string DiffWireProtocols(const WireRunConfig& config,
                              const WireProtocol& a, const WireProtocol& b);

}  // namespace net
}  // namespace dmt

#endif  // DMT_NET_WORKLOAD_H_
