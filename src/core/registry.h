// The protocol registry: one row per protocol the library builds, keyed by
// the lower-case name the wire handshake uses. Every protocol's name()
// returns its row's name.
#ifndef DMT_CORE_REGISTRY_H_
#define DMT_CORE_REGISTRY_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "hh/hh_protocol.h"
#include "matrix/matrix_protocol.h"

namespace dmt {

/// One registry row. Exactly one of the two factories is set, and which
/// one gives the protocol's family. Factories read (m, ε, seed) from the
/// config; only the centralized baselines read `dim` and `k`.
struct ProtocolInfo {
  const char* name;
  /// True when the error guarantee holds on every run, not with a
  /// probability over the seed.
  bool deterministic;
  std::unique_ptr<hh::HeavyHitterProtocol> (*make_hh)(const TrackerConfig&);
  std::unique_ptr<matrix::MatrixTrackingProtocol> (*make_matrix)(
      const TrackerConfig&, size_t dim, size_t k);
};

/// Every row, in table order.
const std::vector<ProtocolInfo>& Protocols();

/// The row named `name`, or nullptr.
const ProtocolInfo* FindProtocol(const std::string& name);

/// Builds the heavy-hitter protocol `name`. Returns nullptr when the name
/// is unknown or names a matrix protocol.
std::unique_ptr<hh::HeavyHitterProtocol> MakeHhProtocol(
    const std::string& name, const TrackerConfig& config);

/// Builds the matrix protocol `name` over rows of dimension `dim`, with
/// target rank `k`. Returns nullptr when the name is unknown or names a
/// heavy-hitter protocol, and for "fd" without `k` or "svd" without `k`
/// and `dim`; no other protocol reads them.
std::unique_ptr<matrix::MatrixTrackingProtocol> MakeMatrixProtocol(
    const std::string& name, const TrackerConfig& config, size_t dim = 0,
    size_t k = 0);

}  // namespace dmt

#endif  // DMT_CORE_REGISTRY_H_
