// Public configuration types for the tracker facades.
#ifndef DMT_CORE_CONFIG_H_
#define DMT_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace dmt {

/// Configuration shared by both tracker facades.
struct TrackerConfig {
  size_t num_sites = 8;    ///< m: number of distributed sites
  double epsilon = 0.1;    ///< target error fraction
  uint64_t seed = 1;       ///< seed for randomized protocols
};

/// Matrix tracker configuration.
struct MatrixTrackerConfig : TrackerConfig {
  /// A matrix row of core/registry.h: mp1, mp2, mp3wor, mp3wr or mp4.
  std::string protocol = "mp2";
};

/// Heavy-hitters tracker configuration.
struct HhTrackerConfig : TrackerConfig {
  /// A heavy-hitter row of core/registry.h: p1, p2, p3wor, p3wr, p4 or
  /// exact.
  std::string protocol = "p2";
};

}  // namespace dmt

#endif  // DMT_CORE_CONFIG_H_
