// Immutable sketch snapshots — the unit of publication of the serving
// layer (src/serve).
//
// A Snapshot is a self-contained, deeply-copied image of the coordinator's
// queryable state at one synchronization-window boundary, plus the
// precomputed per-snapshot query structures the QueryEngine answers from:
//
//  * heavy hitters — every tracked element with its estimate, held twice:
//    sorted by (weight desc, element asc) with prefix weights (top-k and
//    top-k-mass queries are one slice / one array read), and sorted by
//    element (point lookups are one binary search);
//  * matrix — the coordinator sketch B with its factorization B = UΣVᵀ
//    (σ descending, V's columns the right singular vectors), so low-rank
//    projection and top-k direction queries never decompose at read time.
//    The protocol supplies σ and V when it already holds them (MP1 right
//    after an FD shrink); otherwise the builder solves for them.
//
// Snapshots are built on the ingestion thread at window boundaries
// (serve::ServingCoordinator) and published through serve::SnapshotStore;
// after construction they are never mutated, which is what makes lock-free
// concurrent reads safe. Nothing in a Snapshot aliases live protocol or
// sketch state — builders deep-copy by contract (the regression tests pin
// a snapshot, mutate the source, and re-verify the checksum).
#ifndef DMT_SERVE_SNAPSHOT_H_
#define DMT_SERVE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "hh/hh_protocol.h"
#include "linalg/matrix.h"
#include "matrix/matrix_protocol.h"

namespace dmt {
namespace serve {

/// One tracked element with its coordinator estimate.
struct HHEntry {
  uint64_t element = 0;
  double weight = 0.0;
};

/// Immutable queryable image of the coordinator at one window boundary.
/// `window_index` 0 is the pre-first-window empty snapshot; real windows
/// publish 1, 2, ... in schedule order.
struct Snapshot {
  uint64_t window_index = 0;
  /// Stream arrivals (items or rows) absorbed up to this boundary.
  uint64_t items_ingested = 0;

  // --- Heavy-hitter section (has_hh) ---
  bool has_hh = false;
  /// Sorted by (weight desc, element asc) — the top-k order.
  std::vector<HHEntry> by_weight;
  /// The same entries sorted by element — the point-lookup index.
  std::vector<HHEntry> by_element;
  /// prefix_weight[i] = sum of by_weight[0..i].weight (top-k mass).
  std::vector<double> prefix_weight;
  /// Coordinator estimate of the total stream weight W.
  double total_weight = 0.0;

  // --- Matrix section (has_matrix) ---
  bool has_matrix = false;
  /// The coordinator sketch B (deep copy; rows stacked).
  linalg::Matrix sketch;
  /// Singular values of B, descending (length min(rows, cols); empty for
  /// an empty sketch).
  std::vector<double> sigma;
  /// d x r matrix whose columns are B's right singular vectors (the V of
  /// B = UΣVᵀ); empty for an empty sketch.
  linalg::Matrix right_vectors;
  /// ‖B‖²_F of the snapshot sketch.
  double sketch_sq_frob = 0.0;
};

/// Builds the pre-first-window snapshot: no sections, everything empty.
/// Every query on it returns the documented empty-state result.
std::unique_ptr<const Snapshot> BuildEmptySnapshot();

/// Exports a heavy-hitter protocol's coordinator state. Must be called
/// between synchronization rounds (same contract as comm_stats()).
std::unique_ptr<const Snapshot> BuildSnapshot(
    const hh::HeavyHitterProtocol& protocol, uint64_t window_index,
    uint64_t items_ingested);

/// Exports a matrix protocol's coordinator sketch with its factorization
/// (MatrixTrackingProtocol::ExportSnapshotFactors), and factors the
/// sketch itself only when the protocol holds none. Must be called
/// between synchronization rounds.
std::unique_ptr<const Snapshot> BuildSnapshot(
    const matrix::MatrixTrackingProtocol& protocol, uint64_t window_index,
    uint64_t items_ingested);

/// Canonical byte serialization: every field in a fixed order, integers
/// and doubles as little-endian fixed-width images (doubles bit-exact).
/// Two snapshots serialize identically iff they are bit-identical — the
/// torn-read detector of the concurrency tests.
void SerializeSnapshot(const Snapshot& snapshot, std::vector<uint8_t>* out);

/// FNV-1a (64-bit) over SerializeSnapshot's bytes.
uint64_t SnapshotChecksum(const Snapshot& snapshot);

}  // namespace serve
}  // namespace dmt

#endif  // DMT_SERVE_SNAPSHOT_H_
