#include "serve/snapshot.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/svd.h"
#include "util/check.h"
#include "util/codec.h"

namespace dmt {
namespace serve {
namespace {

// Precomputes the HH query structures from element-ascending entries.
void FinishHHSection(std::vector<HHEntry> by_element, Snapshot* snap) {
  snap->has_hh = true;
  snap->by_element = std::move(by_element);
  snap->by_weight = snap->by_element;
  std::sort(snap->by_weight.begin(), snap->by_weight.end(),
            [](const HHEntry& a, const HHEntry& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.element < b.element;
            });
  snap->prefix_weight.resize(snap->by_weight.size());
  double running = 0.0;
  for (size_t i = 0; i < snap->by_weight.size(); ++i) {
    running += snap->by_weight[i].weight;
    snap->prefix_weight[i] = running;
  }
}

// Fills the snapshot's σ / V query structures of the sketch B = UΣVᵀ.
// Queries never need U. `factors` is the protocol's own factorization of
// B when it holds one (MatrixTrackingProtocol::ExportSnapshotFactors:
// MP1's FD sketch right after a shrink), taken as is. Otherwise (nullptr)
// this runs RightSingularOf: one Householder-QL solve of the d x d Gram,
// whatever the shape (MP2's tall coordinator sketch, an FD buffer with
// rows appended since its last shrink), keeping r = min(rows, cols)
// pairs. An empty sketch (no rows yet, or a zero-row FD buffer) leaves
// them empty — the QueryEngine's documented empty-state answers apply.
void FinishMatrixSection(linalg::Matrix sketch, linalg::RightSingular* factors,
                         Snapshot* snap) {
  snap->has_matrix = true;
  snap->sketch = std::move(sketch);
  snap->sketch_sq_frob = snap->sketch.SquaredFrobeniusNorm();
  if (snap->sketch.empty()) return;
  linalg::RightSingular rs = factors != nullptr
                                 ? std::move(*factors)
                                 : linalg::RightSingularOf(snap->sketch);
  const size_t r = std::min(snap->sketch.rows(), snap->sketch.cols());
  DMT_CHECK_EQ(rs.squared_sigma.size(), r);
  DMT_CHECK_EQ(rs.v.rows(), snap->sketch.cols());
  DMT_CHECK_EQ(rs.v.cols(), r);
  snap->sigma.resize(r);
  for (size_t i = 0; i < r; ++i) {
    snap->sigma[i] = std::sqrt(rs.squared_sigma[i]);
  }
  snap->right_vectors = std::move(rs.v);
}

}  // namespace

std::unique_ptr<const Snapshot> BuildEmptySnapshot() {
  return std::make_unique<Snapshot>();
}

std::unique_ptr<const Snapshot> BuildSnapshot(
    const hh::HeavyHitterProtocol& protocol, uint64_t window_index,
    uint64_t items_ingested) {
  auto snap = std::make_unique<Snapshot>();
  snap->window_index = window_index;
  snap->items_ingested = items_ingested;
  snap->total_weight = protocol.EstimateTotalWeight();
  std::vector<hh::HHSnapshotEntry> exported =
      protocol.ExportSnapshotEntries();
  std::vector<HHEntry> entries(exported.size());
  for (size_t i = 0; i < exported.size(); ++i) {
    entries[i] = HHEntry{exported[i].element, exported[i].weight};
  }
  FinishHHSection(std::move(entries), snap.get());
  return snap;
}

std::unique_ptr<const Snapshot> BuildSnapshot(
    const matrix::MatrixTrackingProtocol& protocol, uint64_t window_index,
    uint64_t items_ingested) {
  auto snap = std::make_unique<Snapshot>();
  snap->window_index = window_index;
  snap->items_ingested = items_ingested;
  linalg::Matrix sketch;
  linalg::RightSingular factors;
  const bool factored = protocol.ExportSnapshotFactors(&sketch, &factors);
  FinishMatrixSection(std::move(sketch), factored ? &factors : nullptr,
                      snap.get());
  return snap;
}

void SerializeSnapshot(const Snapshot& snapshot, std::vector<uint8_t>* out) {
  DMT_CHECK(out != nullptr);
  out->clear();
  ByteWriter w(out);
  w.Put<uint64_t>(snapshot.window_index);
  w.Put<uint64_t>(snapshot.items_ingested);

  w.Put<uint8_t>(snapshot.has_hh ? 1 : 0);
  w.Put<uint64_t>(snapshot.by_weight.size());
  for (const HHEntry& e : snapshot.by_weight) {
    w.Put<uint64_t>(e.element);
    w.Put<double>(e.weight);
  }
  w.Put<uint64_t>(snapshot.by_element.size());
  for (const HHEntry& e : snapshot.by_element) {
    w.Put<uint64_t>(e.element);
    w.Put<double>(e.weight);
  }
  w.Put<uint64_t>(snapshot.prefix_weight.size());
  for (double p : snapshot.prefix_weight) w.Put<double>(p);
  w.Put<double>(snapshot.total_weight);

  w.Put<uint8_t>(snapshot.has_matrix ? 1 : 0);
  w.Put<uint64_t>(snapshot.sketch.rows());
  w.Put<uint64_t>(snapshot.sketch.cols());
  if (!snapshot.sketch.empty()) {
    w.PutBytes(snapshot.sketch.Row(0),
               snapshot.sketch.rows() * snapshot.sketch.cols() *
                   sizeof(double));
  }
  w.Put<uint64_t>(snapshot.sigma.size());
  for (double s : snapshot.sigma) w.Put<double>(s);
  w.Put<uint64_t>(snapshot.right_vectors.rows());
  w.Put<uint64_t>(snapshot.right_vectors.cols());
  if (!snapshot.right_vectors.empty()) {
    w.PutBytes(snapshot.right_vectors.Row(0),
               snapshot.right_vectors.rows() *
                   snapshot.right_vectors.cols() * sizeof(double));
  }
  w.Put<double>(snapshot.sketch_sq_frob);
}

uint64_t SnapshotChecksum(const Snapshot& snapshot) {
  std::vector<uint8_t> bytes;
  SerializeSnapshot(snapshot, &bytes);
  // FNV-1a, 64-bit.
  uint64_t h = 14695981039346656037ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace serve
}  // namespace dmt
