// Matrix Protocol 3: squared-norm priority sampling (paper Section 5.3) —
// the matrix analogue of heavy-hitter protocol P3.
//
// Rows are treated as weighted items with w = ‖a‖²; sites forward a row
// when its priority w/Unif(0,1] reaches the global threshold, and the
// coordinator runs the identical two-queue round structure as hh::P3.
// At query time the sampled rows are stacked into B after rescaling: rows
// with w < rho-hat are scaled up so their squared norm equals the
// adjusted weight max(w, rho-hat) (rows above the threshold stay as-is).
//
// Guarantee (Theorem 5): |‖Ax‖² − ‖Bx‖²| ≤ ε‖A‖²_F w.p. >= 1 - 1/s using
// O((m + s) log(βN/s)) messages, s = Θ((1/ε²) log(1/ε)).
//
// The with-replacement variant (Section 4.3.1 applied to rows) keeps s
// independent single-row samplers; each sampled row is rescaled to squared
// norm W-hat/s. It needs more communication for the same accuracy, which
// Table 1 reproduces.
#ifndef DMT_MATRIX_MP3_SAMPLING_H_
#define DMT_MATRIX_MP3_SAMPLING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "matrix/matrix_protocol.h"
#include "stream/network.h"
#include "util/rng.h"

namespace dmt {
namespace matrix {

/// Without-replacement row-sampling protocol (MP3 / "P3wor").
class MP3SamplingWoR : public MatrixTrackingProtocol {
 public:
  /// `sample_size` = 0 derives s from eps (same formula as hh::P3).
  MP3SamplingWoR(size_t num_sites, double eps, uint64_t seed,
                 size_t sample_size = 0);

  void SiteUpdate(size_t site, const std::vector<double>& row) override;
  size_t PendingOutboxSize(size_t site) const override {
    return outbox_[site].size();
  }
  linalg::Matrix CoordinatorSketch() const override;
  const stream::CommStats& comm_stats() const override;
  std::vector<uint64_t> per_site_messages() const override {
    return network_.per_site_up();
  }
  std::string name() const override { return "mp3wor"; }

  size_t sample_size() const { return s_; }
  double threshold() const { return tau_; }

 private:
  struct SampledRow {
    std::vector<double> row;
    double weight = 0.0;   // squared norm at arrival
    double priority = 0.0;
  };

  /// Delivers one site's queued forwards in emission order.
  void DrainSite(size_t site) override;
  void EndRoundIfNeeded();

  size_t s_;
  stream::Network network_;
  // One private generator per site (seed = base ⊕ site), so sites draw
  // priorities independently and may run on concurrent threads.
  std::vector<Rng> site_rngs_;
  double tau_ = 1.0;
  bool tau_ever_doubled_ = false;
  std::vector<SampledRow> q_cur_;
  std::vector<SampledRow> q_next_;
  // Forwarded rows awaiting coordinator bucketing (per-site, FIFO).
  std::vector<std::vector<SampledRow>> outbox_;
};

/// With-replacement row-sampling protocol (MP3wr / "P3wr").
class MP3SamplingWR : public MatrixTrackingProtocol {
 public:
  MP3SamplingWR(size_t num_sites, double eps, uint64_t seed,
                size_t sample_size = 0);

  void SiteUpdate(size_t site, const std::vector<double>& row) override;
  size_t PendingOutboxSize(size_t site) const override {
    return outbox_[site].size();
  }
  linalg::Matrix CoordinatorSketch() const override;
  const stream::CommStats& comm_stats() const override;
  std::vector<uint64_t> per_site_messages() const override {
    return network_.per_site_up();
  }
  std::string name() const override { return "mp3wr"; }

  size_t sample_size() const { return s_; }

 private:
  struct Slot {
    std::vector<double> row;
    double weight = 0.0;
    double top_priority = 0.0;
    double second_priority = 0.0;
  };

  /// All sampler successes of one row scored at one site: (slot index,
  /// priority) pairs, delivered to the coordinator as one batch so round
  /// accounting matches the per-row serial schedule.
  struct PendingSends {
    std::vector<double> row;
    double weight;
    std::vector<std::pair<size_t, double>> hits;
  };

  void ApplySlotUpdate(size_t t, const std::vector<double>& row,
                       double weight, double rho);
  /// Delivers one site's queued sampler successes in emission order.
  void DrainSite(size_t site) override;
  void EndRoundIfNeeded();

  size_t s_;
  stream::Network network_;
  // One private generator per site (seed = base ⊕ site); see MP3SamplingWoR.
  std::vector<Rng> site_rngs_;
  double tau_ = 1.0;
  std::vector<Slot> slots_;
  size_t slots_below_2tau_ = 0;
  std::vector<std::vector<PendingSends>> outbox_;  // per-site, FIFO
};

}  // namespace matrix
}  // namespace dmt

#endif  // DMT_MATRIX_MP3_SAMPLING_H_
