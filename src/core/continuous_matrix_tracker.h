// Public facade: continuous distributed matrix approximation.
//
// This is the API a downstream user consumes. It wires a chosen protocol
// to the simulated site/coordinator split and exposes continuous queries:
//
//   dmt::MatrixTrackerConfig cfg;
//   cfg.num_sites = 50;
//   cfg.epsilon = 0.1;
//   cfg.protocol = "mp2";
//   dmt::ContinuousMatrixTracker tracker(cfg);
//   tracker.Append(site_id, row);              // any time, any site
//   dmt::linalg::Matrix b = tracker.Sketch();  // any time
//
// The guarantee maintained at all times is the paper's Definition 1:
// |‖Ax‖² − ‖Bx‖²| ≤ ε‖A‖²_F for every unit vector x.
#ifndef DMT_CORE_CONTINUOUS_MATRIX_TRACKER_H_
#define DMT_CORE_CONTINUOUS_MATRIX_TRACKER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "linalg/matrix.h"
#include "matrix/matrix_protocol.h"

namespace dmt {
namespace stream {
class SimulationDriver;
}  // namespace stream

/// Continuous distributed matrix approximation tracker.
class ContinuousMatrixTracker {
 public:
  explicit ContinuousMatrixTracker(const MatrixTrackerConfig& config);
  ~ContinuousMatrixTracker();

  ContinuousMatrixTracker(const ContinuousMatrixTracker&) = delete;
  ContinuousMatrixTracker& operator=(const ContinuousMatrixTracker&) = delete;

  /// Feeds one matrix row observed at `site` (0-based, < num_sites).
  void Append(size_t site, const std::vector<double>& row);

  /// Feeds a batch of rows through the parallel simulation driver:
  /// rows[i] arrives at sites[i]. Site-local sketch work runs on the
  /// driver's thread pool; coordinator interactions happen at the driver's
  /// synchronization rounds. Results are deterministic for a fixed driver
  /// configuration regardless of thread count.
  void AppendBatch(stream::SimulationDriver* driver,
                   const std::vector<size_t>& sites,
                   const std::vector<std::vector<double>>& rows);

  /// Current coordinator approximation B (rows stacked).
  linalg::Matrix Sketch() const;

  /// Current B^T B (cheaper than Sketch().Gram() for some protocols).
  linalg::Matrix SketchGram() const;

  /// ‖Bx‖² for a direction x (length = row dimension).
  double SquaredNormAlong(const std::vector<double>& x) const;

  /// Messages used so far (the paper's communication metric).
  const stream::CommStats& comm_stats() const;

  /// Rows appended so far across all sites.
  size_t rows_seen() const { return rows_seen_; }

  /// Registry name of the underlying protocol (e.g. "mp2").
  std::string protocol_name() const;

  const MatrixTrackerConfig& config() const { return config_; }

 private:
  MatrixTrackerConfig config_;
  std::unique_ptr<matrix::MatrixTrackingProtocol> protocol_;
  size_t rows_seen_ = 0;
};

}  // namespace dmt

#endif  // DMT_CORE_CONTINUOUS_MATRIX_TRACKER_H_
