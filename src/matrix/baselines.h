// Centralized baselines: ship every row to the coordinator and summarize
// there. These are the "FD" and "SVD" rows of the paper's Table 1.
#ifndef DMT_MATRIX_BASELINES_H_
#define DMT_MATRIX_BASELINES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "matrix/error.h"
#include "matrix/matrix_protocol.h"
#include "sketch/frequent_directions.h"
#include "stream/network.h"

namespace dmt {
namespace matrix {

/// Sends all rows; the coordinator runs a single Frequent Directions sketch
/// with `ell` rows (the paper uses ell = k, the target rank).
class NaiveFdBaseline : public MatrixTrackingProtocol {
 public:
  NaiveFdBaseline(size_t num_sites, size_t ell);

  void ProcessRow(size_t site, const std::vector<double>& row) override;
  void SiteUpdate(size_t site, const std::vector<double>& row) override;
  void SynchronizeSites(const uint32_t* sites, size_t count) override;
  size_t PendingOutboxSize(size_t site) const override {
    return outbox_[site].size();
  }
  linalg::Matrix CoordinatorSketch() const override;
  const stream::CommStats& comm_stats() const override;
  std::vector<uint64_t> per_site_messages() const override {
    return network_.per_site_up();
  }
  std::string name() const override { return "fd"; }

 private:
  stream::Network network_;
  std::vector<std::vector<std::vector<double>>> outbox_;  // per-site rows
  sketch::FrequentDirections fd_;
};

/// Sends all rows; the coordinator keeps the exact covariance and answers
/// with the best rank-k approximation (optimal, non-streaming reference).
class NaiveSvdBaseline : public MatrixTrackingProtocol {
 public:
  NaiveSvdBaseline(size_t num_sites, size_t dim, size_t k);

  void ProcessRow(size_t site, const std::vector<double>& row) override;
  void SiteUpdate(size_t site, const std::vector<double>& row) override;
  void SynchronizeSites(const uint32_t* sites, size_t count) override;
  size_t PendingOutboxSize(size_t site) const override {
    return outbox_[site].size();
  }
  /// Rows sqrt(lambda_i) v_i^T for the top-k eigenpairs of A^T A: the
  /// unique B with B^T B = (A_k)^T A_k.
  linalg::Matrix CoordinatorSketch() const override;
  linalg::Matrix CoordinatorGram() const override;
  const stream::CommStats& comm_stats() const override;
  std::vector<uint64_t> per_site_messages() const override {
    return network_.per_site_up();
  }
  std::string name() const override { return "svd"; }

 private:
  size_t k_;
  stream::Network network_;
  std::vector<std::vector<std::vector<double>>> outbox_;  // per-site rows
  CovarianceTracker cov_;
};

}  // namespace matrix
}  // namespace dmt

#endif  // DMT_MATRIX_BASELINES_H_
