#include "core/continuous_matrix_tracker.h"

#include "linalg/vec_ops.h"
#include "matrix/baselines.h"
#include "matrix/mp1_batched_fd.h"
#include "matrix/mp2_svd_threshold.h"
#include "matrix/mp3_sampling.h"
#include "matrix/mp4_experimental.h"
#include "stream/simulation_driver.h"
#include "util/check.h"

namespace dmt {

ContinuousMatrixTracker::ContinuousMatrixTracker(
    const MatrixTrackerConfig& config)
    : config_(config) {
  DMT_CHECK_GE(config.num_sites, 1u);
  switch (config.protocol) {
    case MatrixProtocol::kP1BatchedFD:
      protocol_ = std::make_unique<matrix::MP1BatchedFD>(config.num_sites,
                                                         config.epsilon);
      break;
    case MatrixProtocol::kP2SvdThreshold:
      protocol_ = std::make_unique<matrix::MP2SvdThreshold>(config.num_sites,
                                                            config.epsilon);
      break;
    case MatrixProtocol::kP3SampleWoR:
      protocol_ = std::make_unique<matrix::MP3SamplingWoR>(
          config.num_sites, config.epsilon, config.seed);
      break;
    case MatrixProtocol::kP3SampleWR:
      protocol_ = std::make_unique<matrix::MP3SamplingWR>(
          config.num_sites, config.epsilon, config.seed);
      break;
    case MatrixProtocol::kP4Experimental:
      protocol_ = std::make_unique<matrix::MP4Experimental>(
          config.num_sites, config.epsilon, config.seed);
      break;
  }
}

ContinuousMatrixTracker::~ContinuousMatrixTracker() = default;

void ContinuousMatrixTracker::Append(size_t site,
                                     const std::vector<double>& row) {
  DMT_CHECK_LT(site, config_.num_sites);
  protocol_->ProcessRow(site, row);
  ++rows_seen_;
}

void ContinuousMatrixTracker::AppendBatch(
    stream::SimulationDriver* driver, const std::vector<size_t>& sites,
    const std::vector<std::vector<double>>& rows) {
  for (size_t site : sites) DMT_CHECK_LT(site, config_.num_sites);
  driver->Run(protocol_.get(), sites, rows);
  rows_seen_ += rows.size();
}

linalg::Matrix ContinuousMatrixTracker::Sketch() const {
  return protocol_->CoordinatorSketch();
}

linalg::Matrix ContinuousMatrixTracker::SketchGram() const {
  return protocol_->CoordinatorGram();
}

double ContinuousMatrixTracker::SquaredNormAlong(
    const std::vector<double>& x) const {
  linalg::Matrix gram = protocol_->CoordinatorGram();
  if (gram.rows() == 0) return 0.0;
  std::vector<double> gx = gram.MultiplyVector(x);
  return linalg::Dot(x, gx);
}

const stream::CommStats& ContinuousMatrixTracker::comm_stats() const {
  return protocol_->comm_stats();
}

std::string ContinuousMatrixTracker::protocol_name() const {
  return protocol_->name();
}

}  // namespace dmt
