#include "core/registry.h"

#include "hh/exact_tracker.h"
#include "hh/p1_batched_mg.h"
#include "hh/p2_threshold.h"
#include "hh/p3_sampling.h"
#include "hh/p4_randomized.h"
#include "matrix/baselines.h"
#include "matrix/mp1_batched_fd.h"
#include "matrix/mp2_svd_threshold.h"
#include "matrix/mp3_sampling.h"
#include "matrix/mp4_experimental.h"

namespace dmt {
namespace {

using HhPtr = std::unique_ptr<hh::HeavyHitterProtocol>;
using MatrixPtr = std::unique_ptr<matrix::MatrixTrackingProtocol>;

// The constructor shapes the paper's protocols share: (m, ε), and
// (m, ε, seed) for the randomized ones.
template <typename T>
HhPtr Hh(const TrackerConfig& c) {
  return std::make_unique<T>(c.num_sites, c.epsilon);
}

template <typename T>
HhPtr SeededHh(const TrackerConfig& c) {
  return std::make_unique<T>(c.num_sites, c.epsilon, c.seed);
}

template <typename T>
MatrixPtr Matrix(const TrackerConfig& c, size_t /*dim*/, size_t /*k*/) {
  return std::make_unique<T>(c.num_sites, c.epsilon);
}

template <typename T>
MatrixPtr SeededMatrix(const TrackerConfig& c, size_t /*dim*/, size_t /*k*/) {
  return std::make_unique<T>(c.num_sites, c.epsilon, c.seed);
}

}  // namespace

const std::vector<ProtocolInfo>& Protocols() {
  // Row: name, deterministic, heavy-hitter factory, matrix factory.
  static const std::vector<ProtocolInfo> kTable = {
      {"p1", true, Hh<hh::P1BatchedMG>, nullptr},
      {"p2", true, Hh<hh::P2Threshold>, nullptr},
      {"p3wor", false, SeededHh<hh::P3SamplingWoR>, nullptr},
      {"p3wr", false, SeededHh<hh::P3SamplingWR>, nullptr},
      {"p4", false, SeededHh<hh::P4Randomized>, nullptr},
      {"exact", true,
       [](const TrackerConfig& c) -> HhPtr {
         return std::make_unique<hh::ExactTracker>(c.num_sites);
       },
       nullptr},
      {"mp1", true, nullptr, Matrix<matrix::MP1BatchedFD>},
      {"mp2", true, nullptr, Matrix<matrix::MP2SvdThreshold>},
      {"mp3wor", false, nullptr, SeededMatrix<matrix::MP3SamplingWoR>},
      {"mp3wr", false, nullptr, SeededMatrix<matrix::MP3SamplingWR>},
      {"mp4", false, nullptr, SeededMatrix<matrix::MP4Experimental>},
      {"fd", true, nullptr,
       [](const TrackerConfig& c, size_t /*dim*/, size_t k) -> MatrixPtr {
         if (k == 0) return nullptr;
         return std::make_unique<matrix::NaiveFdBaseline>(c.num_sites, k);
       }},
      {"svd", true, nullptr,
       [](const TrackerConfig& c, size_t dim, size_t k) -> MatrixPtr {
         if (k == 0 || dim == 0) return nullptr;
         return std::make_unique<matrix::NaiveSvdBaseline>(c.num_sites, dim,
                                                           k);
       }},
  };
  return kTable;
}

const ProtocolInfo* FindProtocol(const std::string& name) {
  for (const ProtocolInfo& row : Protocols()) {
    if (name == row.name) return &row;
  }
  return nullptr;
}

std::unique_ptr<hh::HeavyHitterProtocol> MakeHhProtocol(
    const std::string& name, const TrackerConfig& config) {
  const ProtocolInfo* row = FindProtocol(name);
  if (row == nullptr || row->make_hh == nullptr) return nullptr;
  return row->make_hh(config);
}

std::unique_ptr<matrix::MatrixTrackingProtocol> MakeMatrixProtocol(
    const std::string& name, const TrackerConfig& config, size_t dim,
    size_t k) {
  const ProtocolInfo* row = FindProtocol(name);
  if (row == nullptr || row->make_matrix == nullptr) return nullptr;
  return row->make_matrix(config, dim, k);
}

}  // namespace dmt
