#include "serve/query_engine.h"

#include <algorithm>

#include "util/check.h"
#include "util/contracts.h"

namespace dmt {
namespace serve {

DMT_HOT_KERNEL
QueryEngine::QueryEngine(const Snapshot* snapshot) : snapshot_(snapshot) {
  DMT_CHECK(snapshot != nullptr);
}

DMT_HOT_KERNEL
std::vector<HHEntry> QueryEngine::TopK(size_t k) const {
  DMT_CHECK_GE(k, 1u);
  const std::vector<HHEntry>& by_weight = snapshot_->by_weight;
  const size_t n = std::min(k, by_weight.size());
  return std::vector<HHEntry>(by_weight.begin(),
                              by_weight.begin() + static_cast<long>(n));
}

DMT_HOT_KERNEL
double QueryEngine::TopKMass(size_t k) const {
  DMT_CHECK_GE(k, 1u);
  const std::vector<double>& prefix = snapshot_->prefix_weight;
  if (prefix.empty()) return 0.0;
  return prefix[std::min(k, prefix.size()) - 1];
}

DMT_HOT_KERNEL
double QueryEngine::ElementWeight(uint64_t element) const {
  const std::vector<HHEntry>& idx = snapshot_->by_element;
  auto it = std::lower_bound(idx.begin(), idx.end(), element,
                             [](const HHEntry& e, uint64_t value) {
                               return e.element < value;
                             });
  if (it == idx.end() || it->element != element) return 0.0;
  return it->weight;
}

DMT_HOT_KERNEL
std::vector<HHEntry> QueryEngine::HeavyHitters(double phi,
                                               double eps) const {
  DMT_CHECK_GT(phi, 0.0);
  DMT_CHECK_GE(eps, 0.0);
  std::vector<HHEntry> out;
  const double total = snapshot_->total_weight;
  if (total <= 0.0) return out;
  const double cut = (phi - eps / 2.0) * total;
  // by_weight is weight-descending, so the qualifying set is a prefix.
  for (const HHEntry& e : snapshot_->by_weight) {
    if (e.weight < cut) break;
    out.push_back(e);
  }
  return out;
}

DMT_HOT_KERNEL
std::vector<double> QueryEngine::TopSingularValues(size_t k) const {
  DMT_CHECK_GE(k, 1u);
  const std::vector<double>& sigma = snapshot_->sigma;
  const size_t n = std::min(k, sigma.size());
  return std::vector<double>(sigma.begin(),
                             sigma.begin() + static_cast<long>(n));
}

DMT_HOT_KERNEL
std::vector<double> QueryEngine::ProjectRow(const std::vector<double>& x,
                                            size_t rank) const {
  DMT_CHECK_GE(rank, 1u);
  const linalg::Matrix& v = snapshot_->right_vectors;
  if (v.empty()) return std::vector<double>(x.size(), 0.0);
  DMT_CHECK_EQ(x.size(), v.rows());
  const size_t r = std::min(rank, v.cols());
  std::vector<double> out(x.size(), 0.0);
  for (size_t i = 0; i < r; ++i) {
    double coef = 0.0;
    for (size_t j = 0; j < v.rows(); ++j) coef += v(j, i) * x[j];
    for (size_t j = 0; j < v.rows(); ++j) out[j] += coef * v(j, i);
  }
  return out;
}

DMT_HOT_KERNEL
double QueryEngine::CovarianceQuadraticForm(
    const std::vector<double>& x) const {
  const linalg::Matrix& b = snapshot_->sketch;
  if (b.empty()) return 0.0;
  DMT_CHECK_EQ(x.size(), b.cols());
  return b.SquaredNormAlong(x);
}

}  // namespace serve
}  // namespace dmt
