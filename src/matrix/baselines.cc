#include "matrix/baselines.h"

#include <cmath>

#include "linalg/svd.h"

namespace dmt {
namespace matrix {

NaiveFdBaseline::NaiveFdBaseline(size_t num_sites, size_t ell)
    : network_(num_sites), outbox_(num_sites), fd_(ell) {}

void NaiveFdBaseline::ProcessRow(size_t site,
                                 const std::vector<double>& row) {
  network_.RecordVector(site);
  fd_.Append(row);
}

void NaiveFdBaseline::SiteUpdate(size_t site, const std::vector<double>& row) {
  network_.RecordVector(site);
  outbox_[site].push_back(row);
}

void NaiveFdBaseline::SynchronizeSites(const uint32_t* sites, size_t count) {
  // Batch the listed sites' queued rows, in list order, through the FD
  // bulk path: one shrink per buffer fill instead of one per ell appended
  // rows.
  linalg::Matrix batch;
  for (size_t i = 0; i < count; ++i) {
    auto& site_outbox = outbox_[sites[i]];
    for (const auto& row : site_outbox) batch.AppendRow(row);
    site_outbox.clear();
  }
  fd_.AppendRows(batch);
}

linalg::Matrix NaiveFdBaseline::CoordinatorSketch() const {
  return fd_.sketch();
}

const stream::CommStats& NaiveFdBaseline::comm_stats() const {
  return network_.stats();
}

NaiveSvdBaseline::NaiveSvdBaseline(size_t num_sites, size_t dim, size_t k)
    : k_(k), network_(num_sites), outbox_(num_sites), cov_(dim) {}

void NaiveSvdBaseline::ProcessRow(size_t site,
                                  const std::vector<double>& row) {
  network_.RecordVector(site);
  cov_.AddRow(row);
}

void NaiveSvdBaseline::SiteUpdate(size_t site,
                                  const std::vector<double>& row) {
  network_.RecordVector(site);
  outbox_[site].push_back(row);
}

void NaiveSvdBaseline::SynchronizeSites(const uint32_t* sites, size_t count) {
  // One blocked Gram accumulation over the listed sites' rows, in list
  // order, instead of a rank-1 sweep per row.
  linalg::Matrix batch;
  for (size_t i = 0; i < count; ++i) {
    auto& site_outbox = outbox_[sites[i]];
    for (const auto& row : site_outbox) batch.AppendRow(row);
    site_outbox.clear();
  }
  cov_.AddRows(batch);
}

linalg::Matrix NaiveSvdBaseline::CoordinatorSketch() const {
  linalg::RightSingular rs = linalg::RightSingularFromGram(cov_.gram());
  linalg::Matrix b(0, cov_.dim());
  for (size_t i = 0; i < rs.squared_sigma.size() && i < k_; ++i) {
    if (rs.squared_sigma[i] <= 0.0) break;
    const double s = std::sqrt(rs.squared_sigma[i]);
    std::vector<double> row(cov_.dim());
    for (size_t j = 0; j < cov_.dim(); ++j) row[j] = s * rs.v(j, i);
    b.AppendRow(row);
  }
  return b;
}

linalg::Matrix NaiveSvdBaseline::CoordinatorGram() const {
  return CoordinatorSketch().Gram();
}

const stream::CommStats& NaiveSvdBaseline::comm_stats() const {
  return network_.stats();
}

}  // namespace matrix
}  // namespace dmt
