#include "matrix/mp4_experimental.h"

#include <cmath>
#include <limits>

#include "linalg/kernels.h"
#include "linalg/svd.h"
#include "linalg/vec_ops.h"
#include "util/check.h"

namespace dmt {
namespace matrix {

MP4Experimental::MP4Experimental(size_t num_sites, double eps, uint64_t seed,
                                 const MP4Options& options)
    : eps_(eps),
      options_(options),
      network_(num_sites),
      site_rngs_(MakeSiteRngs(num_sites, seed)),
      weight_tracker_(&network_),
      sites_(num_sites),
      site_contribution_(num_sites) {
  DMT_CHECK_GT(eps, 0.0);
  DMT_CHECK_LE(eps, 1.0);
}

double MP4Experimental::CurrentP() const {
  const double fest = weight_tracker_.EstimateAtSites();
  if (fest <= 0.0) return std::numeric_limits<double>::infinity();
  const double m = static_cast<double>(network_.num_sites());
  return 2.0 * std::sqrt(m) / (eps_ * fest);
}

void MP4Experimental::SiteUpdate(size_t site,
                                 const std::vector<double>& row) {
  DMT_CHECK_LT(site, sites_.size());
  if (dim_ == 0) {
    dim_ = row.size();
    coord_gram_ = linalg::Matrix(dim_, dim_);
    for (size_t j = 0; j < sites_.size(); ++j) {
      sites_[j].gram = linalg::Matrix(dim_, dim_);
      // The frozen basis: identity. Any fixed orthonormal basis exhibits
      // the same failure; identity is what svd of an empty matrix yields.
      sites_[j].basis = linalg::Matrix::Identity(dim_);
      sites_[j].z.assign(dim_, 0.0);
      site_contribution_[j] = linalg::Matrix(dim_, dim_);
      if (options_.realign_rounds > 0) {
        sites_[j].local_fd = sketch::FrequentDirections(
            options_.realign_sketch_rows, dim_);
      }
    }
  }
  DMT_CHECK_EQ(row.size(), dim_);

  SiteState& st = sites_[site];
  const double w = linalg::SquaredNorm(row);
  st.gram.AddOuterProduct(1.0, row);
  if (options_.realign_rounds > 0) st.local_fd.Append(row);

  const bool broadcast_happened = weight_tracker_.Observe(site, w);
  if (broadcast_happened) ++broadcast_rounds_;

  if (options_.realign_rounds > 0 &&
      broadcast_rounds_ >=
          st.rounds_at_last_realign + options_.realign_rounds) {
    Realign(site);
  }

  const double p = CurrentP();
  const double send_prob = std::isinf(p) ? 1.0 : 1.0 - std::exp(-p * w);
  if (site_rngs_[site].NextDouble() < send_prob) SendZ(site);
}

void MP4Experimental::SendZ(size_t site) {
  SiteState& st = sites_[site];
  const double p = CurrentP();
  const double correction = std::isinf(p) ? 0.0 : 1.0 / p;

  // z_i = sqrt(‖A_j v_i‖² + 1/p) along every frozen direction. One
  // blocked GEMM gives G V for all directions at once; the quadratic form
  // along direction i is then the column-i dot of V and G V.
  linalg::Matrix gv = st.gram.Multiply(st.basis);
  std::vector<double> z2(dim_);
  for (size_t i = 0; i < dim_; ++i) {
    double along = 0.0;
    for (size_t j = 0; j < dim_; ++j) along += st.basis(j, i) * gv(j, i);
    st.z[i] = std::sqrt(std::max(0.0, along) + correction);
    z2[i] = st.z[i] * st.z[i];
  }
  network_.RecordVector(site);  // the d-vector z is one message

  // Both the site and the coordinator set A-hat_j = Z V^T; the coordinator
  // replaces this site's Gram contribution V diag(z^2) V^T. The rows of
  // V^T are the directions, so this is one batched rank-1 pass.
  linalg::Matrix vt = st.basis.Transposed();
  linalg::Matrix contribution(dim_, dim_);
  linalg::kernels::BatchedRank1(vt.Row(0), z2.data(), dim_, dim_,
                                contribution.Row(0));
  coord_gram_.Subtract(site_contribution_[site]);
  coord_gram_.Add(contribution);
  site_contribution_[site] = std::move(contribution);
}

void MP4Experimental::Realign(size_t site) {
  SiteState& st = sites_[site];
  st.rounds_at_last_realign = broadcast_rounds_;

  // Ship the local FD sketch (one message per sketch row) and adopt its
  // right singular basis as the new V with z = singular values.
  linalg::Matrix sk = st.local_fd.sketch();
  for (size_t r = 0; r < sk.rows(); ++r) network_.RecordVector(site);

  linalg::RightSingular rs = linalg::RightSingularFromGram(sk.Gram());
  st.basis = rs.v;
  for (size_t i = 0; i < dim_; ++i) {
    st.z[i] = std::sqrt(
        i < rs.squared_sigma.size() ? rs.squared_sigma[i] : 0.0);
  }
  linalg::Matrix contribution = sk.Gram();
  coord_gram_.Subtract(site_contribution_[site]);
  coord_gram_.Add(contribution);
  site_contribution_[site] = std::move(contribution);
}

linalg::Matrix MP4Experimental::CoordinatorSketch() const {
  linalg::Matrix b(0, dim_);
  if (dim_ == 0) return b;
  linalg::RightSingular rs = linalg::RightSingularFromGram(coord_gram_);
  for (size_t i = 0; i < rs.squared_sigma.size(); ++i) {
    if (rs.squared_sigma[i] <= 0.0) break;
    const double s = std::sqrt(rs.squared_sigma[i]);
    std::vector<double> row(dim_);
    for (size_t j = 0; j < dim_; ++j) row[j] = s * rs.v(j, i);
    b.AppendRow(row);
  }
  return b;
}

linalg::Matrix MP4Experimental::CoordinatorGram() const {
  if (dim_ == 0) return linalg::Matrix();
  return coord_gram_;
}

const stream::CommStats& MP4Experimental::comm_stats() const {
  return network_.stats();
}

}  // namespace matrix
}  // namespace dmt
