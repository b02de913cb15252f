#include "matrix/mp2_svd_threshold.h"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.h"
#include "linalg/svd.h"
#include "linalg/vec_ops.h"
#include "util/check.h"

namespace dmt {
namespace matrix {

MP2SvdThreshold::MP2SvdThreshold(size_t num_sites, double eps)
    : eps_(eps), network_(num_sites), sites_(num_sites),
      outbox_(num_sites) {
  DMT_CHECK_GT(eps, 0.0);
  DMT_CHECK_LE(eps, 1.0);
}

void MP2SvdThreshold::EnsureDim(const std::vector<double>& row) {
  // call_once doubles as the memory fence that publishes dim_ and the
  // per-site matrices to every site thread.
  std::call_once(dim_once_, [this, &row] {
    dim_ = row.size();
    coord_gram_ = linalg::Matrix(dim_, dim_);
    for (auto& st : sites_) {
      st.gram = linalg::Matrix(dim_, dim_);
    }
  });
  DMT_CHECK_EQ(row.size(), dim_);
}

double MP2SvdThreshold::SiteScalarPhase(size_t site, double w) {
  SiteState& st = sites_[site];
  const double m = static_cast<double>(network_.num_sites());
  // Scalar total-mass report (Algorithm 5.3, first branch). Bootstrap:
  // F-hat == 0 makes the threshold 0, so the first row reports at once.
  st.scalar_counter += w;
  if (st.scalar_counter >= (eps_ / m) * st.fest) {
    network_.RecordScalar(site);
    const double amount = st.scalar_counter;
    st.scalar_counter = 0.0;
    return amount;
  }
  return 0.0;
}

void MP2SvdThreshold::ApplyScalar(double amount) {
  coord_fest_ += amount;
  if (++scalar_msgs_since_broadcast_ >= network_.num_sites()) {
    scalar_msgs_since_broadcast_ = 0;
    network_.RecordBroadcast();
    network_.RecordRound();
    for (auto& s : sites_) s.fest = coord_fest_;
  }
}

void MP2SvdThreshold::EmitDirection(size_t site, double lam,
                                    const std::vector<double>& v,
                                    std::vector<PendingMsg>* sink) {
  network_.RecordVector(site);
  if (sink != nullptr) {
    sink->push_back(PendingMsg{false, lam, v});
  } else {
    // sigma * v arrives at the coordinator and is appended to B.
    coord_gram_.AddOuterProduct(lam, v);
  }
}

void MP2SvdThreshold::ProcessRow(size_t site,
                                 const std::vector<double>& row) {
  DMT_CHECK_LT(site, sites_.size());
  EnsureDim(row);
  const double w = linalg::SquaredNorm(row);

  // Serial path: the scalar report is delivered immediately, so a
  // broadcast it triggers already raises this site's F-hat for the
  // direction-threshold check below — the paper's per-row schedule.
  const double amount = SiteScalarPhase(site, w);
  if (amount > 0.0) ApplyScalar(amount);

  ElementPhase(site, row, w, /*sink=*/nullptr);
}

void MP2SvdThreshold::SiteUpdate(size_t site,
                                 const std::vector<double>& row) {
  DMT_CHECK_LT(site, sites_.size());
  EnsureDim(row);
  const double w = linalg::SquaredNorm(row);

  // Deferred path: the report is queued, so this round's direction
  // threshold keeps the F-hat of the last Synchronize() — exactly what a
  // real site knows before the next broadcast arrives. A stale (smaller)
  // F-hat only lowers the threshold, which ships directions earlier: more
  // communication, never more error (the bound is one-sided).
  const double amount = SiteScalarPhase(site, w);
  if (amount > 0.0) {
    outbox_[site].push_back(PendingMsg{true, amount, {}});
  }

  ElementPhase(site, row, w, &outbox_[site]);
}

void MP2SvdThreshold::DrainSite(size_t site) {
  for (const PendingMsg& msg : outbox_[site]) {
    if (msg.is_scalar) {
      ApplyScalar(msg.value);
    } else {
      coord_gram_.AddOuterProduct(msg.value, msg.dir);
    }
  }
  outbox_[site].clear();
}

void MP2SvdThreshold::Synchronize() {
  for (size_t s = 0; s < outbox_.size(); ++s) DrainSite(s);
}

void MP2SvdThreshold::SynchronizeSites(const uint32_t* sites, size_t count) {
  for (size_t i = 0; i < count; ++i) DrainSite(sites[i]);
}

std::vector<MP2SvdThreshold::PendingMsg> MP2SvdThreshold::TakePendingMessages(
    size_t site) {
  DMT_CHECK_LT(site, outbox_.size());
  std::vector<PendingMsg> out = std::move(outbox_[site]);
  outbox_[site].clear();
  return out;
}

void MP2SvdThreshold::DeliverMessage(size_t site, const PendingMsg& msg) {
  DMT_CHECK_LT(site, sites_.size());
  if (msg.is_scalar) {
    network_.RecordScalar(site);
    ApplyScalar(msg.value);
  } else {
    // The wire coordinator may never see a raw row, so the first delivered
    // direction sizes the Gram.
    EnsureDim(msg.dir);
    network_.RecordVector(site);
    coord_gram_.AddOuterProduct(msg.value, msg.dir);
  }
}

void MP2SvdThreshold::SetSiteFest(size_t site, double fest) {
  DMT_CHECK_LT(site, sites_.size());
  sites_[site].fest = fest;
}

void MP2SvdThreshold::ElementPhase(size_t site,
                                   const std::vector<double>& row, double w,
                                   std::vector<PendingMsg>* sink) {
  SiteState& st = sites_[site];
  const double m = static_cast<double>(network_.num_sites());
  const double threshold = (eps_ / m) * st.fest;
  if (threshold <= 0.0) {
    // Bootstrap: B_j is flushed every row, so the pending matrix is rank-1
    // and its only singular direction is the row itself. Ship it directly.
    if (w > 0.0) EmitDirection(site, 1.0, row, sink);
    return;
  }

  // Rank-1 fast path: with an empty buffer, B_j = [a] and its only
  // singular direction is the row itself; if it already crosses the
  // threshold the paper's algorithm ships it and leaves B_j empty again.
  // This is the dominant regime at small eps (threshold below typical row
  // norms) and costs O(d) instead of a decomposition.
  if (st.trace == 0.0 && w >= threshold) {
    EmitDirection(site, 1.0, row, sink);
    return;
  }

  // Append the row: one symmetric rank-1 update on the raw Gram.
  st.gram.AddOuterProduct(1.0, row);
  st.trace += w;
  if (st.trace >= threshold && st.trace >= st.next_check) {
    MaybeSendDirections(site, sink);
  }
}

void MP2SvdThreshold::MaybeSendDirections(size_t site,
                                          std::vector<PendingMsg>* sink) {
  SiteState& st = sites_[site];
  const double m = static_cast<double>(network_.num_sites());
  const double threshold = (eps_ / m) * st.fest;
  decompositions_.fetch_add(1, std::memory_order_relaxed);
  const size_t d = dim_;

  // Exact trace from the diagonal (the incrementally-maintained st.trace
  // may carry drift; the certificate below needs the real thing).
  double trace = 0.0;
  for (size_t i = 0; i < d; ++i) trace += st.gram(i, i);

  // Partial Lanczos solve with a trace certificate, k growing
  // geometrically: every eigenvalue >= threshold is provably among the
  // computed pairs once (a) the smallest computed Ritz value is below the
  // threshold and (b) the spectrum mass not captured by the computed
  // pairs — at most trace minus the captured Ritz sum, plus the solver's
  // residual coupling — is below it too. A step whose Krylov basis would
  // span R^d takes the solver's dense route and factors the whole
  // spectrum anyway, so it asks for all d pairs, which need no
  // certificate; an unconverged Krylov step goes there as well. That
  // full step is final, as an exact decomposition would be.
  size_t k = std::min(d, size_t{4});
  double leftover = 0.0;  // bound on the un-computed spectrum mass
  double slack = 0.0;     // Ritz-value accuracy + trace roundoff
  while (true) {
    linalg::LanczosOptions opts;
    // Tight: the shipped pairs are also the deflation directions, and
    // their residuals accumulate in the site Gram across checks — keep
    // that drift far below any plausible threshold margin.
    opts.tol = 1e-13;
    if (st.seed.size() == d) opts.seed = st.seed.data();
    if (linalg::LanczosSolver::UsesDenseRoute(d, k, opts)) k = d;
    const linalg::LanczosInfo info =
        st.solver.TopKOfGram(st.gram, k, &st.vals, &st.vecs, opts);
    slack = info.residual_bound + 1e-9 * std::fabs(trace);
    if (k == d) {
      leftover = 0.0;  // full space computed
      break;
    }
    if (!info.converged) {
      k = d;
      continue;
    }
    double captured = 0.0;
    for (size_t i = 0; i < k; ++i) captured += st.vals[i];
    leftover = std::max(0.0, trace - captured);
    if (st.vals[k - 1] < threshold && leftover + slack < threshold) break;
    k = std::min(d, 2 * k);
  }
  const size_t count = k;  // computed pairs in st.vals / st.vecs rows

  // Ship every direction at or above the threshold, then remove them from
  // the Gram in one batched rank-1 pass — exactly the paper's
  // "set sigma_l = 0; B_j = U Sigma V^T".
  size_t shipped = 0;
  for (size_t i = 0; i < count; ++i) {
    const double lam = st.vals[i];
    if (lam < threshold || lam <= 0.0) break;  // sorted descending
    EmitDirection(site, lam,
                  std::vector<double>(st.vecs.Row(i), st.vecs.Row(i) + d),
                  sink);
    ++shipped;
  }
  if (shipped > 0) {
    std::vector<double> neg(shipped);
    for (size_t i = 0; i < shipped; ++i) neg[i] = -st.vals[i];
    linalg::kernels::BatchedRank1(st.vecs.Row(0), neg.data(), shipped, d,
                                  st.gram.Row(0));
  }

  // Certified bound on the remaining lambda_max: the leading un-shipped
  // Ritz value within the computed subspace, or the un-computed remainder
  // of the trace, whichever is larger — plus the accuracy slack. No kept
  // direction can reach the threshold before the trace has grown by the
  // remaining gap (a row raises lambda_max by at most its norm).
  double kept_trace = 0.0;
  for (size_t i = 0; i < d; ++i) {
    kept_trace += std::max(st.gram(i, i), 0.0);
  }
  st.trace = kept_trace;
  const double remaining_top =
      shipped < count ? std::max(0.0, st.vals[shipped]) : 0.0;
  const double bound = std::max(remaining_top, leftover) + slack;
  st.next_check = st.trace + (threshold - bound);
  // Warm-start the next check from the leading remaining direction.
  if (shipped < count) {
    st.seed.assign(st.vecs.Row(shipped), st.vecs.Row(shipped) + d);
  }
}

linalg::Matrix MP2SvdThreshold::CoordinatorSketch() const {
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

const stream::CommStats& MP2SvdThreshold::comm_stats() const {
  return network_.stats();
}

}  // namespace matrix
}  // namespace dmt
