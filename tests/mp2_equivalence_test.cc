// Equivalence test for MP2's engineering shortcuts.
//
// The implementation guards threshold checks behind a trace bound and
// runs each check as a trace-certified partial Lanczos solve (ending in
// the solver's full-spectrum step for flat spectra). This test pits it
// against a literal transcription of the paper's Algorithm 5.3/5.4 —
// full decomposition of the raw Gram after every row — and requires
// identical messages and an identical coordinator state.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic_matrix.h"
#include "linalg/svd.h"
#include "linalg/vec_ops.h"
#include "matrix/mp2_svd_threshold.h"
#include "stream/router.h"

namespace dmt {
namespace matrix {
namespace {

// Literal Algorithm 5.3 / 5.4: per-row svd of the raw site Gram.
class ReferenceMP2 {
 public:
  ReferenceMP2(size_t num_sites, double eps)
      : eps_(eps), m_(num_sites), sites_(num_sites) {}

  void ProcessRow(size_t site, const std::vector<double>& row) {
    if (dim_ == 0) {
      dim_ = row.size();
      coord_gram_ = linalg::Matrix(dim_, dim_);
      for (auto& st : sites_) st.gram = linalg::Matrix(dim_, dim_);
    }
    SiteState& st = sites_[site];
    const double w = linalg::SquaredNorm(row);

    st.scalar_counter += w;
    if (st.scalar_counter >= (eps_ / m_) * st.fest) {
      ++scalar_msgs_;
      coord_fest_ += st.scalar_counter;
      st.scalar_counter = 0.0;
      if (++msgs_since_broadcast_ >= sites_.size()) {
        msgs_since_broadcast_ = 0;
        ++broadcasts_;
        for (auto& s : sites_) s.fest = coord_fest_;
      }
    }

    const double threshold = (eps_ / m_) * st.fest;
    if (threshold <= 0.0) {
      if (w > 0.0) {
        ++vector_msgs_;
        coord_gram_.AddOuterProduct(1.0, row);
      }
      return;
    }

    st.gram.AddOuterProduct(1.0, row);
    // Paper-literal: svd after every arrival, ship all heavy directions.
    linalg::RightSingular rs = linalg::RightSingularFromGram(st.gram);
    bool any = false;
    for (size_t i = 0; i < rs.squared_sigma.size(); ++i) {
      const double lam = rs.squared_sigma[i];
      if (lam < threshold || lam <= 0.0) break;
      any = true;
      ++vector_msgs_;
      std::vector<double> v(dim_);
      for (size_t j = 0; j < dim_; ++j) v[j] = rs.v(j, i);
      coord_gram_.AddOuterProduct(lam, v);
    }
    if (any) {
      // Rebuild the Gram from the kept directions.
      linalg::Matrix kept(dim_, dim_);
      for (size_t i = 0; i < rs.squared_sigma.size(); ++i) {
        const double lam = rs.squared_sigma[i];
        if (lam >= threshold || lam <= 0.0) continue;
        std::vector<double> v(dim_);
        for (size_t j = 0; j < dim_; ++j) v[j] = rs.v(j, i);
        kept.AddOuterProduct(lam, v);
      }
      st.gram = std::move(kept);
    }
  }

  uint64_t vector_msgs() const { return vector_msgs_; }
  uint64_t scalar_msgs() const { return scalar_msgs_; }
  uint64_t broadcasts() const { return broadcasts_; }
  const linalg::Matrix& coord_gram() const { return coord_gram_; }

 private:
  struct SiteState {
    linalg::Matrix gram;
    double scalar_counter = 0.0;
    double fest = 0.0;
  };

  double eps_;
  double m_;
  size_t dim_ = 0;
  std::vector<SiteState> sites_;
  linalg::Matrix coord_gram_;
  double coord_fest_ = 0.0;
  size_t msgs_since_broadcast_ = 0;
  uint64_t vector_msgs_ = 0;
  uint64_t scalar_msgs_ = 0;
  uint64_t broadcasts_ = 0;
};

class Mp2EquivalenceTest : public ::testing::TestWithParam<double> {};

// Feeds `rows` rows of `cfg` through both implementations at 5 sites and
// requires identical messages and an identical coordinator state.
void ExpectMatchesReference(double eps,
                            const data::SyntheticMatrixConfig& cfg,
                            int rows) {
  const size_t m = 5;
  MP2SvdThreshold fast(m, eps);
  ReferenceMP2 reference(m, eps);
  data::SyntheticMatrixGenerator gen(cfg);
  stream::Router router(m, stream::RoutingPolicy::kUniform, 12);

  for (int i = 0; i < rows; ++i) {
    std::vector<double> row = gen.Next();
    const size_t site = router.NextSite();
    fast.ProcessRow(site, row);
    reference.ProcessRow(site, row);
  }

  // Identical message behaviour...
  EXPECT_EQ(fast.comm_stats().vector_up, reference.vector_msgs());
  EXPECT_EQ(fast.comm_stats().scalar_up, reference.scalar_msgs());
  EXPECT_EQ(fast.comm_stats().broadcast_events, reference.broadcasts());
  // ...and an identical coordinator state (up to roundoff).
  EXPECT_LT(fast.CoordinatorGram().MaxAbsDiff(reference.coord_gram()),
            1e-6 * (1.0 + reference.coord_gram().SquaredFrobeniusNorm()));
}

TEST_P(Mp2EquivalenceTest, MatchesPaperLiteralImplementation) {
  data::SyntheticMatrixConfig cfg;
  cfg.dim = 10;
  cfg.latent_rank = 3;
  cfg.seed = 11;
  ExpectMatchesReference(GetParam(), cfg, 4000);
}

// A flat spectrum at PAMAP's d = 44: the trace certificate fails at
// k = 4, 8 and 16, so checks escalate to the solver's full-spectrum step
// (k = d on the dense route).
TEST_P(Mp2EquivalenceTest, MatchesPaperLiteralOnHighRankStream) {
  data::SyntheticMatrixConfig cfg;
  cfg.dim = 44;
  cfg.latent_rank = 44;
  cfg.decay_power = 0.1;
  cfg.seed = 13;
  ExpectMatchesReference(GetParam(), cfg, 600);
}

// Sites stage 64 rows before folding them into their Gram. At the small
// eps values checks come often enough that the stage rarely fills between
// two of them (3 fills in all at d = 10, eps = 0.3); 0.9 fills it 29 times
// at d = 10, so the full-stage fold is on the compared path too.
INSTANTIATE_TEST_SUITE_P(EpsSweep, Mp2EquivalenceTest,
                         ::testing::Values(0.05, 0.1, 0.3, 0.9));

}  // namespace
}  // namespace matrix
}  // namespace dmt
