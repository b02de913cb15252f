// Equivalence test for MP2's engineering shortcuts.
//
// The implementation guards threshold checks behind a trace bound and a
// leading-pair certificate, and runs each check as a trace-certified
// partial Lanczos solve (ending in the solver's full-spectrum step for
// flat spectra). This test pits it against a literal transcription of the
// paper's Algorithm 5.3/5.4 — full decomposition of the raw Gram after
// every row — and requires the same messages at the same rows and an
// identical coordinator state. Besides synthetic streams it replays
// hand-built ones, each aimed at one term of the certificate.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic_matrix.h"
#include "linalg/spectral.h"
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
  /// The direction threshold (eps/m) F-hat at `site` for its next row,
  /// before that row's own scalar report.
  double threshold(size_t site) const {
    return (eps_ / m_) * sites_[site].fest;
  }

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

constexpr size_t kSites = 5;

// One arrival: the site it lands at and its row.
struct Arrival {
  size_t site;
  std::vector<double> row;
};

// `rows` rows of `cfg`, routed uniformly over kSites sites.
std::vector<Arrival> SyntheticStream(const data::SyntheticMatrixConfig& cfg,
                                     int rows) {
  data::SyntheticMatrixGenerator gen(cfg);
  stream::Router router(kSites, stream::RoutingPolicy::kUniform, 12);
  std::vector<Arrival> out;
  for (int i = 0; i < rows; ++i) {
    std::vector<double> row = gen.Next();
    out.push_back({router.NextSite(), std::move(row)});
  }
  return out;
}

// Feeds `arrivals` through both implementations at kSites sites and
// requires the same message counts after every row (a check that runs a
// row late shows up there even when the counts catch up), and an
// identical coordinator state at the end.
void ExpectMatchesReference(double eps, const std::vector<Arrival>& arrivals) {
  MP2SvdThreshold fast(kSites, eps);
  ReferenceMP2 reference(kSites, eps);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    fast.ProcessRow(arrivals[i].site, arrivals[i].row);
    reference.ProcessRow(arrivals[i].site, arrivals[i].row);
    const stream::CommStats& got = fast.comm_stats();
    if (got.vector_up != reference.vector_msgs() ||
        got.scalar_up != reference.scalar_msgs()) {
      ADD_FAILURE() << "row " << i << " (site " << arrivals[i].site
                    << "): " << got.vector_up << " directions and "
                    << got.scalar_up << " scalars sent, the paper's "
                    << "algorithm sent " << reference.vector_msgs()
                    << " and " << reference.scalar_msgs();
      return;
    }
  }

  // Identical message behaviour...
  EXPECT_EQ(fast.comm_stats().vector_up, reference.vector_msgs());
  EXPECT_EQ(fast.comm_stats().scalar_up, reference.scalar_msgs());
  EXPECT_EQ(fast.comm_stats().broadcast_events, reference.broadcasts());
  // ...and an identical coordinator state (up to roundoff).
  EXPECT_LT(fast.CoordinatorGram().MaxAbsDiff(reference.coord_gram()),
            1e-6 * (1.0 + reference.coord_gram().SquaredFrobeniusNorm()));
}

// A hand-built stream at d = 44, where a check starts on the Krylov route
// (k = 4, a 16-row basis). Sites 1..4 first take an isotropic background
// that sets F-hat; then site 0 takes rows along chosen unit directions,
// each step sized against site 0's threshold T = (eps/m) F-hat at that
// row, read off a live reference run. T drifts up as site 0's own scalar
// reports arrive (by a factor 1 + eps per m*T of its mass), so the steps
// leave margins of 10% of T or more. Every row's squared norm carries a
// +-20% jitter, so no mass lands on T exactly: a tie there is decided by
// rounding, differently in the two implementations.
class DesignedStream {
 public:
  static constexpr size_t kDim = 44;

  explicit DesignedStream(double eps) : reference_(kSites, eps), rng_(7) {
    for (size_t i = 0; i < 200; ++i) {
      std::vector<double> row = linalg::RandomUnitVector(kDim, &rng_);
      Push(1 + i % (kSites - 1), Scaled(std::move(row), 1.0));
    }
  }

  // Appends `rows` rows at site 0 along unit `dir` that together add about
  // `frac` * T to the mass along it.
  void Along(const std::vector<double>& dir, double frac, int rows) {
    for (int i = 0; i < rows; ++i) {
      Push(0, Scaled(dir, frac * reference_.threshold(0) / rows));
    }
  }

  // Background rows at sites 1..4 until site 0's threshold has grown by
  // `factor`: the mass site 0 already holds shrinks against T.
  void RaiseThreshold(double factor) {
    const double target = factor * reference_.threshold(0);
    for (size_t i = 0; reference_.threshold(0) < target; ++i) {
      std::vector<double> row = linalg::RandomUnitVector(kDim, &rng_);
      Push(1 + i % (kSites - 1),
           Scaled(std::move(row), 0.5 * reference_.threshold(0)));
    }
  }

  const std::vector<Arrival>& arrivals() const { return arrivals_; }

 private:
  void Push(size_t site, std::vector<double> row) {
    reference_.ProcessRow(site, row);
    arrivals_.push_back({site, std::move(row)});
  }

  // `unit` scaled to a squared norm of `mass`, jittered.
  std::vector<double> Scaled(std::vector<double> unit, double mass) {
    const double s = std::sqrt(mass * (0.8 + 0.4 * rng_.NextDouble()));
    for (double& x : unit) x *= s;
    return unit;
  }

  ReferenceMP2 reference_;
  Rng rng_;
  std::vector<Arrival> arrivals_;
};

// kDim orthonormal directions, block after block: each block's
// directions are the rows of a random orthogonal matrix on its own run of
// coordinates, so a Gram built from them is block diagonal, with exact
// zeros off the blocks. The block sizes sum to kDim.
std::vector<std::vector<double>> Directions(
    uint64_t seed, const std::vector<size_t>& blocks = {DesignedStream::kDim}) {
  Rng rng(seed);
  std::vector<std::vector<double>> dirs;
  size_t begin = 0;
  for (size_t size : blocks) {
    const linalg::Matrix q = linalg::RandomOrthogonalMatrix(size, &rng);
    for (size_t i = 0; i < size; ++i) {
      std::vector<double> dir(DesignedStream::kDim, 0.0);
      for (size_t j = 0; j < size; ++j) dir[begin + j] = q(i, j);
      dirs.push_back(std::move(dir));
    }
    begin += size;
  }
  return dirs;
}

std::vector<double> Diagonal(const std::vector<double>& a,
                             const std::vector<double>& b) {
  std::vector<double> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = (a[i] + b[i]) / std::sqrt(2.0);
  return out;
}

class Mp2EquivalenceTest : public ::testing::TestWithParam<double> {};

TEST_P(Mp2EquivalenceTest, MatchesPaperLiteralImplementation) {
  data::SyntheticMatrixConfig cfg;
  cfg.dim = 10;
  cfg.latent_rank = 3;
  cfg.seed = 11;
  ExpectMatchesReference(GetParam(), SyntheticStream(cfg, 4000));
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
  ExpectMatchesReference(GetParam(), SyntheticStream(cfg, 600));
}

// The leading direction u parks just under the threshold, then rows
// orthogonal to it build a fresh direction up past the threshold: only
// the certificate's tau - rho term (mass off u) sees it coming.
TEST_P(Mp2EquivalenceTest, LeaderParkedUnderThresholdThenOrthogonalRows) {
  const auto q = Directions(21);
  DesignedStream s(GetParam());
  for (size_t i = 1; i <= 8; ++i) s.Along(q[i], 0.05, 2);
  s.Along(q[0], 0.93, 40);
  s.Along(q[9], 1.5, 60);
  ExpectMatchesReference(GetParam(), s.arrivals());
}

// Rows at 45 degrees between u (at T/2) and an un-computed direction: the
// top eigenvalue of the sum crosses T while neither diagonal entry of the
// certificate's 2 x 2 does, so only its coupling beta sees it.
TEST_P(Mp2EquivalenceTest, RowsAtFortyFiveDegreesToTheLeader) {
  const auto q = Directions(22);
  DesignedStream s(GetParam());
  for (size_t i = 1; i <= 8; ++i) s.Along(q[i], 0.08, 2);
  s.Along(q[0], 0.5, 20);
  s.Along(Diagonal(q[0], q[9]), 1.2, 100);
  ExpectMatchesReference(GetParam(), s.arrivals());
}

// A block-diagonal Gram, with A = coordinates [0, 16) and B = [16, 44).
// A check on the dense route factors each block on its own, so its
// eigenvectors in A have exact zeros in B; a Krylov check warm-started
// from one then builds its whole 16-row basis inside A, and only the
// trace's `leftover` counts the mass in B. Here that mass includes w at
// T/2, above every computed pair but the one the check ships; then rows
// along w carry it past the threshold.
TEST_P(Mp2EquivalenceTest, UncomputedBlockOutweighsTheKeptPairs) {
  const auto q = Directions(23, {16, 28});
  const std::vector<double>& u = q[0];
  const std::vector<double>& w = q[16];
  DesignedStream s(GetParam());
  s.Along(u, 0.5, 10);
  // A flat spread over 42 directions of both blocks. Every check it
  // triggers after its first 1.6 T finds more than T outside the top 16
  // pairs and takes the dense route, so the last one leaves u, exactly
  // inside A, as the warm seed.
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (size_t i = 1; i < q.size(); ++i) {
      if (i != 16) s.Along(q[i], 0.03, 1);
    }
  }
  s.RaiseThreshold(12.0);   // the spread now sums to about 0.3 T
  s.Along(w, 0.5, 20);
  s.Along(u, 1.0, 40);      // ships u from a basis inside A
  s.Along(w, 1.0, 60);
  ExpectMatchesReference(GetParam(), s.arrivals());
}

// A near tie theta_1 ~ theta_2 under the threshold, with u the first of
// the two. Rows push the second over (a check that ships a direction
// other than u), then a third direction that sat below the tie, then u.
TEST_P(Mp2EquivalenceTest, NearTieAtTheTop) {
  const auto q = Directions(24);
  DesignedStream s(GetParam());
  s.Along(q[2], 0.25, 5);
  for (size_t i = 3; i <= 8; ++i) s.Along(q[i], 0.04, 1);
  for (int i = 0; i < 20; ++i) {
    s.Along(q[0], 0.04, 1);
    s.Along(q[1], 0.04 * (1.0 - 1e-9), 1);
  }
  s.Along(q[1], 0.4, 40);
  s.Along(q[2], 1.2, 60);
  s.Along(q[0], 0.4, 40);
  ExpectMatchesReference(GetParam(), s.arrivals());
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
