// Matrix Protocol 4 (paper Appendix C): the *negative result*.
//
// This is the attempted matrix analogue of heavy-hitter protocol P4. Each
// site keeps its exact covariance G_j = A_j^T A_j and an approximation
// A-hat_j = Z V^T whose right singular basis V never rotates (updating
// A-hat_j = Z V^T preserves V, as the appendix proves). With probability
// 1 - exp(-p‖a‖²), p = 2 sqrt(m)/(eps F-hat), the site refreshes
// z_i = sqrt(‖A_j v_i‖² + 1/p) along every basis direction and ships the
// d-vector z.
//
// The appendix shows why no analysis can bound the error: the norm of A_j
// along directions *between* the frozen v_i is uncontrolled, and the +1/p
// compensation inflates all d directions at once. Figures 6 and 7
// demonstrate the failure empirically; this implementation reproduces it.
//
// As the extension the appendix sketches ("send an FD sketch of A_j every
// sqrt(m) rounds and use it as the new A-hat_j"), the option
// `realign_rounds > 0` re-aligns each site's basis to an FD sketch of its
// full local matrix every that many F-hat broadcasts. It repairs much of
// the error at extra communication — the ablation bench quantifies this.
#ifndef DMT_MATRIX_MP4_EXPERIMENTAL_H_
#define DMT_MATRIX_MP4_EXPERIMENTAL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hh/total_weight.h"
#include "matrix/matrix_protocol.h"
#include "sketch/frequent_directions.h"
#include "stream/network.h"
#include "util/rng.h"

namespace dmt {
namespace matrix {

/// Configuration of the experimental P4 matrix protocol.
struct MP4Options {
  /// Re-align the site bases to a local FD sketch every this many F-hat
  /// broadcast rounds; 0 disables (the paper's plain P4).
  size_t realign_rounds = 0;
  /// Sketch size used for re-alignment (rows of the local FD sketch).
  size_t realign_sketch_rows = 32;
};

/// Randomized diagonal-update protocol (MP4, known-broken by design).
class MP4Experimental : public MatrixTrackingProtocol {
 public:
  MP4Experimental(size_t num_sites, double eps, uint64_t seed,
                  const MP4Options& options = {});

  /// Runs the whole per-row exchange, coordinator half included, so
  /// nothing is ever queued (DrainSite stays the base no-op) and calls
  /// for distinct sites may not run concurrently.
  void SiteUpdate(size_t site, const std::vector<double>& row) override;
  bool SupportsConcurrentSiteUpdates() const override { return false; }
  linalg::Matrix CoordinatorSketch() const override;
  linalg::Matrix CoordinatorGram() const override;
  const stream::CommStats& comm_stats() const override;
  std::vector<uint64_t> per_site_messages() const override {
    return network_.per_site_up();
  }
  std::string name() const override { return "mp4"; }

 private:
  struct SiteState {
    linalg::Matrix gram;          // exact G_j = A_j^T A_j
    linalg::Matrix basis;         // V: columns are the frozen directions
    std::vector<double> z;        // current A-hat_j = diag(z) V^T
    sketch::FrequentDirections local_fd{32};  // only used when realigning
    size_t rounds_at_last_realign = 0;
  };

  double CurrentP() const;
  void SendZ(size_t site);
  void Realign(size_t site);

  double eps_;
  MP4Options options_;
  size_t dim_ = 0;
  stream::Network network_;
  // One generator per site (seed = base ⊕ site); MP4 itself only runs on
  // the serial schedule (its coordinator exchange is interleaved with the
  // site update), but site streams never share a generator anywhere.
  std::vector<Rng> site_rngs_;
  hh::TotalWeightTracker weight_tracker_;
  size_t broadcast_rounds_ = 0;
  std::vector<SiteState> sites_;
  // Coordinator: sum over sites of V diag(z^2) V^T, maintained by replacing
  // each site's contribution when a new z arrives.
  linalg::Matrix coord_gram_;
  std::vector<linalg::Matrix> site_contribution_;
};

}  // namespace matrix
}  // namespace dmt

#endif  // DMT_MATRIX_MP4_EXPERIMENTAL_H_
