#include "linalg/spectral.h"

#include "linalg/vec_ops.h"
#include "util/check.h"

namespace dmt {
namespace linalg {

std::vector<double> RandomUnitVector(size_t d, Rng* rng) {
  std::vector<double> x(d);
  for (auto& xi : x) xi = rng->NextGaussian();
  double nrm = Normalize(&x);
  if (nrm == 0.0 && d > 0) x[0] = 1.0;
  return x;
}

Matrix RandomGaussianMatrix(size_t n, size_t d, Rng* rng) {
  Matrix m(n, d);
  for (size_t i = 0; i < n; ++i) {
    double* r = m.Row(i);
    for (size_t j = 0; j < d; ++j) r[j] = rng->NextGaussian();
  }
  return m;
}

Matrix RandomOrthogonalMatrix(size_t d, Rng* rng) {
  // Modified Gram-Schmidt with one re-orthogonalization pass on the columns
  // of a Gaussian matrix.
  Matrix g = RandomGaussianMatrix(d, d, rng);
  for (size_t j = 0; j < d; ++j) {
    std::vector<double> col = g.ColVector(j);
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t k = 0; k < j; ++k) {
        std::vector<double> prev = g.ColVector(k);
        double proj = Dot(col, prev);
        Axpy(-proj, prev.data(), col.data(), d);
      }
    }
    double nrm = Normalize(&col);
    DMT_CHECK_GT(nrm, 0.0);
    for (size_t i = 0; i < d; ++i) g(i, j) = col[i];
  }
  return g;
}

}  // namespace linalg
}  // namespace dmt
