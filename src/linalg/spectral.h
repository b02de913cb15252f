// Random vectors and matrices with known spectral structure: unit
// vectors, Gaussian matrices and orthogonal bases (the synthetic
// PAMAP/MSD-like generators and the tests build their inputs from them).
#ifndef DMT_LINALG_SPECTRAL_H_
#define DMT_LINALG_SPECTRAL_H_

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"
#include "util/rng.h"

namespace dmt {
namespace linalg {

/// Random unit vector of dimension d (uniform on the sphere).
std::vector<double> RandomUnitVector(size_t d, Rng* rng);

/// Random n x d matrix with iid N(0,1) entries.
Matrix RandomGaussianMatrix(size_t n, size_t d, Rng* rng);

/// Random d x d orthogonal matrix (QR of a Gaussian matrix via
/// Gram-Schmidt; d is small in this library so the classic procedure with
/// re-orthogonalization is fine).
Matrix RandomOrthogonalMatrix(size_t d, Rng* rng);

}  // namespace linalg
}  // namespace dmt

#endif  // DMT_LINALG_SPECTRAL_H_
