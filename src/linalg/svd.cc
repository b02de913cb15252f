#include "linalg/svd.h"

#include <algorithm>

#include "util/check.h"

namespace dmt {
namespace linalg {
namespace {

// The leading r eigenpairs of the Gram `w`, factored in place (row i of
// w becomes eigenvector i), with the eigenvalues clamped at 0.
RightSingular TopOfGram(Matrix w, size_t r) {
  const size_t d = w.rows();
  std::vector<double> lambda(d);
  std::vector<double> scratch(d);
  if (d > 0) {
    SymmetricEigenInPlace(w.Row(0), d, lambda.data(), scratch.data());
  }
  RightSingular out;
  for (size_t i = 0; i < r; ++i) {
    out.squared_sigma.push_back(std::max(0.0, lambda[i]));
  }
  w.ResizeRows(r);
  out.v = w.Transposed();
  return out;
}

}  // namespace

RightSingular RightSingularFromGram(const Matrix& gram) {
  DMT_CHECK_EQ(gram.rows(), gram.cols());
  return TopOfGram(gram, gram.rows());
}

RightSingular RightSingularOf(const Matrix& a) {
  return TopOfGram(a.Gram(), std::min(a.rows(), a.cols()));
}

}  // namespace linalg
}  // namespace dmt
