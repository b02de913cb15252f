#include "linalg/vec_ops.h"

#include <cmath>

#include "util/check.h"
#include "util/contracts.h"

namespace dmt {
namespace linalg {

DMT_HOT_KERNEL
double Dot(const double* a, const double* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

DMT_HOT_KERNEL
void DotRows(const double* a, size_t n, size_t d, const double* x,
             double* y) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* a0 = a + i * d;
    const double* a1 = a0 + d;
    const double* a2 = a1 + d;
    const double* a3 = a2 + d;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t t = 0; t < d; ++t) {
      s0 += a0[t] * x[t];
      s1 += a1[t] * x[t];
      s2 += a2[t] * x[t];
      s3 += a3[t] * x[t];
    }
    y[i] = s0;
    y[i + 1] = s1;
    y[i + 2] = s2;
    y[i + 3] = s3;
  }
  for (; i < n; ++i) y[i] = Dot(a + i * d, x, d);
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  DMT_CHECK_EQ(a.size(), b.size());
  return Dot(a.data(), b.data(), a.size());
}

double SquaredNorm(const double* a, size_t n) { return Dot(a, a, n); }

double SquaredNorm(const std::vector<double>& a) {
  return SquaredNorm(a.data(), a.size());
}

double Norm(const double* a, size_t n) { return std::sqrt(SquaredNorm(a, n)); }

double Norm(const std::vector<double>& a) {
  return Norm(a.data(), a.size());
}

DMT_HOT_KERNEL
void Axpy(double alpha, const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void Scale(double alpha, double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

double Normalize(std::vector<double>* x) {
  double nrm = Norm(*x);
  if (nrm > 0.0) Scale(1.0 / nrm, x->data(), x->size());
  return nrm;
}

}  // namespace linalg
}  // namespace dmt
