// Dense vector kernels shared by the matrix class and the sketches.
//
// Vectors are plain std::vector<double> / raw spans; these free functions
// are the only place inner loops live, so they are easy to audit and to
// vectorize.
#ifndef DMT_LINALG_VEC_OPS_H_
#define DMT_LINALG_VEC_OPS_H_

#include <cstddef>
#include <vector>

namespace dmt {
namespace linalg {

/// Dot product of two length-`n` arrays.
double Dot(const double* a, const double* b, size_t n);
double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// y[i] = Dot(a + i*d, x, d) for the n rows of the row-major n x d array
/// `a`, bit for bit: each row keeps Dot's summation order, but four rows
/// share one pass over x so their running sums overlap. `y` must not
/// alias `a` or `x`.
void DotRows(const double* a, size_t n, size_t d, const double* x,
             double* y);

/// Squared Euclidean norm.
double SquaredNorm(const double* a, size_t n);
double SquaredNorm(const std::vector<double>& a);

/// Euclidean norm.
double Norm(const double* a, size_t n);
double Norm(const std::vector<double>& a);

/// y += alpha * x (length n).
void Axpy(double alpha, const double* x, double* y, size_t n);

/// x *= alpha (length n).
void Scale(double alpha, double* x, size_t n);

/// Normalizes `x` to unit Euclidean norm in place; returns the prior norm.
/// If the norm is zero the vector is left untouched and 0 is returned.
double Normalize(std::vector<double>* x);

}  // namespace linalg
}  // namespace dmt

#endif  // DMT_LINALG_VEC_OPS_H_
