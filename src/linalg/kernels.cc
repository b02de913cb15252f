#include "linalg/kernels.h"

#include <algorithm>

// The hot cores (blocked GEMM and the SYRK upper-triangle accumulator)
// are compiled twice: a portable baseline and, where the toolchain
// supports per-function targets (x86-64 GCC/Clang), an AVX2+FMA clone.
// The clone is selected once per process from CPUID, so for a fixed
// build on a fixed machine the kernels remain pure functions of their
// inputs (see the determinism notes in kernels.h).
#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__) && \
    !defined(DMT_KERNELS_NO_SIMD_DISPATCH)
#define DMT_KERNELS_SIMD_DISPATCH 1
#else
#define DMT_KERNELS_SIMD_DISPATCH 0
#endif

namespace dmt {
namespace linalg {
namespace kernels {
namespace {

#define DMT_KERNEL_NAME(fn) fn##Base
#define DMT_KERNEL_TARGET
#include "linalg/kernels_impl.inc"
#undef DMT_KERNEL_NAME
#undef DMT_KERNEL_TARGET

#if DMT_KERNELS_SIMD_DISPATCH
#define DMT_KERNEL_NAME(fn) fn##Avx2
#define DMT_KERNEL_TARGET __attribute__((target("avx2,fma")))
#include "linalg/kernels_impl.inc"
#undef DMT_KERNEL_NAME
#undef DMT_KERNEL_TARGET

bool UseAvx2() {
  static const bool use =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return use;
}
#endif  // DMT_KERNELS_SIMD_DISPATCH

void SyrkUpperAccumulate(const double* rows, const double* alphas,
                         size_t count, size_t d, double* g) {
  if (count == 0 || d == 0) return;
#if DMT_KERNELS_SIMD_DISPATCH
  if (UseAvx2()) {
    SyrkUpperCoreAvx2(rows, alphas, count, d, g);
    return;
  }
#endif
  SyrkUpperCoreBase(rows, alphas, count, d, g);
}

// Copies the upper triangle over the lower one so g is exactly symmetric.
void MirrorUpperToLower(double* g, size_t d) {
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i + 1; j < d; ++j) g[j * d + i] = g[i * d + j];
  }
}

}  // namespace

DMT_NO_ALLOC
void Gemm(const double* DMT_NOALIAS a, const double* DMT_NOALIAS b,
          double* DMT_NOALIAS c, size_t m, size_t k, size_t n) {
  std::fill(c, c + m * n, 0.0);
  if (m == 0 || n == 0 || k == 0) return;
#if DMT_KERNELS_SIMD_DISPATCH
  if (UseAvx2()) {
    GemmCoreAvx2(a, b, c, m, k, n);
    return;
  }
#endif
  GemmCoreBase(a, b, c, m, k, n);
}

DMT_NO_ALLOC
void GemmNaive(const double* DMT_NOALIAS a, const double* DMT_NOALIAS b,
               double* DMT_NOALIAS c, size_t m, size_t k, size_t n) {
  std::fill(c, c + m * n, 0.0);
  for (size_t i = 0; i < m; ++i) {
    const double* ai = a + i * k;
    double* ci = c + i * n;
    for (size_t kk = 0; kk < k; ++kk) {
      const double aik = ai[kk];
      if (aik == 0.0) continue;
      const double* bk = b + kk * n;
      for (size_t j = 0; j < n; ++j) ci[j] += aik * bk[j];
    }
  }
}

DMT_NO_ALLOC
void Gram(const double* DMT_NOALIAS a, size_t n, size_t d,
          double* DMT_NOALIAS g) {
  std::fill(g, g + d * d, 0.0);
  SyrkUpperAccumulate(a, nullptr, n, d, g);
  MirrorUpperToLower(g, d);
}

DMT_NO_ALLOC
void GramAccumulate(const double* DMT_NOALIAS a, size_t n, size_t d,
                    double* DMT_NOALIAS g) {
  SyrkUpperAccumulate(a, nullptr, n, d, g);
  MirrorUpperToLower(g, d);
}

DMT_NO_ALLOC
void GramNaive(const double* DMT_NOALIAS a, size_t n, size_t d,
               double* DMT_NOALIAS g) {
  std::fill(g, g + d * d, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double* r = a + i * d;
    for (size_t j = 0; j < d; ++j) {
      const double rj = r[j];
      if (rj == 0.0) continue;
      double* gj = g + j * d;
      for (size_t k = j; k < d; ++k) gj[k] += rj * r[k];
    }
  }
  MirrorUpperToLower(g, d);
}

// With the entry pinned at 0 mod 64, GCC 12 starts the 33-byte row loop
// at offset 0x78, across a 64-byte line: MP2's per-row update, most of a
// site's time in pipebench's wire_mp2_tcp, then ran ~13% slower than
// with the entry at 16 or 32 mod 64 (4-vCPU Xeon host with AVX-512).
// Starting this function's loops on a 64-byte line pins the row loop as
// well. Only here: the same option on every hot kernel cost the FD shrink
// path ~7%.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("align-loops=64")))
#endif
DMT_NO_ALLOC
DMT_HOT_KERNEL
void Rank1Update(double alpha, const double* DMT_NOALIAS v,
                 double* DMT_NOALIAS g, size_t d) {
  for (size_t i = 0; i < d; ++i) {
    const double avi = alpha * v[i];
    if (avi == 0.0) continue;
    double* gi = g + i * d;
    for (size_t j = 0; j < d; ++j) gi[j] += avi * v[j];
  }
}

DMT_NO_ALLOC
void BatchedRank1(const double* DMT_NOALIAS rows, const double* alphas,
                  size_t count, size_t d, double* DMT_NOALIAS g) {
  SyrkUpperAccumulate(rows, alphas, count, d, g);
  MirrorUpperToLower(g, d);
}

DMT_NO_ALLOC
DMT_HOT_KERNEL
void Transpose(const double* DMT_NOALIAS a, size_t rows, size_t cols,
               double* DMT_NOALIAS out) {
  for (size_t i0 = 0; i0 < rows; i0 += kTransposeTile) {
    const size_t iend = std::min(i0 + kTransposeTile, rows);
    for (size_t j0 = 0; j0 < cols; j0 += kTransposeTile) {
      const size_t jend = std::min(j0 + kTransposeTile, cols);
      for (size_t i = i0; i < iend; ++i) {
        const double* ai = a + i * cols;
        for (size_t j = j0; j < jend; ++j) out[j * rows + i] = ai[j];
      }
    }
  }
}

double SquaredNormAlong(const double* a, size_t n, size_t d,
                        const double* x) {
  double total = 0.0;
  size_t i = 0;
  // Four rows per pass so each loaded x[j] feeds four dot products.
  for (; i + kRowTile <= n; i += kRowTile) {
    const double* r0 = a + (i + 0) * d;
    const double* r1 = a + (i + 1) * d;
    const double* r2 = a + (i + 2) * d;
    const double* r3 = a + (i + 3) * d;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t j = 0; j < d; ++j) {
      const double xj = x[j];
      s0 += r0[j] * xj;
      s1 += r1[j] * xj;
      s2 += r2[j] * xj;
      s3 += r3[j] * xj;
    }
    total += s0 * s0 + s1 * s1 + s2 * s2 + s3 * s3;
  }
  for (; i < n; ++i) {
    const double* r = a + i * d;
    double s = 0.0;
    for (size_t j = 0; j < d; ++j) s += r[j] * x[j];
    total += s * s;
  }
  return total;
}

}  // namespace kernels
}  // namespace linalg
}  // namespace dmt
