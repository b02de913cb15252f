// Cache-blocked dense kernels — the numerical core of the library.
//
// Every protocol, sketch and error metric in this repo bottoms out in a
// handful of dense operations: general matrix multiply, the symmetric
// Gram product A^T A, transposition, and (batched) symmetric rank-1
// updates. This header is the one place those inner loops live; the
// Matrix class methods are thin wrappers over these free functions.
//
// Design contract:
//  * All kernels operate on raw row-major spans (`double*` + dimensions).
//    There is no Matrix dependency, so sketches can call them on
//    workspace they own.
//  * Kernels never allocate. The blocked implementations accumulate into
//    fixed-size stack tiles (kRowTile x kColTile doubles, ~2 KiB) sized to
//    stay register/L1 resident; panel blocking (kKTile, kPanelRows) keeps
//    the streamed operand L2-resident. Any larger workspace (e.g. the
//    rotated-row buffer of the Frequent Directions shrink pipeline) is
//    provided by the caller.
//  * Determinism: for a fixed build on a fixed machine, output is a pure
//    function of the input — no threading, a fixed per-element summation
//    order (k ascending within a panel, panels ascending), and a single
//    instruction-set decision. The hot cores ship as a portable baseline
//    plus an AVX2+FMA clone (x86-64 GCC/Clang; define
//    DMT_KERNELS_NO_SIMD_DISPATCH to compile the baseline only); the
//    clone is chosen once per process from CPUID, never per call.
//    Blocking and FMA contraction change the grouping of partial sums
//    versus the naive loops, so results may differ from the pre-kernel
//    code in the last ulps, but they never depend on thread count or
//    call history.
//  * The Naive variants preserve the original (seed) triple loops. They
//    are the reference implementations for the property tests and the
//    baseline for bench/micro_kernels' naive-vs-blocked measurements.
#ifndef DMT_LINALG_KERNELS_H_
#define DMT_LINALG_KERNELS_H_

#include <cstddef>

#include "util/contracts.h"

namespace dmt {
namespace linalg {
namespace kernels {

/// Register-blocked rows per micro-kernel step (MR).
inline constexpr size_t kRowTile = 4;
/// Accumulator tile columns (NR); kRowTile * kColTile doubles live on the
/// stack per tile.
inline constexpr size_t kColTile = 64;
/// k-dimension panel: bounds the B panel streamed per tile to
/// kKTile * kColTile doubles (~128 KiB), which stays L2-resident.
inline constexpr size_t kKTile = 256;
/// Row panel for the symmetric (SYRK/Gram) kernels: the panel of input
/// rows re-streamed per tile, kPanelRows * d doubles.
inline constexpr size_t kPanelRows = 128;
/// Square tile for the blocked transpose.
inline constexpr size_t kTransposeTile = 32;

// ---------------------------------------------------------------------
// GEMM: c = a * b with a (m x k), b (k x n), c (m x n), all row-major.
// `c` is overwritten and must not alias `a` or `b`.
// ---------------------------------------------------------------------

/// Cache-blocked GEMM (register tile kRowTile x kColTile, k panels).
void Gemm(const double* DMT_NOALIAS a, const double* DMT_NOALIAS b,
          double* DMT_NOALIAS c, size_t m, size_t k, size_t n);

/// Reference i-k-j triple loop (the seed Matrix::Multiply).
void GemmNaive(const double* DMT_NOALIAS a, const double* DMT_NOALIAS b,
               double* DMT_NOALIAS c, size_t m, size_t k, size_t n);

// ---------------------------------------------------------------------
// Gram / SYRK: g = (or +=) a^T a with a (n x d), g (d x d).
// Only the upper triangle is computed; the lower is mirrored afterwards,
// so g is exactly symmetric on exit. `g` must not alias `a`.
// ---------------------------------------------------------------------

/// Blocked Gram, overwriting g.
void Gram(const double* DMT_NOALIAS a, size_t n, size_t d,
          double* DMT_NOALIAS g);

/// Blocked Gram accumulation: g += a^T a. `g` must be symmetric on entry
/// (the mirror step copies the updated upper triangle over the lower).
void GramAccumulate(const double* DMT_NOALIAS a, size_t n, size_t d,
                    double* DMT_NOALIAS g);

/// Reference one-pass upper-triangle Gram (the seed Matrix::Gram).
void GramNaive(const double* DMT_NOALIAS a, size_t n, size_t d,
               double* DMT_NOALIAS g);

// ---------------------------------------------------------------------
// Rank-1 updates.
// ---------------------------------------------------------------------

/// g += alpha * v v^T for one vector (v length d, g d x d, full update,
/// no mirror needed; v must not alias g). The workhorse of incremental
/// Gram maintenance. alpha may be negative (e.g. sliding-window
/// retractions); symmetry of g is preserved exactly.
void Rank1Update(double alpha, const double* DMT_NOALIAS v,
                 double* DMT_NOALIAS g, size_t d);

/// Batched symmetric rank-1 updates: g += sum_t alphas[t] * r_t r_t^T,
/// where r_t is row t of `rows` (count x d). One blocked pass over the
/// rows instead of `count` full d^2 sweeps. `g` must be symmetric on
/// entry; alphas may be negative. Pass alphas == nullptr for all-ones
/// (then this is exactly GramAccumulate).
void BatchedRank1(const double* DMT_NOALIAS rows, const double* alphas,
                  size_t count, size_t d, double* DMT_NOALIAS g);

// ---------------------------------------------------------------------
// Transpose and row reductions.
// ---------------------------------------------------------------------

/// out = a^T with a (rows x cols), out (cols x rows), tile-blocked so both
/// sides stream cache lines. `out` must not alias `a`.
void Transpose(const double* DMT_NOALIAS a, size_t rows, size_t cols,
               double* DMT_NOALIAS out);

/// sum_i (row_i . x)^2 over the n rows of a (n x d), x length d — i.e.
/// ‖A·x‖², the directional mass every FD error bound is stated in. One
/// pass over a, no workspace.
double SquaredNormAlong(const double* a, size_t n, size_t d,
                        const double* x);

/// The clone the hot cores dispatch to in this process: "avx2+fma" or
/// "baseline" (bench recordings carry it in their envelope).
const char* SelectedIsa();

}  // namespace kernels
}  // namespace linalg
}  // namespace dmt

#endif  // DMT_LINALG_KERNELS_H_
