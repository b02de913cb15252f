#include "linalg/vec_ops.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

namespace dmt {
namespace linalg {
namespace {

TEST(VecOpsTest, DotBasic) {
  std::vector<double> a{1.0, 2.0, 3.0};
  std::vector<double> b{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 4.0 - 10.0 + 18.0);
}

TEST(VecOpsTest, DotEmpty) {
  std::vector<double> a, b;
  EXPECT_DOUBLE_EQ(Dot(a, b), 0.0);
}

// DotRows is Dot row by row, bit for bit: through the four-row blocks
// and the tail rows, on entries spread over 40 binades so that any
// change in summation order would show in the last bits.
TEST(VecOpsTest, DotRowsMatchesDotBitForBit) {
  for (size_t n : {0, 1, 3, 4, 5, 9, 44}) {
    for (size_t d : {0, 1, 7, 44}) {
      std::vector<double> a(n * d + 1), x(d + 1);
      for (size_t t = 0; t < a.size(); ++t) {
        a[t] = std::ldexp(std::sin(0.7 * static_cast<double>(t) + 0.1),
                          static_cast<int>((t * 7) % 41) - 20);
      }
      for (size_t t = 0; t < x.size(); ++t) {
        x[t] = std::ldexp(std::cos(1.3 * static_cast<double>(t)),
                          static_cast<int>((t * 11) % 37) - 18);
      }
      const double sentinel = -12345.0;
      std::vector<double> y(n + 1, sentinel);
      DotRows(a.data(), n, d, x.data(), y.data());
      for (size_t i = 0; i < n; ++i) {
        const double ref = Dot(a.data() + i * d, x.data(), d);
        EXPECT_EQ(std::memcmp(&y[i], &ref, sizeof(double)), 0)
            << "n=" << n << " d=" << d << " row " << i << ": " << y[i]
            << " vs " << ref;
      }
      EXPECT_EQ(y[n], sentinel) << "n=" << n << " d=" << d;
    }
  }
}

TEST(VecOpsTest, SquaredNormMatchesDotWithSelf) {
  std::vector<double> a{1.5, -2.5, 0.0, 4.0};
  EXPECT_DOUBLE_EQ(SquaredNorm(a), Dot(a, a));
}

TEST(VecOpsTest, NormOfUnitAxis) {
  std::vector<double> e{0.0, 1.0, 0.0};
  EXPECT_DOUBLE_EQ(Norm(e), 1.0);
}

TEST(VecOpsTest, AxpyAccumulates) {
  std::vector<double> x{1.0, 2.0};
  std::vector<double> y{10.0, 20.0};
  Axpy(3.0, x.data(), y.data(), 2);
  EXPECT_DOUBLE_EQ(y[0], 13.0);
  EXPECT_DOUBLE_EQ(y[1], 26.0);
}

TEST(VecOpsTest, ScaleInPlace) {
  std::vector<double> x{2.0, -4.0};
  Scale(0.5, x.data(), 2);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], -2.0);
}

TEST(VecOpsTest, NormalizeReturnsPriorNormAndUnitResult) {
  std::vector<double> x{3.0, 4.0};
  double prior = Normalize(&x);
  EXPECT_DOUBLE_EQ(prior, 5.0);
  EXPECT_NEAR(Norm(x), 1.0, 1e-15);
  EXPECT_DOUBLE_EQ(x[0], 0.6);
  EXPECT_DOUBLE_EQ(x[1], 0.8);
}

TEST(VecOpsTest, NormalizeZeroVectorIsNoop) {
  std::vector<double> x{0.0, 0.0, 0.0};
  double prior = Normalize(&x);
  EXPECT_DOUBLE_EQ(prior, 0.0);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

}  // namespace
}  // namespace linalg
}  // namespace dmt
