#include "kernels/thomas.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace kali {
namespace {

// Dense residual check: ||A x - f||_inf.
double residual_inf(std::span<const double> b, std::span<const double> a,
                    std::span<const double> c, std::span<const double> f,
                    std::span<const double> x) {
  const std::size_t n = a.size();
  double r = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double ax = a[i] * x[i];
    if (i > 0) {
      ax += b[i] * x[i - 1];
    }
    if (i + 1 < n) {
      ax += c[i] * x[i + 1];
    }
    r = std::max(r, std::abs(ax - f[i]));
  }
  return r;
}

void random_dominant_system(Rng& rng, std::size_t n, std::vector<double>& b,
                            std::vector<double>& a, std::vector<double>& c,
                            std::vector<double>& f) {
  b.assign(n, 0.0);
  a.assign(n, 0.0);
  c.assign(n, 0.0);
  f.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = i == 0 ? 0.0 : rng.uniform(-1.0, 1.0);
    c[i] = i + 1 == n ? 0.0 : rng.uniform(-1.0, 1.0);
    a[i] = std::abs(b[i]) + std::abs(c[i]) + rng.uniform(1.0, 2.0);
    f[i] = rng.uniform(-10.0, 10.0);
  }
}

TEST(Thomas, SolvesIdentity) {
  std::vector<double> b{0, 0, 0}, a{1, 1, 1}, c{0, 0, 0}, f{3, -1, 2}, x(3);
  thomas_solve(b, a, c, f, x);
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], -1.0);
  EXPECT_DOUBLE_EQ(x[2], 2.0);
}

TEST(Thomas, SolvesKnownLaplacianSystem) {
  // -x_{i-1} + 2 x_i - x_{i+1} = h^2, Dirichlet -> parabola.
  const int n = 15;
  std::vector<double> b(n, -1.0), a(n, 2.0), c(n, -1.0), f(n, 1.0), x(n);
  thomas_solve(b, a, c, f, x);
  // Exact solution of the discrete problem: x_i = (i+1)(n-i)/2.
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], 0.5 * (i + 1) * (n - i), 1e-10);
  }
}

class ThomasP : public ::testing::TestWithParam<int> {};

TEST_P(ThomasP, RandomDominantSystemsHaveTinyResidual) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(1234 + n);
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<double> b, a, c, f, x(n);
    random_dominant_system(rng, n, b, a, c, f);
    thomas_solve(b, a, c, f, x);
    EXPECT_LT(residual_inf(b, a, c, f, x), 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ThomasP, ::testing::Values(1, 2, 3, 5, 16, 64, 257));

TEST(Thomas, ConstCoefficientMatchesGeneral) {
  const std::size_t n = 20;
  std::vector<double> f(n), x1(n), x2(n);
  Rng rng(9);
  for (auto& v : f) {
    v = rng.uniform(-1, 1);
  }
  thomas_solve_const(-1.0, 4.0, -1.0, f, x1);
  std::vector<double> b(n, -1.0), a(n, 4.0), c(n, -1.0);
  thomas_solve(b, a, c, f, x2);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(x1[i], x2[i]);
  }
}

// solve_lines against thomas_solve on the expanded coefficients, line by
// line and bit for bit: nlines lines of n cells, cell i of line l at
// x[l * line_stride + i * stride].
void expect_lines_match_thomas(int n, int nlines, std::ptrdiff_t stride,
                               std::ptrdiff_t line_stride) {
  SCOPED_TRACE(::testing::Message() << "n=" << n << " nlines=" << nlines
                                    << " stride=" << stride
                                    << " line_stride=" << line_stride);
  const double lo = -1.25, diag = 3.5, up = -0.75;
  const auto un = static_cast<std::size_t>(n);
  const auto span = static_cast<std::size_t>(
      std::max<std::ptrdiff_t>(1, nlines * line_stride + n * stride));
  Rng rng(static_cast<std::uint64_t>(31 * n + nlines));
  std::vector<double> x(span);
  for (auto& v : x) {
    v = rng.uniform(-10.0, 10.0);
  }
  std::vector<double> want = x;
  std::vector<double> b(un, lo), a(un, diag), c(un, up), f(un), line(un);
  for (int l = 0; l < nlines; ++l) {
    for (int i = 0; i < n; ++i) {
      f[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(l * line_stride + i * stride)];
    }
    thomas_solve(b, a, c, f, line);
    for (int i = 0; i < n; ++i) {
      want[static_cast<std::size_t>(l * line_stride + i * stride)] =
          line[static_cast<std::size_t>(i)];
    }
  }
  ConstTridiag(lo, diag, up, n).solve_lines({{x.data(), stride, n}, line_stride, nlines});
  // Every cell, solved or not, holds exactly the expected bits.
  EXPECT_EQ(std::memcmp(x.data(), want.data(), x.size() * sizeof(double)), 0);
}

class ConstTridiagP : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ConstTridiagP, ContiguousLinesMatchThomasBitForBit) {
  const auto [n, nlines] = GetParam();
  expect_lines_match_thomas(n, nlines, 1, n);      // rows, packed
  expect_lines_match_thomas(n, nlines, 1, n + 3);  // rows, padded
}

TEST_P(ConstTridiagP, StridedLinesMatchThomasBitForBit) {
  const auto [n, nlines] = GetParam();
  expect_lines_match_thomas(n, nlines, nlines + 1, 1);      // columns
  expect_lines_match_thomas(n, nlines, 2 * nlines + 3, 2);  // every other column
}

INSTANTIATE_TEST_SUITE_P(Sizes, ConstTridiagP,
                         ::testing::Combine(::testing::Values(1, 2, 3, 63, 1024),
                                            ::testing::Values(0, 1, 7, 16)));

TEST(Thomas, AliasedRightHandSideSolvesInPlace) {
  const std::size_t n = 63;
  Rng rng(17);
  std::vector<double> b, a, c, f;
  random_dominant_system(rng, n, b, a, c, f);
  std::vector<double> want(n);
  thomas_solve(b, a, c, f, want);
  std::vector<double> x = f;
  thomas_solve(b, a, c, x, x);
  EXPECT_EQ(std::memcmp(x.data(), want.data(), n * sizeof(double)), 0);

  const ConstTridiag tri(-1.0, 4.0, -1.0, static_cast<int>(n));
  std::vector<double> bc(n, -1.0), ac(n, 4.0), cc(n, -1.0);
  thomas_solve(bc, ac, cc, f, want);
  x = f;
  tri.solve(x, x);
  EXPECT_EQ(std::memcmp(x.data(), want.data(), n * sizeof(double)), 0);
  std::vector<double> y(n);
  tri.solve(f, y);
  EXPECT_EQ(std::memcmp(y.data(), want.data(), n * sizeof(double)), 0);
}

TEST(Thomas, ConstFactorizationRejectsZeroPivot) {
  // diag 0: the first pivot; 1, 1, 1: the second (1 - 1 * 1/1).
  for (const auto& [lo, diag, up] :
       {std::tuple{1.0, 0.0, 1.0}, std::tuple{1.0, 1.0, 1.0}}) {
    try {
      const ConstTridiag tri(lo, diag, up, 4);
      ADD_FAILURE() << "no throw for diag " << diag;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("thomas: zero pivot"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(ConstTridiag(-1.0, 4.0, -1.0, 0), Error);
}

TEST(Thomas, ConstFactorizationRejectsSizeMismatch) {
  const ConstTridiag tri(-1.0, 4.0, -1.0, 5);
  std::vector<double> f(4), x(5), cells(10);
  EXPECT_THROW(tri.solve(f, x), Error);
  EXPECT_THROW(tri.solve_lines({{cells.data(), 1, 4}, 4, 2}), Error);
}

TEST(Thomas, SizeMismatchThrows) {
  std::vector<double> b(3), a(4), c(4), f(4), x(4);
  EXPECT_THROW(thomas_solve(b, a, c, f, x), Error);
}

TEST(Thomas, ZeroPivotThrows) {
  std::vector<double> b{0, 1}, a{0, 1}, c{1, 0}, f{1, 1}, x(2);
  EXPECT_THROW(thomas_solve(b, a, c, f, x), Error);
}

}  // namespace
}  // namespace kali
