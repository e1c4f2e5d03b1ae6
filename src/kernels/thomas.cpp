#include "kernels/thomas.hpp"

#include <algorithm>
#include <cstdlib>

#include "support/check.hpp"

namespace kali {

void thomas_solve(std::span<const double> b, std::span<const double> a,
                  std::span<const double> c, std::span<const double> f,
                  std::span<double> x) {
  const std::size_t n = a.size();
  KALI_CHECK(n >= 1, "empty system");
  KALI_CHECK(b.size() == n && c.size() == n && f.size() == n && x.size() == n,
             "thomas: size mismatch");
  // The forward sweep's values land in x; only the multipliers need room.
  std::vector<double> cp(n);
  KALI_CHECK(a[0] != 0.0, "thomas: zero pivot");
  cp[0] = c[0] / a[0];
  x[0] = f[0] / a[0];
  for (std::size_t i = 1; i < n; ++i) {
    const double denom = a[i] - b[i] * cp[i - 1];
    KALI_CHECK(denom != 0.0, "thomas: zero pivot");
    cp[i] = c[i] / denom;
    x[i] = (f[i] - b[i] * x[i - 1]) / denom;
  }
  for (std::size_t i = n - 1; i-- > 0;) {
    x[i] -= cp[i] * x[i + 1];
  }
}

ConstTridiag::ConstTridiag(double lo, double diag, double up, int n) : lo_(lo) {
  KALI_CHECK(n >= 1, "empty system");
  const auto un = static_cast<std::size_t>(n);
  cp_.resize(un);
  denom_.resize(un);
  KALI_CHECK(diag != 0.0, "thomas: zero pivot");
  denom_[0] = diag;
  cp_[0] = up / diag;
  for (std::size_t i = 1; i < un; ++i) {
    denom_[i] = diag - lo * cp_[i - 1];
    KALI_CHECK(denom_[i] != 0.0, "thomas: zero pivot");
    cp_[i] = up / denom_[i];
  }
}

void ConstTridiag::solve(std::span<const double> f, std::span<double> x) const {
  const int n = size();
  KALI_CHECK(f.size() == denom_.size() && x.size() == denom_.size(),
             "thomas: size mismatch");
  if (f.data() != x.data()) {
    std::copy(f.begin(), f.end(), x.begin());
  }
  solve_lines({{x.data(), 1, n}, 0, 1});
}

void ConstTridiag::solve_lines(const StridedLines<double>& x) const {
  if (x.count <= 0) {
    return;
  }
  KALI_CHECK(x.first.n == size(), "thomas: size mismatch");
  // Lines a cache line or more apart (the rows of a row-major slab) each
  // hold their own cache line at every step, and when the line stride is
  // a multiple of the L1 way size (rows of 1024 doubles) all those lines
  // fall in one L1 set: more lines than the set has ways evict each other
  // at every step.  Such batches are swept 8 lines at a time.
  const std::ptrdiff_t group = std::abs(x.line_stride) >= 8 ? 8 : x.count;
  for (std::ptrdiff_t l0 = 0; l0 < x.count; l0 += group) {
    sweep(x.first.data + l0 * x.line_stride, x.first.stride, x.line_stride,
          std::min<std::ptrdiff_t>(group, x.count - l0));
  }
}

void ConstTridiag::sweep(double* x, std::ptrdiff_t s, std::ptrdiff_t ls,
                         std::ptrdiff_t count) const {
  const std::size_t n = denom_.size();
  // Forward sweep: x[0] /= denom[0], x[i] = (x[i] - lo x[i-1]) / denom[i].
  double* xi = x;
  for (std::ptrdiff_t l = 0; l < count; ++l) {
    xi[l * ls] /= denom_[0];
  }
  for (std::size_t i = 1; i < n; ++i) {
    const double d = denom_[i];
    const double* xp = xi;
    xi += s;
    for (std::ptrdiff_t l = 0; l < count; ++l) {
      xi[l * ls] = (xi[l * ls] - lo_ * xp[l * ls]) / d;
    }
  }
  // Back sweep: x[i] -= cp[i] x[i+1].
  for (std::size_t i = n - 1; i-- > 0;) {
    const double c = cp_[i];
    const double* xn = xi;
    xi -= s;
    for (std::ptrdiff_t l = 0; l < count; ++l) {
      xi[l * ls] -= c * xn[l * ls];
    }
  }
}

void thomas_solve_const(double lo, double diag, double up,
                        std::span<const double> f, std::span<double> x) {
  ConstTridiag(lo, diag, up, static_cast<int>(f.size())).solve(f, x);
}

}  // namespace kali
