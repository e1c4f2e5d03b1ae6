// Sequential tridiagonal solver (the Thomas algorithm) — the paper's
// `seqtri` kernel and the root solve of the substructured algorithm.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "runtime/dist_array.hpp"

namespace kali {

/// Approximate flops per row of a Thomas solve (used for cost charging).
inline constexpr double kThomasFlopsPerRow = 8.0;

/// Solve the tridiagonal system
///   b[i] x[i-1] + a[i] x[i] + c[i] x[i+1] = f[i],   i = 0 .. n-1
/// (b[0] and c[n-1] are ignored).  b, a and c are untouched; f may be x
/// itself.  The system must admit factorization without pivoting (e.g.
/// diagonally dominant).
void thomas_solve(std::span<const double> b, std::span<const double> a,
                  std::span<const double> c, std::span<const double> f,
                  std::span<double> x);

/// The factorization of the n x n constant-coefficient system
///   lo x[i-1] + diag x[i] + up x[i+1] = f[i]:
/// the pivots denom[i] and the multipliers cp[i] = up / denom[i], checked
/// for a zero pivot once.  Every line it solves gets exactly the IEEE
/// operations, in the same order, that thomas_solve gives it, so the
/// results are bit-identical to thomas_solve on the expanded coefficients.
class ConstTridiag {
 public:
  ConstTridiag(double lo, double diag, double up, int n);

  [[nodiscard]] int size() const { return static_cast<int>(denom_.size()); }

  /// Solve one line; f is x itself or disjoint from it.
  void solve(std::span<const double> f, std::span<double> x) const;

  /// Solve every line of x in place (each holds its right-hand side on
  /// entry), with the loop over lines innermost in both sweeps, so the
  /// lines' independent division chains overlap.  Lines 8 or more
  /// elements apart are swept in groups of 8.  x.count may be 0.
  void solve_lines(const StridedLines<double>& x) const;

 private:
  /// Both sweeps over `count` lines from x: element stride s, line stride ls.
  void sweep(double* x, std::ptrdiff_t s, std::ptrdiff_t ls,
             std::ptrdiff_t count) const;

  double lo_;
  std::vector<double> cp_;
  std::vector<double> denom_;
};

/// Constant-coefficient convenience: lo x[i-1] + diag x[i] + up x[i+1] = f.
void thomas_solve_const(double lo, double diag, double up,
                        std::span<const double> f, std::span<double> x);

}  // namespace kali
