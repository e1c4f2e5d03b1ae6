// Wall-clock microbenchmarks of the sequential kernels (google-benchmark).
//
// These measure the real host, not the simulated machine: they exist to
// keep the sequential building blocks honest (the cost model charges flops;
// these verify the kernels are not accidentally quadratic).
#include <benchmark/benchmark.h>

#include <complex>
#include <vector>

#include "kernels/fft.hpp"
#include "kernels/reduce_block.hpp"
#include "kernels/spline.hpp"
#include "kernels/thomas.hpp"
#include "support/rng.hpp"

namespace kali {
namespace {

void make_system(int n, std::vector<double>& b, std::vector<double>& a,
                 std::vector<double>& c, std::vector<double>& f) {
  Rng rng(5);
  const auto un = static_cast<std::size_t>(n);
  b.assign(un, 0.0);
  a.assign(un, 0.0);
  c.assign(un, 0.0);
  f.assign(un, 0.0);
  for (std::size_t i = 0; i < un; ++i) {
    b[i] = i == 0 ? 0.0 : rng.uniform(-1, 1);
    c[i] = i + 1 == un ? 0.0 : rng.uniform(-1, 1);
    a[i] = std::abs(b[i]) + std::abs(c[i]) + rng.uniform(1.0, 2.0);
    f[i] = rng.uniform(-10, 10);
  }
}

void BM_Thomas(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<double> b, a, c, f, x(static_cast<std::size_t>(n));
  make_system(n, b, a, c, f);
  for (auto _ : state) {
    thomas_solve(b, a, c, f, x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Thomas)->Arg(256)->Arg(4096)->Arg(65536);

/// 16 constant-coefficient lines of 1024 solved by one solve_lines call:
/// contiguous rows (arg 0) or interleaved columns of stride 16 (arg 1).
/// Each iteration re-solves the previous solution, with no reset to time:
/// the eigenvalues of tridiag(-0.25, 1.5, -0.25) lie in (1, 2), so a
/// re-solve never grows the values and shrinks the smoothest mode by
/// less than 1e-5, far from subnormals for any run length.
void BM_ThomasLines(benchmark::State& state) {
  constexpr int kN = 1024, kLines = 16;
  const bool columns = state.range(0) != 0;
  Rng rng(5);
  std::vector<double> x(static_cast<std::size_t>(kN * kLines));
  for (auto& v : x) {
    v = rng.uniform(-10, 10);
  }
  const ConstTridiag tri(-0.25, 1.5, -0.25, kN);
  const StridedLines<double> lines =
      columns ? StridedLines<double>{{x.data(), kLines, kN}, 1, kLines}
              : StridedLines<double>{{x.data(), 1, kN}, kN, kLines};
  for (auto _ : state) {
    tri.solve_lines(lines);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * kN * kLines);
}
BENCHMARK(BM_ThomasLines)->Arg(0)->Arg(1);

void BM_ReduceBlock(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<double> b, a, c, f;
  for (auto _ : state) {
    state.PauseTiming();
    make_system(n, b, a, c, f);
    state.ResumeTiming();
    reduce_block(b, a, c, f);
    benchmark::DoNotOptimize(f.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ReduceBlock)->Arg(256)->Arg(4096);

void BM_Fft(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  std::vector<std::complex<double>> v(static_cast<std::size_t>(n));
  for (auto& z : v) {
    z = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  for (auto _ : state) {
    fft_inplace(v, false);
    fft_inplace(v, true);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Fft)->Arg(1024)->Arg(16384);

void BM_SplineMoments(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<double> y(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    y[static_cast<std::size_t>(i)] = std::sin(0.05 * i);
  }
  for (auto _ : state) {
    auto mts = spline_moments(y, 0.1);
    benchmark::DoNotOptimize(mts.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SplineMoments)->Arg(256)->Arg(4096);

}  // namespace
}  // namespace kali

BENCHMARK_MAIN();
