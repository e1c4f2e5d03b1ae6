// Bit-for-bit pins of the solver kernels.  The other solver suites compare
// variants with each other or against tolerances, so a refactor that
// reorders a stencil sum (or reads a neighbour through the wrong offset in
// a way that still converges) would pass them.  These tests hash the whole
// gathered solution, plus the solver's own residual norm, with FNV-1a and
// compare against digests recorded from the per-element at()/at_halo()
// kernels: any change to a single bit of any value fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "machine/context.hpp"
#include "runtime/io.hpp"
#include "solvers/adi.hpp"
#include "solvers/mg2.hpp"
#include "solvers/mg3.hpp"

namespace kali {
namespace {

MachineConfig quiet_config() {
  MachineConfig cfg;
  cfg.recv_timeout_wall = 60.0;
  return cfg;
}

std::uint64_t fnv1a(const std::vector<double>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (double x : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((bits >> (8 * b)) & 0xffU)) * 1099511628211ULL;
    }
  }
  return h;
}

/// The digest of the gathered field with the residual norm appended.
template <int R>
std::uint64_t digest(const DistArray<double, R>& u, double norm) {
  std::vector<double> all = gather_all(u);
  all.push_back(norm);
  return fnv1a(all);
}

/// Two V-cycles of mg2 on an nx x ny Poisson problem over p ranks (16 x 32
/// over four by default); the coarse levels agglomerate onto one rank, so
/// every transfer path runs.
std::uint64_t mg2_digest(Overlap overlap, bool fused, int p = 4, int nx = 16,
                         int ny = 32) {
  std::uint64_t out = 0;
  Machine m(p, quiet_config());
  m.run([&](Context& ctx) {
    Op2 op;
    op.axx = op.ayy = 1.0;
    op.hx = 1.0 / nx;
    op.hy = 1.0 / ny;
    using D2 = DistArray2<double>;
    const typename D2::Dists dists{DimDist::star(), DimDist::block_dist()};
    const ProcView pv = ProcView::grid1(p);
    D2 u(ctx, pv, {nx + 1, ny + 1}, dists, {0, 1});
    D2 f(ctx, pv, {nx + 1, ny + 1}, dists);
    f.fill([&](std::array<int, 2> g) {
      return rhs2(op, g[0] * op.hx, g[1] * op.hy);
    });
    Mg2Options opts;
    opts.overlap = overlap;
    opts.fused_level_remap = fused;
    for (int c = 0; c < 2; ++c) {
      mg2_cycle(op, u, f, opts);
    }
    const std::uint64_t d = digest(u, mg2_residual_norm(op, u, f));
    if (ctx.rank() == 0) {
      out = d;
    }
  });
  return out;
}

/// Two V-cycles of mg3 on a 16^3 problem over a 2 x 4 grid; z coarsening
/// agglomerates onto one processor column after the first level.
std::uint64_t mg3_digest(Overlap overlap, bool fused) {
  const int n = 16;
  std::uint64_t out = 0;
  Machine m(8, quiet_config());
  m.run([&](Context& ctx) {
    Op3 op;
    op.axx = op.ayy = op.azz = 1.0;
    op.hx = op.hy = op.hz = 1.0 / n;
    using D3 = DistArray3<double>;
    const typename D3::Dists dists{DimDist::star(), DimDist::block_dist(),
                                   DimDist::block_dist()};
    const ProcView pv = ProcView::grid2(2, 4);
    D3 u(ctx, pv, {n + 1, n + 1, n + 1}, dists, {0, 1, 1});
    D3 f(ctx, pv, {n + 1, n + 1, n + 1}, dists);
    f.fill([&](std::array<int, 3> g) {
      return rhs3(op, g[0] * op.hx, g[1] * op.hy, g[2] * op.hz);
    });
    Mg3Options opts;
    opts.overlap = overlap;
    opts.plane_mg2.overlap = overlap;
    opts.fused_level_remap = fused;
    opts.plane_mg2.fused_level_remap = fused;
    for (int c = 0; c < 2; ++c) {
      mg3_cycle(op, u, f, opts);
    }
    const std::uint64_t d = digest(u, mg3_residual_norm(op, u, f));
    if (ctx.rank() == 0) {
      out = d;
    }
  });
  return out;
}

/// Three ADI iterations on an nx x ny problem over a px x py grid (24 x 24
/// over 2 x 2 by default).
std::uint64_t adi_digest(bool transpose, bool pipelined, Overlap overlap,
                         int nx = 24, int ny = 24, int px = 2, int py = 2) {
  std::uint64_t out = 0;
  Machine m(px * py, quiet_config());
  m.run([&](Context& ctx) {
    AdiOptions opts;
    opts.op.axx = opts.op.ayy = 1.0;
    opts.op.hx = 1.0 / (nx + 1);
    opts.op.hy = 1.0 / (ny + 1);
    opts.tau = adi_default_tau(opts.op, nx);
    opts.transpose = transpose;
    opts.pipelined = pipelined;
    opts.overlap = overlap;
    using D2 = DistArray2<double>;
    const typename D2::Dists dists{DimDist::block_dist(), DimDist::block_dist()};
    const ProcView pv = ProcView::grid2(px, py);
    D2 u(ctx, pv, {nx, ny}, dists, {1, 1});
    D2 f(ctx, pv, {nx, ny}, dists);
    f.fill([&](std::array<int, 2> g) {
      return rhs2(opts.op, (g[0] + 1) * opts.op.hx, (g[1] + 1) * opts.op.hy);
    });
    const double norm = adi_solve(opts, u, f, 3);
    const std::uint64_t d = digest(u, norm);
    if (ctx.rank() == 0) {
      out = d;
    }
  });
  return out;
}

// Recorded from the per-element kernels.  Overlap and the fused level
// switch change clocks and messages, never values, so each solver has one
// digest for all its variants; the Listing 7 and 8 line solvers agree
// bit for bit, the transpose form (a different sweep order) does not.
constexpr std::uint64_t kMg2Digest = 0x3e2010b7d27abe33ULL;
constexpr std::uint64_t kMg3Digest = 0x1191864d550e57f3ULL;
constexpr std::uint64_t kAdiTransposeDigest = 0x33a9ad058776e1e5ULL;
constexpr std::uint64_t kAdiLineDigest = 0xc19a7a7c7f132b30ULL;
// Recorded from the one-line-at-a-time Thomas solves, before the batched
// line solver.  Mg2 on 16 x 16 over six ranks: the last rank owns line 15
// alone, so its even-line sweeps solve an empty batch.  ADI transpose on
// 23 x 17 over 2 x 3: every layout splits its rows and columns unevenly.
constexpr std::uint64_t kMg2SixRankDigest = 0x969843fb2c8b912eULL;
constexpr std::uint64_t kAdiTransposeUnevenDigest = 0xf8aeae80cc0e87fdULL;

TEST(SolverDigest, Mg2CycleBlocking) {
  EXPECT_EQ(mg2_digest(Overlap::kOff, true), kMg2Digest);
}

TEST(SolverDigest, Mg2CycleOverlap) {
  EXPECT_EQ(mg2_digest(Overlap::kOn, true), kMg2Digest);
}

TEST(SolverDigest, Mg2CycleUnfusedLevelSwitch) {
  EXPECT_EQ(mg2_digest(Overlap::kOff, false), kMg2Digest);
}

TEST(SolverDigest, Mg2CycleSixRanks) {
  EXPECT_EQ(mg2_digest(Overlap::kOff, true, 6, 16, 16), kMg2SixRankDigest);
}

TEST(SolverDigest, Mg2CycleSixRanksOverlap) {
  EXPECT_EQ(mg2_digest(Overlap::kOn, true, 6, 16, 16), kMg2SixRankDigest);
}

TEST(SolverDigest, Mg3CycleBlocking) {
  EXPECT_EQ(mg3_digest(Overlap::kOff, true), kMg3Digest);
}

TEST(SolverDigest, Mg3CycleOverlap) {
  EXPECT_EQ(mg3_digest(Overlap::kOn, true), kMg3Digest);
}

TEST(SolverDigest, Mg3CycleUnfusedLevelSwitch) {
  EXPECT_EQ(mg3_digest(Overlap::kOff, false), kMg3Digest);
}

TEST(SolverDigest, AdiTranspose) {
  EXPECT_EQ(adi_digest(true, false, Overlap::kOff), kAdiTransposeDigest);
}

TEST(SolverDigest, AdiTransposeOverlap) {
  EXPECT_EQ(adi_digest(true, false, Overlap::kOn), kAdiTransposeDigest);
}

TEST(SolverDigest, AdiTransposeUneven) {
  EXPECT_EQ(adi_digest(true, false, Overlap::kOff, 23, 17, 2, 3),
            kAdiTransposeUnevenDigest);
}

TEST(SolverDigest, AdiTransposeUnevenOverlap) {
  EXPECT_EQ(adi_digest(true, false, Overlap::kOn, 23, 17, 2, 3),
            kAdiTransposeUnevenDigest);
}

TEST(SolverDigest, AdiListing7) {
  EXPECT_EQ(adi_digest(false, false, Overlap::kOff), kAdiLineDigest);
}

TEST(SolverDigest, AdiListing7Overlap) {
  EXPECT_EQ(adi_digest(false, false, Overlap::kOn), kAdiLineDigest);
}

TEST(SolverDigest, AdiListing8) {
  EXPECT_EQ(adi_digest(false, true, Overlap::kOff), kAdiLineDigest);
}

}  // namespace
}  // namespace kali
