#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

#include "machine/machine.hpp"
#include "runtime/doall.hpp"
#include "solvers/adi.hpp"
#include "solvers/mg3.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace perfbench {

using kali::Context;
using kali::DimDist;
using kali::Range;
using D2 = kali::DistArray2<double>;
using D3 = kali::DistArray3<double>;

namespace {

std::size_t flat2(int i, int j, int n1) {
  return static_cast<std::size_t>(i) * static_cast<std::size_t>(n1) +
         static_cast<std::size_t>(j);
}

std::size_t flat3(const std::array<int, 3>& g, int n1, int n2) {
  return (static_cast<std::size_t>(g[0]) * static_cast<std::size_t>(n1) +
          static_cast<std::size_t>(g[1])) *
             static_cast<std::size_t>(n2) +
         static_cast<std::size_t>(g[2]);
}

/// Uniform integer in [lo, hi] from the generator's high bits.  Rng's
/// uniform_int takes the low bits, which are correlated across the first
/// draws of consecutive seeds.
int draw(kali::Rng& rng, int lo, int hi) {
  return lo + static_cast<int>(rng.uniform() * (hi - lo + 1));
}

/// Every rank copies its owned values into the host-side global field
/// (disjoint slots, so no two fibers write the same element).
void gather2(const D2& a, std::vector<double>& out) {
  const int n1 = a.extent(1);
  a.for_each_owned([&](std::array<int, 2> g) {
    out[flat2(g[0], g[1], n1)] = a.at(g);
  });
}

// ---------------------------------------------------------------------------
// stencil_halo: P = 4096 (64 x 64 grid2 on the hypercube), kNone.  Tiny
// tiles, so host time is per-message machine cost plus the corner halo's
// rank-list build; compute is negligible.
// ---------------------------------------------------------------------------

/// The 9-point relaxation at (i, j), reading neighbours through `h`.
/// Shared by the distributed sweep and the serial reference so both
/// evaluate the same expression in the same order.
template <class At>
double relax9(At h, int i, int j) {
  const double faces = h(i - 1, j) + h(i + 1, j) + h(i, j - 1) + h(i, j + 1);
  const double corners = h(i - 1, j - 1) + h(i - 1, j + 1) +
                         h(i + 1, j - 1) + h(i + 1, j + 1);
  return 0.25 * h(i, j) + 0.125 * faces + 0.0625 * corners;
}
constexpr double kRelaxFlops = 11.0;  // 3 multiplies + 8 adds

class StencilHalo final : public Workload {
 public:
  static constexpr int kSide = 64;      // processor grid is kSide x kSide
  static constexpr int kSteps = 2;      // relaxation steps per op
  static constexpr int kNormEvery = 2;  // allreduce_max cadence

  explicit StencilHalo(std::uint64_t seed) {
    kali::Rng rng(seed);
    // Tiles are 8 or 9 wide on each axis: modeled time does not depend on
    // field values, so the seed also draws the shape, or a re-check on a
    // fresh seed would re-check nothing on the modeled clock.
    n0_ = kSide * draw(rng, 8, 9);
    n1_ = kSide * draw(rng, 8, 9);
    init_.resize(static_cast<std::size_t>(n0_) * static_cast<std::size_t>(n1_));
    for (double& x : init_) {
      x = rng.uniform();
    }
    serial_reference();
  }

  int nprocs() const override { return kSide * kSide; }
  kali::LinkContention contention() const override {
    return kali::LinkContention::kNone;
  }
  std::size_t field_size() const override { return init_.size(); }

  void program(Context& ctx, OpProbe& probe, Tracer* tr) const override {
    const kali::ProcView pv = kali::ProcView::grid2(kSide, kSide);
    const D2::Dists dists{DimDist::block_dist(), DimDist::block_dist()};
    D2 u(ctx, pv, {n0_, n1_}, dists, {1, 1});
    D2 v(ctx, pv, {n0_, n1_}, dists, {1, 1});
    const auto from_init = [&](std::array<int, 2> g) {
      return init_[flat2(g[0], g[1], n1_)];
    };
    u.fill(from_init);
    v.fill(from_init);
    const kali::Group all = pv.group(ctx.rank());

    if (!probe.begin_timed(ctx)) {
      return;
    }
    for (int step = 0; step < kSteps; ++step) {
      traced(tr, ctx, Layer::kHalo,
             [&] { u.exchange_halo(kali::HaloCorners::kYes); });
      double local = 0.0;
      traced(tr, ctx, Layer::kDoall, [&] {
        kali::doall2(
            u, Range{1, n0_ - 2}, Range{1, n1_ - 2},
            [&](int i, int j) {
              const auto h = [&](int a, int b) { return u.at_halo({a, b}); };
              const double nv = relax9(h, i, j);
              local = std::max(local, std::abs(nv - h(i, j)));
              v.at({i, j}) = nv;
            },
            kRelaxFlops);
      });
      std::swap(u, v);
      if ((step + 1) % kNormEvery == 0) {
        const double norm = traced(tr, ctx, Layer::kAllreduce, [&] {
          return kali::allreduce_max(ctx, all, local);
        });
        if (ctx.rank() == 0) {
          probe.norms.push_back(norm);
        }
      }
    }
    probe.end_timed(ctx);
    if (ctx.rank() == 0) {
      probe.iterations = kSteps;
    }
    gather2(u, probe.field);
  }

  std::string verify(const OpProbe& probe) const override {
    if (probe.field != serial_field_) {
      return "stencil field differs from the host-serial sweep";
    }
    if (probe.norms != serial_norms_) {
      return "stencil update norms differ from the host-serial sweep";
    }
    return "";
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "stencil_halo P=" << nprocs() << " grid " << n0_ << "x" << n1_
       << " steps=" << kSteps;
    return os.str();
  }

 private:
  void serial_reference() {
    std::vector<double> u = init_;
    std::vector<double> v = init_;
    for (int step = 0; step < kSteps; ++step) {
      double norm = 0.0;
      for (int i = 1; i <= n0_ - 2; ++i) {
        for (int j = 1; j <= n1_ - 2; ++j) {
          const auto h = [&](int a, int b) { return u[flat2(a, b, n1_)]; };
          const double nv = relax9(h, i, j);
          norm = std::max(norm, std::abs(nv - h(i, j)));
          v[flat2(i, j, n1_)] = nv;
        }
      }
      std::swap(u, v);
      if ((step + 1) % kNormEvery == 0) {
        serial_norms_.push_back(norm);
      }
    }
    serial_field_ = std::move(u);
  }

  int n0_ = 0, n1_ = 0;
  std::vector<double> init_;
  std::vector<double> serial_field_;
  std::vector<double> serial_norms_;
};

// ---------------------------------------------------------------------------
// adi_transpose: P = 64 (8 x 8), n ~ 1024, transpose + overlap, kPorts.
// Bandwidth-bound: three dense redistributions of MB slabs per iteration.
// ---------------------------------------------------------------------------

class AdiTranspose final : public Workload {
 public:
  static constexpr int kSide = 8;
  static constexpr int kIters = 4;
  static constexpr double kRelTol = 1e-9;  // the test_adi contract

  explicit AdiTranspose(std::uint64_t seed) {
    kali::Rng rng(seed);
    // n in [1009, 1024]: every rank keeps at least one row in all three
    // layouts, and the modeled clock moves with the drawn shape.
    n_ = 1024 - draw(rng, 0, 15);
    op_.hx = op_.hy = 1.0 / (n_ + 1);
    guess_.resize(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_));
    for (double& x : guess_) {
      x = rng.uniform(-1.0, 1.0);
    }
    listing7_reference();
  }

  int nprocs() const override { return kSide * kSide; }
  kali::LinkContention contention() const override {
    return kali::LinkContention::kPorts;
  }
  std::size_t field_size() const override { return guess_.size(); }

  void program(Context& ctx, OpProbe& probe, Tracer* tr) const override {
    const kali::AdiOptions opts = options(true);
    auto [u, f] = make_arrays(ctx);
    if (!probe.begin_timed(ctx)) {
      return;
    }
    for (int it = 0; it < kIters; ++it) {
      traced(tr, ctx, Layer::kAdiIterate, [&] { kali::adi_iterate(opts, u, f); });
    }
    probe.end_timed(ctx);
    const double r = kali::adi_residual_norm(op_, u, f);
    if (ctx.rank() == 0) {
      probe.iterations = kIters;
      probe.norms = {ref_r0_, r};
    }
    gather2(u, probe.field);
  }

  std::string verify(const OpProbe& probe) const override {
    double diff = 0.0, scale = 0.0;
    for (std::size_t k = 0; k < ref_.size(); ++k) {
      diff = std::max(diff, std::abs(probe.field[k] - ref_[k]));
      scale = std::max(scale, std::abs(ref_[k]));
    }
    if (!(diff <= kRelTol * scale)) {
      std::ostringstream os;
      os << "adi_transpose differs from Listing-7 ADI: max |diff| " << diff
         << " vs " << kRelTol << " * " << scale;
      return os.str();
    }
    return "";
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "adi_transpose P=" << nprocs() << " n=" << n_ << " iters=" << kIters;
    return os.str();
  }

 private:
  kali::AdiOptions options(bool transpose) const {
    kali::AdiOptions opts;
    opts.op = op_;
    opts.tau = kali::adi_default_tau(op_, n_);
    opts.transpose = transpose;
    opts.overlap = transpose ? kali::Overlap::kOn : kali::Overlap::kOff;
    return opts;
  }

  std::pair<D2, D2> make_arrays(Context& ctx) const {
    const kali::ProcView pv = kali::ProcView::grid2(kSide, kSide);
    const D2::Dists dists{DimDist::block_dist(), DimDist::block_dist()};
    D2 u(ctx, pv, {n_, n_}, dists, {1, 1});
    D2 f(ctx, pv, {n_, n_}, dists);
    u.fill([&](std::array<int, 2> g) { return guess_[flat2(g[0], g[1], n_)]; });
    const double h = op_.hx;
    f.fill([&](std::array<int, 2> g) {
      return kali::rhs2(op_, (g[0] + 1) * h, (g[1] + 1) * h);
    });
    return {std::move(u), std::move(f)};
  }

  /// Listing-7 ADI (distributed line solves, no redistribution) on the
  /// same problem, computed once per process outside every timed phase.
  void listing7_reference() {
    ref_.assign(guess_.size(), 0.0);
    kali::MachineConfig cfg;
    cfg.link_contention = contention();
    cfg.sim_workers = 1;
    kali::Machine m(nprocs(), cfg);
    m.run([&](Context& ctx) {
      const kali::AdiOptions opts = options(false);
      auto [u, f] = make_arrays(ctx);
      const double r0 = kali::adi_residual_norm(op_, u, f);
      for (int it = 0; it < kIters; ++it) {
        kali::adi_iterate(opts, u, f);
      }
      if (ctx.rank() == 0) {
        ref_r0_ = r0;
      }
      gather2(u, ref_);
    });
  }

  int n_ = 0;
  kali::Op2 op_;
  std::vector<double> guess_;
  std::vector<double> ref_;
  double ref_r0_ = 0.0;
};

// ---------------------------------------------------------------------------
// mg3_solve: P = 16 (4 x 4), ~65^3, default Mg3Options, kNone.  Time to a
// stated accuracy: cycles until the residual drops by kTarget.
// ---------------------------------------------------------------------------

class Mg3Solve final : public Workload {
 public:
  static constexpr int kSide = 4;
  static constexpr int kNyz = 64;  // y and z are coarsened: powers of two
  static constexpr double kTarget = 1e-6;
  static constexpr int kCycleCap = 10;

  explicit Mg3Solve(std::uint64_t seed) {
    kali::Rng rng(seed);
    // x is never coarsened (its lines are Thomas solves), so the seed can
    // draw its extent: nx is 63 or 64 (each point moves modeled time ~1.4%).
    nx_ = 64 - draw(rng, 0, 1);
    op_.hx = 1.0 / nx_;
    op_.hy = op_.hz = 1.0 / kNyz;
    guess_.assign(static_cast<std::size_t>(nx_ + 1) * (kNyz + 1) * (kNyz + 1),
                  0.0);
    for (int i = 1; i < nx_; ++i) {
      for (int j = 1; j < kNyz; ++j) {
        for (int k = 1; k < kNyz; ++k) {
          guess_[flat3({i, j, k}, kNyz + 1, kNyz + 1)] = rng.uniform(-1.0, 1.0);
        }
      }
    }
  }

  int nprocs() const override { return kSide * kSide; }
  kali::LinkContention contention() const override {
    return kali::LinkContention::kNone;
  }
  std::size_t field_size() const override { return guess_.size(); }

  void program(Context& ctx, OpProbe& probe, Tracer* tr) const override {
    const kali::ProcView pv = kali::ProcView::grid2(kSide, kSide);
    const D3::Dists dists{DimDist::star(), DimDist::block_dist(),
                          DimDist::block_dist()};
    const std::array<int, 3> ext{nx_ + 1, kNyz + 1, kNyz + 1};
    D3 u(ctx, pv, ext, dists, {0, 1, 1});
    D3 f(ctx, pv, ext, dists);
    u.fill([&](std::array<int, 3> g) {
      return guess_[flat3(g, kNyz + 1, kNyz + 1)];
    });
    f.fill([&](std::array<int, 3> g) {
      return kali::rhs3(op_, g[0] * op_.hx, g[1] * op_.hy, g[2] * op_.hz);
    });

    if (!probe.begin_timed(ctx)) {
      return;
    }
    const auto residual = [&] {
      return traced(tr, ctx, Layer::kResidual,
                    [&] { return kali::mg3_residual_norm(op_, u, f); });
    };
    std::vector<double> norms{residual()};
    int cycles = 0;
    while (norms.back() > kTarget * norms.front() && cycles < kCycleCap) {
      traced(tr, ctx, Layer::kMg3Cycle, [&] { kali::mg3_cycle(op_, u, f); });
      ++cycles;
      norms.push_back(residual());
    }
    probe.end_timed(ctx);
    if (ctx.rank() == 0) {
      probe.iterations = cycles;
      probe.norms = norms;
    }
    u.for_each_owned([&](std::array<int, 3> g) {
      probe.field[flat3(g, kNyz + 1, kNyz + 1)] = u.at(g);
    });
  }

  std::string verify(const OpProbe& probe) const override {
    if (probe.norms.empty() ||
        !(probe.norms.back() <= kTarget * probe.norms.front())) {
      std::ostringstream os;
      os << "mg3_solve missed its residual target within " << kCycleCap
         << " cycles";
      return os.str();
    }
    return "";
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "mg3_solve P=" << nprocs() << " grid " << nx_ + 1 << "x" << kNyz + 1
       << "x" << kNyz + 1 << " target=" << kTarget << " cap=" << kCycleCap;
    return os.str();
  }

 private:
  int nx_ = 0;
  kali::Op3 op_;
  std::vector<double> guess_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"stencil_halo", "adi_transpose",
                                              "mg3_solve"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "stencil_halo") {
    return std::make_unique<StencilHalo>(seed);
  }
  if (name == "adi_transpose") {
    return std::make_unique<AdiTranspose>(seed);
  }
  if (name == "mg3_solve") {
    return std::make_unique<Mg3Solve>(seed);
  }
  throw kali::Error("unknown workload '" + name + "'");
}

}  // namespace perfbench
