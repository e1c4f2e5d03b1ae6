#include "runtime/proc_view.hpp"

#include "support/check.hpp"

namespace kali {

ProcView ProcView::grid1(int p, int base) {
  KALI_CHECK(p >= 1 && base >= 0, "grid1: bad shape");
  ProcView v;
  v.base_ = base;
  v.ndims_ = 1;
  v.extents_ = {p, 1, 1};
  v.strides_ = {1, 0, 0};
  return v;
}

ProcView ProcView::grid2(int px, int py, int base) {
  KALI_CHECK(px >= 1 && py >= 1 && base >= 0, "grid2: bad shape");
  ProcView v;
  v.base_ = base;
  v.ndims_ = 2;
  v.extents_ = {px, py, 1};
  v.strides_ = {py, 1, 0};
  return v;
}

ProcView ProcView::grid3(int px, int py, int pz, int base) {
  KALI_CHECK(px >= 1 && py >= 1 && pz >= 1 && base >= 0, "grid3: bad shape");
  ProcView v;
  v.base_ = base;
  v.ndims_ = 3;
  v.extents_ = {px, py, pz};
  v.strides_ = {py * pz, pz, 1};
  return v;
}

int ProcView::extent(int d) const {
  KALI_CHECK(d >= 0 && d < ndims_, "extent: bad dim");
  return extents_[static_cast<std::size_t>(d)];
}

int ProcView::count() const {
  if (ndims_ == 0) {
    return 0;
  }
  int n = 1;
  for (int d = 0; d < ndims_; ++d) {
    n *= extents_[static_cast<std::size_t>(d)];
  }
  return n;
}

int ProcView::rank_of(std::array<int, kMaxProcDims> coord) const {
  KALI_CHECK(ndims_ >= 1, "rank_of on empty view");
  int r = base_;
  for (int d = 0; d < ndims_; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    KALI_CHECK(coord[ud] >= 0 && coord[ud] < extents_[ud],
               "rank_of: coordinate out of range");
    r += coord[ud] * strides_[ud];
  }
  return r;
}

std::optional<std::array<int, kMaxProcDims>> ProcView::coord_of(int rank) const {
  if (ndims_ == 0) {
    return std::nullopt;
  }
  // Strides are positive and descending in row-major construction, but
  // slices can reorder them; solve greedily over dims sorted by stride.
  std::array<int, kMaxProcDims> order{};
  for (int d = 0; d < ndims_; ++d) {
    order[static_cast<std::size_t>(d)] = d;
  }
  for (int a = 0; a < ndims_; ++a) {  // insertion sort by descending stride
    for (int b = a + 1; b < ndims_; ++b) {
      if (strides_[static_cast<std::size_t>(order[static_cast<std::size_t>(b)])] >
          strides_[static_cast<std::size_t>(order[static_cast<std::size_t>(a)])]) {
        std::swap(order[static_cast<std::size_t>(a)], order[static_cast<std::size_t>(b)]);
      }
    }
  }
  int rem = rank - base_;
  std::array<int, kMaxProcDims> coord{};
  for (int idx = 0; idx < ndims_; ++idx) {
    const int d = order[static_cast<std::size_t>(idx)];
    const auto ud = static_cast<std::size_t>(d);
    const int stride = strides_[ud];
    KALI_CHECK(stride > 0, "coord_of: degenerate stride");
    const int c = rem / stride;
    if (c < 0 || c >= extents_[ud]) {
      return std::nullopt;
    }
    coord[ud] = c;
    rem -= c * stride;
  }
  if (rem != 0) {
    return std::nullopt;
  }
  return coord;
}

ProcView ProcView::fix(int dim, int index) const {
  KALI_CHECK(dim >= 0 && dim < ndims_, "fix: bad dim");
  const auto ud = static_cast<std::size_t>(dim);
  KALI_CHECK(index >= 0 && index < extents_[ud], "fix: index out of range");
  if (ndims_ == 1) {
    // Fixing the last grid dimension selects a single processor; represent
    // it as a 1-D view of one rank so membership and groups stay valid.
    return grid1(1, base_ + index * strides_[0]);
  }
  ProcView v;
  v.base_ = base_ + index * strides_[ud];
  v.ndims_ = ndims_ - 1;
  int out = 0;
  for (int d = 0; d < ndims_; ++d) {
    if (d == dim) {
      continue;
    }
    v.extents_[static_cast<std::size_t>(out)] = extents_[static_cast<std::size_t>(d)];
    v.strides_[static_cast<std::size_t>(out)] = strides_[static_cast<std::size_t>(d)];
    ++out;
  }
  for (int d = v.ndims_; d < kMaxProcDims; ++d) {
    v.extents_[static_cast<std::size_t>(d)] = 1;
    v.strides_[static_cast<std::size_t>(d)] = 0;
  }
  return v;
}

ProcView ProcView::sub(int dim, int lo, int len) const {
  KALI_CHECK(dim >= 0 && dim < ndims_, "sub: bad dim");
  const auto ud = static_cast<std::size_t>(dim);
  KALI_CHECK(lo >= 0 && len >= 1 && lo + len <= extents_[ud],
             "sub: range out of bounds");
  ProcView v = *this;
  v.base_ = base_ + lo * strides_[ud];
  v.extents_[ud] = len;
  return v;
}

std::vector<int> ProcView::ranks() const {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(count()));
  const int n0 = ndims_ >= 1 ? extents_[0] : 0;
  const int n1 = ndims_ >= 2 ? extents_[1] : 1;
  const int n2 = ndims_ >= 3 ? extents_[2] : 1;
  for (int i = 0; i < n0; ++i) {
    for (int j = 0; j < n1; ++j) {
      for (int k = 0; k < n2; ++k) {
        out.push_back(base_ + i * strides_[0] + j * strides_[1] + k * strides_[2]);
      }
    }
  }
  return out;
}

int ProcView::linear_index_of(int rank) const {
  auto c = coord_of(rank);
  KALI_CHECK(c.has_value(), "linear_index_of: rank not in view");
  int idx = 0;
  for (int d = 0; d < ndims_; ++d) {
    idx = idx * extents_[static_cast<std::size_t>(d)] + (*c)[static_cast<std::size_t>(d)];
  }
  return idx;
}

int ProcView::rank_at(int index) const {
  KALI_CHECK(index >= 0 && index < count(), "rank_at: index out of range");
  int r = base_;
  for (int d = ndims_ - 1; d >= 0; --d) {
    const auto ud = static_cast<std::size_t>(d);
    r += (index % extents_[ud]) * strides_[ud];
    index /= extents_[ud];
  }
  return r;
}

Group ProcView::group(int self_rank) const { return Group(ranks(), self_rank); }

bool operator==(const ProcView& a, const ProcView& b) {
  if (a.ndims_ != b.ndims_ || a.base_ != b.base_) {
    return false;
  }
  for (int d = 0; d < a.ndims_; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    if (a.extents_[ud] != b.extents_[ud] || a.strides_[ud] != b.strides_[ud]) {
      return false;
    }
  }
  return true;
}

}  // namespace kali
