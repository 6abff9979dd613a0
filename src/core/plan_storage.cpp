#include "core/plan_storage.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/kernels.hpp"
#include "core/numeric_error.hpp"

namespace hetsched {

namespace {

constexpr std::size_t to_size(int v) { return static_cast<std::size_t>(v); }

}  // namespace

PlanStorage::PlanStorage(const PlanLayout& layout) : layout_(layout) {
  const std::size_t nh = layout_.handles.size();
  if (layout_.n_tiles <= 0 || layout_.base_nb <= 0 ||
      nh < static_cast<std::size_t>(num_lower_tiles(layout_.n_tiles)))
    throw std::invalid_argument("PlanStorage: empty or inconsistent layout");
  canonical_.assign(nh, 0);
  // A cell's canonical granularity is the smallest non-view block side
  // registered for it: an unsplit cell has only its classic base handle,
  // a split cell has the (unused) base handle plus its finer subtiles.
  std::vector<int> cell_nb(static_cast<std::size_t>(
                               num_lower_tiles(layout_.n_tiles)),
                           layout_.base_nb);
  for (const PlanHandle& h : layout_.handles)
    if (!h.view) {
      int& nb = cell_nb[static_cast<std::size_t>(
          tile_linear_index(h.cell_i, h.cell_j))];
      nb = std::min(nb, h.nb);
    }
  constexpr std::size_t kNoBlock = static_cast<std::size_t>(-1);
  std::vector<std::size_t> offset(nh);
  std::size_t total = 0;
  for (std::size_t i = 0; i < nh; ++i) {
    const PlanHandle& h = layout_.handles[i];
    if (h.nb <= 0 || h.row0 < 0 || h.col0 < 0 ||
        h.row0 + h.nb > layout_.base_nb || h.col0 + h.nb > layout_.base_nb)
      throw std::invalid_argument("PlanStorage: handle " + std::to_string(i) +
                                  " outside its cell");
    canonical_[i] =
        !h.view && h.nb == cell_nb[static_cast<std::size_t>(tile_linear_index(
                       h.cell_i, h.cell_j))];
    // A split cell's base handle is neither canonical nor a view: no task
    // accesses it, so it gets no block.
    if (!h.view && !canonical_[i]) {
      offset[i] = kNoBlock;
      continue;
    }
    offset[i] = total;
    total += to_size(h.nb) * to_size(h.nb);
  }
  data_.assign(total, 0.0);
  blocks_.resize(nh);
  for (std::size_t i = 0; i < nh; ++i)
    blocks_[i] = offset[i] == kNoBlock ? nullptr : data_.data() + offset[i];
}

PlanStorage::PlanStorage(const std::vector<TileMatrix*>& mats)
    : borrowed_(true) {
  if (mats.empty() || mats.front() == nullptr)
    throw std::invalid_argument("PlanStorage: no matrix to borrow");
  const int n = mats.front()->n_tiles();
  const int nb = mats.front()->nb();
  const int per = num_lower_tiles(n);
  layout_.n_tiles = n;
  layout_.base_nb = nb;
  layout_.handles.reserve(mats.size() * to_size(per));
  blocks_.reserve(mats.size() * to_size(per));
  for (TileMatrix* m : mats) {
    if (m == nullptr || m->n_tiles() != n || m->nb() != nb)
      throw std::invalid_argument(
          "PlanStorage: borrowed matrices differ in shape");
    for (int i = 0; i < n; ++i)
      for (int j = 0; j <= i; ++j) {
        layout_.handles.push_back(PlanHandle{i, j, 0, 0, nb, false});
        blocks_.push_back(m->tile(i, j));
      }
  }
  canonical_.assign(blocks_.size(), 1);
}

void PlanStorage::import_from(const TileMatrix& a) {
  if (borrowed_)
    throw std::logic_error("PlanStorage::import_from: borrowing store");
  if (a.n_tiles() != layout_.n_tiles || a.nb() != layout_.base_nb)
    throw std::invalid_argument("PlanStorage::import_from: shape mismatch");
  const int base = layout_.base_nb;
  for (std::size_t i = 0; i < layout_.handles.size(); ++i) {
    if (!canonical_[i]) continue;
    const PlanHandle& h = layout_.handles[i];
    const double* src = a.tile(h.cell_i, h.cell_j);
    double* dst = blocks_[i];
    for (int c = 0; c < h.nb; ++c)
      std::memcpy(dst + to_size(c) * to_size(h.nb),
                  src + to_size(h.col0 + c) * to_size(base) + to_size(h.row0),
                  to_size(h.nb) * sizeof(double));
  }
}

void PlanStorage::export_to(TileMatrix& a) const {
  if (borrowed_)
    throw std::logic_error("PlanStorage::export_to: borrowing store");
  if (a.n_tiles() != layout_.n_tiles || a.nb() != layout_.base_nb)
    throw std::invalid_argument("PlanStorage::export_to: shape mismatch");
  const int base = layout_.base_nb;
  for (std::size_t i = 0; i < layout_.handles.size(); ++i) {
    if (!canonical_[i]) continue;
    const PlanHandle& h = layout_.handles[i];
    double* dst = a.tile(h.cell_i, h.cell_j);
    const double* src = blocks_[i];
    for (int c = 0; c < h.nb; ++c)
      std::memcpy(dst + to_size(h.col0 + c) * to_size(base) + to_size(h.row0),
                  src + to_size(c) * to_size(h.nb),
                  to_size(h.nb) * sizeof(double));
  }
}

namespace {

// SPLIT/MERGE: every written view handle receives the overlap of every
// read storage handle, intersected in the cell's element frame. Views of
// a diagonal cell cover only its lower block-triangle on both sides, so
// the union of sources covers every element a consumer may read (the
// strict upper triangle of diagonal view blocks stays at its initial
// zeros, which no triangular kernel references; nothing writes it, so a
// reused storage still holds those zeros).
void run_repack(PlanStorage& s, const Task& t) {
  const PlanLayout& lay = s.layout();
  for (const TaskAccess& w : t.accesses) {
    if (w.mode == AccessMode::Read) continue;
    const PlanHandle& wh = lay.handles[static_cast<std::size_t>(w.tile)];
    double* dst = s.block(w.tile);
    for (const TaskAccess& r : t.accesses) {
      if (r.mode != AccessMode::Read) continue;
      const PlanHandle& rh = lay.handles[static_cast<std::size_t>(r.tile)];
      const int row0 = std::max(wh.row0, rh.row0);
      const int row1 = std::min(wh.row0 + wh.nb, rh.row0 + rh.nb);
      const int col0 = std::max(wh.col0, rh.col0);
      const int col1 = std::min(wh.col0 + wh.nb, rh.col0 + rh.nb);
      if (row0 >= row1 || col0 >= col1) continue;
      const double* src = s.block(r.tile) + to_size(row0 - rh.row0);
      double* out = dst + to_size(row0 - wh.row0);
      const std::size_t bytes = to_size(row1 - row0) * sizeof(double);
      for (int c = col0; c < col1; ++c)
        std::memcpy(out + to_size(c - wh.col0) * to_size(wh.nb),
                    src + to_size(c - rh.col0) * to_size(rh.nb), bytes);
    }
  }
}

}  // namespace

void execute_plan_task_checked(PlanStorage& s, const Task& t) {
  const auto blk = [&](std::size_t operand) {
    return s.block(t.accesses[operand].tile);
  };
  const auto nb_of = [&](std::size_t operand) {
    return s.block_nb(t.accesses[operand].tile);
  };
  switch (t.kernel) {
    case Kernel::POTRF: {
      const int info = kernels::potrf_info(nb_of(0), blk(0), nb_of(0));
      if (info != 0) throw NumericError(Kernel::POTRF, t.k, t.k, info);
      return;
    }
    case Kernel::TRSM:
      kernels::trsm(nb_of(1), blk(0), nb_of(0), blk(1), nb_of(1));
      return;
    case Kernel::SYRK:
      kernels::syrk(nb_of(1), blk(0), nb_of(0), blk(1), nb_of(1));
      return;
    case Kernel::GEMM:
      kernels::gemm(nb_of(2), blk(0), nb_of(0), blk(1), nb_of(1), blk(2),
                    nb_of(2));
      return;
    case Kernel::SPLIT:
    case Kernel::MERGE:
      run_repack(s, t);
      return;
    default:
      throw std::logic_error("execute_plan_task_checked: non-plan kernel " +
                             std::string(to_string(t.kernel)));
  }
}

}  // namespace hetsched
