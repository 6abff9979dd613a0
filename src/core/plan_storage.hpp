// The one block store of the numeric runtime.
//
// A PlanStorage maps every data handle of a PlanLayout to a column-major
// nb x nb block (lda = nb), the addressing the packed kernels want: a
// subtile is a contiguous block, never a strided window into a larger
// tile. It comes in two forms:
//  - owning: one contiguous buffer holding every block of a TilePlan's
//    layout. import_from/export_to convert between this layout and the
//    classic TileMatrix; SPLIT/MERGE repack tasks are executed as
//    rectangle-intersection copies between a cell's canonical storage
//    handles and its view handles.
//  - borrowing: the tiles of one or more same-shape TileMatrix objects,
//    used in place (a TileMatrix already stores each tile as one
//    contiguous block). A serving batch is such a store with one handle
//    range per job.
#pragma once

#include <cstddef>
#include <vector>

#include "core/task_graph.hpp"
#include "core/tile_matrix.hpp"
#include "core/tile_plan.hpp"

namespace hetsched {

class PlanStorage {
 public:
  /// Allocates zero-initialized blocks for every canonical and view handle
  /// of `layout` (zeros make the never-written strict-upper regions of
  /// diagonal-cell views deterministic, also when the storage is reused
  /// for later runs of the same layout). A split cell's base handle gets
  /// no block. Throws std::invalid_argument on an empty or inconsistent
  /// layout.
  explicit PlanStorage(const PlanLayout& layout);

  /// Borrows the tiles of `mats`, which must all have one shape, as a
  /// uniform layout: handle j * num_lower_tiles(n) + tile_linear_index(r,
  /// c) is tile (r, c) of mats[j]. Copies nothing; the matrices must
  /// outlive the store. Throws std::invalid_argument on an empty list, a
  /// null matrix or mixed shapes.
  explicit PlanStorage(const std::vector<TileMatrix*>& mats);

  // Blocks are addressed by pointer, so a copy would alias its source.
  PlanStorage(const PlanStorage&) = delete;
  PlanStorage& operator=(const PlanStorage&) = delete;

  const PlanLayout& layout() const noexcept { return layout_; }

  /// Contiguous column-major block of `handle`; lda = block_nb(handle).
  /// Null for a handle without a block (a split cell's base handle).
  double* block(int handle) {
    return blocks_[static_cast<std::size_t>(handle)];
  }
  const double* block(int handle) const {
    return blocks_[static_cast<std::size_t>(handle)];
  }
  int block_nb(int handle) const {
    return layout_.handles[static_cast<std::size_t>(handle)].nb;
  }

  /// True for the handles carrying a cell's canonical contents: the
  /// classic handle of an unsplit cell, the subtile handles of a split
  /// one. The unused base handle of a split cell and every repacked
  /// view are not canonical (import/export skip them).
  bool canonical(int handle) const {
    return canonical_[static_cast<std::size_t>(handle)] != 0;
  }

  /// Copies every canonical handle's subrectangle out of / back into the
  /// classic tiled matrix. `a` must match the layout's n_tiles/base_nb.
  /// A borrowing store already is its matrices: both throw
  /// std::logic_error there.
  void import_from(const TileMatrix& a);
  void export_to(TileMatrix& a) const;

 private:
  PlanLayout layout_;
  std::vector<double*> blocks_;  ///< null for a handle without a block
  std::vector<char> canonical_;
  std::vector<double> data_;  ///< the owned blocks; empty when borrowing
  bool borrowed_ = false;
};

/// Executes one task numerically on `s`: the kernel dispatch of the
/// compute backend. Compute kernels dispatch on Task::accesses in the
/// builder's canonical operand order (POTRF [RW d]; TRSM [R l, RW a];
/// SYRK [R a, RW c]; GEMM [R a, R b, RW c] -- the classic cholesky_dag
/// builder uses the same order, so uniform graphs execute too);
/// SPLIT/MERGE copy the overlap of every (read storage, written view)
/// handle pair in the cell element frame. A non-SPD POTRF pivot throws
/// NumericError.
void execute_plan_task_checked(PlanStorage& s, const Task& t);

}  // namespace hetsched
