// Backing store and numeric dispatch for TilePlan graphs.
//
// A PlanStorage owns one contiguous buffer holding every data handle of a
// PlanLayout as a column-major nb x nb block (lda = nb), the addressing
// the packed kernels want: a subtile is a contiguous block, never a
// strided window into a larger tile. import_from/export_to convert
// between this layout and the classic TileMatrix; SPLIT/MERGE repack
// tasks are executed as rectangle-intersection copies between a cell's
// canonical storage handles and its view handles.
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

  const PlanLayout& layout() const noexcept { return layout_; }

  /// Contiguous column-major block of `handle`; lda = block_nb(handle).
  /// Null for a handle without a block (a split cell's base handle).
  double* block(int handle);
  const double* block(int handle) const;
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
  void import_from(const TileMatrix& a);
  void export_to(TileMatrix& a) const;

 private:
  static constexpr std::size_t kNoBlock = static_cast<std::size_t>(-1);

  PlanLayout layout_;
  std::vector<std::size_t> offset_;  ///< kNoBlock for a handle without one
  std::vector<char> canonical_;
  std::vector<double> data_;
};

/// Executes one plan-graph task numerically on `s`. Compute kernels
/// dispatch on Task::accesses in the builder's canonical operand order
/// (POTRF [RW d]; TRSM [R l, RW a]; SYRK [R a, RW c]; GEMM [R a, R b,
/// RW c] -- the classic cholesky_dag builder uses the same order, so
/// uniform graphs execute too); SPLIT/MERGE copy the overlap of every
/// (read storage, written view) handle pair in the cell element frame.
/// A non-SPD POTRF pivot throws NumericError.
void execute_plan_task_checked(PlanStorage& s, const Task& t);

}  // namespace hetsched
