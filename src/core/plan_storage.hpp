// The one block store of the numeric runtime.
//
// A PlanStorage maps every data handle of a PlanLayout to a column-major
// nb x nb block with its own leading dimension (block_ld). It comes in two
// forms:
//  - plan: the store of one TilePlan's layout, run in place on the
//    caller's TileMatrix. bind(a) points every canonical handle at its
//    subrectangle of a's tile (ld = base_nb); only the SPLIT/MERGE view
//    handles own contiguous blocks (ld = nb), which the repack tasks fill
//    as rectangle-intersection copies out of the canonical handles. The
//    store also owns a first-write journal: the first task writing a
//    canonical handle saves that handle's input contents, so rollback()
//    restores the bound matrix after a failed run. unbind() drops every
//    pointer into the matrix.
//  - borrowing: the tiles of one or more same-shape TileMatrix objects,
//    used in place (a TileMatrix already stores each tile as one
//    contiguous block). A serving batch is such a store with one handle
//    range per job. It never journals.
#pragma once

#include <cstddef>
#include <vector>

#include "core/task_graph.hpp"
#include "core/tile_matrix.hpp"
#include "core/tile_plan.hpp"

namespace hetsched {

class PlanStorage {
 public:
  /// The plan form: allocates zero-initialized blocks for every view
  /// handle of `layout` (zeros make the never-written strict-upper regions
  /// of diagonal-cell views deterministic, also when the storage is reused
  /// for later runs of the same layout) and one journal block per
  /// canonical handle. Canonical handles have no block until bind(); a
  /// split cell's base handle never has one. Throws std::invalid_argument
  /// on an empty or inconsistent layout.
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

  /// Column-major block of `handle`, leading dimension block_ld(handle).
  /// Null for a handle without a block (a split cell's base handle, or a
  /// canonical handle of an unbound plan store).
  double* block(int handle) {
    return blocks_[static_cast<std::size_t>(handle)];
  }
  const double* block(int handle) const {
    return blocks_[static_cast<std::size_t>(handle)];
  }
  int block_nb(int handle) const {
    return layout_.handles[static_cast<std::size_t>(handle)].nb;
  }
  int block_ld(int handle) const {
    return ld_[static_cast<std::size_t>(handle)];
  }

  /// True for the handles carrying a cell's canonical contents: the
  /// classic handle of an unsplit cell, the subtile handles of a split
  /// one. The unused base handle of a split cell and every repacked
  /// view are not canonical.
  bool canonical(int handle) const {
    return canonical_[static_cast<std::size_t>(handle)] != 0;
  }

  /// Plan form: points every canonical handle into `a`'s tiles (handle at
  /// (row0, col0) of cell (i, j) is a.tile(i, j) + col0 * base_nb + row0)
  /// and clears the journal. `a` must match the layout's n_tiles/base_nb
  /// (std::invalid_argument) and outlive the binding. A borrowing store
  /// already is its matrices: std::logic_error.
  void bind(TileMatrix& a);

  /// Copies every journaled handle's saved contents back into the bound
  /// matrix and clears the journal: the matrix is back at its contents at
  /// bind() time. Must not overlap a run on the store.
  void rollback() noexcept;

  /// Points the canonical handles nowhere again (plan form; no-op when
  /// borrowing), so no pointer into the matrix outlives its call.
  void unbind() noexcept;

  /// Saves `handle`'s current contents into its journal block unless the
  /// handle is already journaled since bind(), or is not a canonical
  /// handle of a plan store. Called by each writer right before its
  /// kernel: writes to one handle are ordered by the DAG, so the first
  /// call per handle sees the input contents, and distinct handles are
  /// journaled concurrently by different workers.
  void journal(int handle);

 private:
  PlanLayout layout_;
  std::vector<double*> blocks_;   ///< null for a handle without a block
  std::vector<int> ld_;           ///< leading dimension per handle
  std::vector<char> canonical_;
  std::vector<double*> journal_;  ///< per canonical handle; empty if borrowing
  std::vector<char> journaled_;   ///< per handle: journal holds its input
  std::vector<double> data_;      ///< view and journal blocks
  bool borrowed_ = false;
};

/// Executes one task numerically on `s`: the kernel dispatch of the
/// compute backend. Compute kernels dispatch on Task::accesses in the
/// builder's canonical operand order (POTRF [RW d]; TRSM [R l, RW a];
/// SYRK [R a, RW c]; GEMM [R a, R b, RW c] -- the classic cholesky_dag
/// builder uses the same order, so uniform graphs execute too) and journal
/// their written operand first; SPLIT/MERGE copy the overlap of every
/// (read storage, written view) handle pair in the cell element frame.
/// Every operand is addressed with its block_ld. A non-SPD POTRF pivot
/// throws NumericError.
void execute_plan_task_checked(PlanStorage& s, const Task& t);

}  // namespace hetsched
