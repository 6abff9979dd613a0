// Replica tracking for tiles across memory nodes (MSI-like, without the
// shared/modified distinction: a write leaves exactly one valid copy).
//
// Node 0 is host RAM (unlimited by default); accelerator nodes are
// 1..num_nodes-1 and may carry a byte capacity. Under capacity pressure the
// simulator evicts least-recently-used *clean* replicas (copies that also
// exist on another node); pinned replicas (inputs of a committed task) and
// sole copies are never evicted -- if nothing is evictable, the overflow is
// counted rather than modeled, see RunReport::capacity_overflows.
// Initially every tile is valid in RAM only, as when the application has
// just allocated the matrix. This mirrors StarPU's data-handle coherence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/task_graph.hpp"

namespace hetsched {

class DataManager {
 public:
  DataManager(int num_tiles, int num_nodes, std::size_t tile_bytes);

  int num_tiles() const noexcept { return num_tiles_; }
  int num_nodes() const noexcept { return num_nodes_; }
  std::size_t tile_bytes() const noexcept { return tile_bytes_; }

  /// True iff `node` holds a valid copy of `tile`.
  bool valid(int tile, int node) const;

  /// Records a transfer completion: `node` now also holds a valid copy.
  void add_replica(int tile, int node);

  /// Records a write at `node`: every other copy becomes invalid.
  void set_only_valid(int tile, int node);

  /// Drops the replica of `tile` at `node` (eviction). The tile must be
  /// valid at some other node.
  void invalidate(int tile, int node);

  /// Drops the replica of `tile` at `node` unconditionally -- fault path
  /// only (a dead memory node loses its contents): unlike invalidate(),
  /// this may leave the tile valid *nowhere* and clears any pins at the
  /// node. Callers own the consequences (see the simulator's sole-copy
  /// recovery).
  void lose_replica(int tile, int node);

  /// Calls f(tile) for each tile accessed by `t` that is not valid at
  /// `node`, once per tile, in first-access order; allocates nothing. `f`
  /// must not change which replicas are valid at `node`.
  template <typename F>
  void for_each_missing_tile(const Task& t, int node, F&& f) const {
    const std::vector<TaskAccess>& acc = t.accesses;
    for (auto a = acc.begin(); a != acc.end(); ++a) {
      const int tile = a->tile;
      if (valid(tile, node)) continue;
      // An earlier access of the same tile was missing too: already seen.
      bool seen = false;
      for (auto b = acc.begin(); b != a && !seen; ++b) seen = b->tile == tile;
      if (!seen) f(tile);
    }
  }

  /// Picks the source node for fetching `tile` to `dst`: RAM if valid there
  /// (one hop), otherwise the lowest-numbered valid node. Returns -1 if the
  /// tile is already valid at dst.
  int pick_source(int tile, int dst) const;

  /// Number of nodes currently holding a valid copy of `tile`.
  int replica_count(int tile) const;

  // ---- Capacity / LRU / pinning ----

  /// Sets the byte capacity of `node` (0 = unlimited, the default).
  void set_node_capacity(int node, std::size_t bytes);
  std::size_t node_capacity(int node) const;
  std::size_t used_bytes(int node) const;

  /// Marks the replica as recently used (LRU bookkeeping).
  void touch(int tile, int node);

  /// Pins/unpins `tile` at `node`: pinned replicas are never evicted.
  /// Pins nest (a counter per replica).
  void pin(int tile, int node);
  void unpin(int tile, int node);

  /// Least-recently-used unpinned clean replica at `node` (a copy that is
  /// also valid elsewhere), or -1 when nothing is evictable.
  int pick_eviction_victim(int node) const;

  /// True iff `node` would exceed its capacity by adding one more tile.
  bool needs_room(int node) const;

 private:
  std::size_t idx(int tile, int node) const {
    return static_cast<std::size_t>(tile) * static_cast<std::size_t>(num_nodes_) +
           static_cast<std::size_t>(node);
  }
  void set_valid(int tile, int node, bool v);

  int num_tiles_;
  int num_nodes_;
  std::size_t tile_bytes_;
  std::vector<char> valid_;  // char, not bool: avoids bitset proxy churn
  std::vector<int> pin_count_;
  std::vector<std::uint64_t> last_touch_;
  std::vector<std::size_t> capacity_;
  std::vector<std::size_t> used_;
  std::uint64_t clock_ = 0;
};

}  // namespace hetsched
