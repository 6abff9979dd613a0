#include "sim/data_manager.hpp"

#include <stdexcept>

namespace hetsched {

DataManager::DataManager(int num_tiles, int num_nodes, std::size_t tile_bytes)
    : num_tiles_(num_tiles), num_nodes_(num_nodes), tile_bytes_(tile_bytes) {
  if (num_tiles <= 0 || num_nodes <= 0)
    throw std::invalid_argument("DataManager: non-positive sizes");
  const std::size_t cells = static_cast<std::size_t>(num_tiles) *
                            static_cast<std::size_t>(num_nodes);
  valid_.assign(cells, 0);
  pin_count_.assign(cells, 0);
  last_touch_.assign(cells, 0);
  capacity_.assign(static_cast<std::size_t>(num_nodes), 0);
  used_.assign(static_cast<std::size_t>(num_nodes), 0);
  // All tiles start valid in RAM (node 0).
  for (int t = 0; t < num_tiles; ++t) set_valid(t, 0, true);
}

void DataManager::set_valid(int tile, int node, bool v) {
  char& cell = valid_.at(idx(tile, node));
  if ((cell != 0) == v) return;
  cell = v ? 1 : 0;
  auto& used = used_.at(static_cast<std::size_t>(node));
  if (v)
    used += tile_bytes_;
  else
    used -= tile_bytes_;
}

bool DataManager::valid(int tile, int node) const {
  return valid_.at(idx(tile, node)) != 0;
}

void DataManager::add_replica(int tile, int node) {
  set_valid(tile, node, true);
  touch(tile, node);
}

void DataManager::set_only_valid(int tile, int node) {
  for (int m = 0; m < num_nodes_; ++m) set_valid(tile, m, m == node);
  touch(tile, node);
}

void DataManager::invalidate(int tile, int node) {
  if (!valid(tile, node))
    throw std::logic_error("DataManager::invalidate: replica not valid");
  if (replica_count(tile) < 2)
    throw std::logic_error("DataManager::invalidate: sole copy");
  set_valid(tile, node, false);
}

void DataManager::lose_replica(int tile, int node) {
  pin_count_.at(idx(tile, node)) = 0;
  set_valid(tile, node, false);
}

int DataManager::pick_source(int tile, int dst) const {
  if (valid(tile, dst)) return -1;
  if (valid(tile, 0)) return 0;
  for (int m = 1; m < num_nodes_; ++m)
    if (m != dst && valid(tile, m)) return m;
  throw std::logic_error("DataManager::pick_source: tile has no valid copy");
}

int DataManager::replica_count(int tile) const {
  int n = 0;
  for (int m = 0; m < num_nodes_; ++m)
    if (valid(tile, m)) ++n;
  return n;
}

void DataManager::set_node_capacity(int node, std::size_t bytes) {
  capacity_.at(static_cast<std::size_t>(node)) = bytes;
}

std::size_t DataManager::node_capacity(int node) const {
  return capacity_.at(static_cast<std::size_t>(node));
}

std::size_t DataManager::used_bytes(int node) const {
  return used_.at(static_cast<std::size_t>(node));
}

void DataManager::touch(int tile, int node) {
  last_touch_.at(idx(tile, node)) = ++clock_;
}

void DataManager::pin(int tile, int node) { ++pin_count_.at(idx(tile, node)); }

void DataManager::unpin(int tile, int node) {
  int& c = pin_count_.at(idx(tile, node));
  if (c <= 0) throw std::logic_error("DataManager::unpin: not pinned");
  --c;
}

int DataManager::pick_eviction_victim(int node) const {
  int victim = -1;
  std::uint64_t oldest = 0;
  for (int t = 0; t < num_tiles_; ++t) {
    const std::size_t cell = idx(t, node);
    if (valid_[cell] == 0) continue;
    if (pin_count_[cell] > 0) continue;
    if (replica_count(t) < 2) continue;  // sole copy: would lose data
    if (victim < 0 || last_touch_[cell] < oldest) {
      oldest = last_touch_[cell];
      victim = t;
    }
  }
  return victim;
}

bool DataManager::needs_room(int node) const {
  const std::size_t cap = capacity_.at(static_cast<std::size_t>(node));
  if (cap == 0) return false;
  return used_.at(static_cast<std::size_t>(node)) + tile_bytes_ > cap;
}

}  // namespace hetsched
