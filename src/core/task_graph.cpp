#include "core/task_graph.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace hetsched {

std::string Task::name() const {
  // Matches the paper's Figure 1 convention (e.g. GEMM_4_2_1): the kernel
  // name followed by the meaningful indices in (i, j, k) order, where SYRK
  // and ORMQR carry (j, k) and diagonal kernels just (k). LU's row-panel
  // solve (a TRSM carrying j instead of i) is printed TRSML to keep names
  // unique within a graph.
  std::string s{to_string(kernel)};
  if (kernel == Kernel::TRSM && j >= 0) s = "TRSML";
  for (const int idx : {i, j, k})
    if (idx >= 0) {
      s += '_';
      s += std::to_string(idx);
    }
  return s;
}

int TaskGraph::add_task(Kernel kernel, int k, int i, int j, double flops,
                        std::vector<TaskAccess> accesses) {
  Task t;
  t.id = static_cast<int>(tasks_.size());
  t.kernel = kernel;
  t.k = k;
  t.i = i;
  t.j = j;
  t.flops = flops;
  t.accesses = std::move(accesses);
  tasks_.push_back(std::move(t));
  preds_.emplace_back();
  succs_.emplace_back();
  return static_cast<int>(tasks_.size()) - 1;
}

int TaskGraph::add_task(Kernel kernel, int k, int i, int j, double flops,
                        int nb, std::vector<TaskAccess> accesses) {
  const int id = add_task(kernel, k, i, j, flops, std::move(accesses));
  tasks_.back().nb = nb;
  return id;
}

void TaskGraph::add_edge(int from, int to) {
  if (from < 0 || to < 0 || from >= num_tasks() || to >= num_tasks())
    throw std::out_of_range("TaskGraph::add_edge: bad vertex id");
  if (from == to) throw std::logic_error("TaskGraph::add_edge: self loop");
  auto& s = succs_[static_cast<std::size_t>(from)];
  if (std::find(s.begin(), s.end(), to) != s.end()) return;  // dedupe
  s.push_back(to);
  preds_[static_cast<std::size_t>(to)].push_back(from);
  ++num_edges_;
}

std::vector<int> TaskGraph::sources() const {
  std::vector<int> out;
  for (int id = 0; id < num_tasks(); ++id)
    if (in_degree(id) == 0) out.push_back(id);
  return out;
}

std::vector<int> TaskGraph::sinks() const {
  std::vector<int> out;
  for (int id = 0; id < num_tasks(); ++id)
    if (out_degree(id) == 0) out.push_back(id);
  return out;
}

std::vector<int> TaskGraph::topological_order() const {
  std::vector<int> indeg(static_cast<std::size_t>(num_tasks()));
  for (int id = 0; id < num_tasks(); ++id)
    indeg[static_cast<std::size_t>(id)] = in_degree(id);
  std::queue<int> ready;
  for (int id = 0; id < num_tasks(); ++id)
    if (indeg[static_cast<std::size_t>(id)] == 0) ready.push(id);
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(num_tasks()));
  while (!ready.empty()) {
    const int u = ready.front();
    ready.pop();
    order.push_back(u);
    for (const int v : successors(u))
      if (--indeg[static_cast<std::size_t>(v)] == 0) ready.push(v);
  }
  if (static_cast<int>(order.size()) != num_tasks())
    throw std::logic_error("TaskGraph::topological_order: graph has a cycle");
  return order;
}

bool TaskGraph::is_dag() const {
  try {
    (void)topological_order();
    return true;
  } catch (const std::logic_error&) {
    return false;
  }
}

std::array<std::int64_t, kNumKernels> TaskGraph::kernel_histogram() const {
  std::array<std::int64_t, kNumKernels> h{};
  for (const Task& t : tasks_) ++h[static_cast<std::size_t>(kernel_index(t.kernel))];
  return h;
}

}  // namespace hetsched
