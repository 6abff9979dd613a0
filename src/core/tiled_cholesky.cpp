#include "core/tiled_cholesky.hpp"

#include <stdexcept>

#include "core/kernels.hpp"

namespace hetsched {

bool execute_task(TileMatrix& a, const Task& t) {
  const int nb = a.nb();
  switch (t.kernel) {
    case Kernel::POTRF:
      return kernels::potrf_info(nb, a.tile(t.k, t.k), nb) == 0;
    case Kernel::TRSM:
      kernels::trsm(nb, a.tile(t.k, t.k), nb, a.tile(t.i, t.k), nb);
      return true;
    case Kernel::SYRK:
      kernels::syrk(nb, a.tile(t.j, t.k), nb, a.tile(t.j, t.j), nb);
      return true;
    case Kernel::GEMM:
      kernels::gemm(nb, a.tile(t.i, t.k), nb, a.tile(t.j, t.k), nb,
                    a.tile(t.i, t.j), nb);
      return true;
    default:
      // LU/QR kernels are dispatched by their own executors
      // (see lu_dag.hpp / qr_dag.hpp), never through the Cholesky path.
      throw std::logic_error("execute_task: non-Cholesky kernel " +
                             std::string(to_string(t.kernel)));
  }
}

bool tiled_cholesky_sequential(TileMatrix& a) {
  const int n = a.n_tiles();
  const int nb = a.nb();
  for (int k = 0; k < n; ++k) {
    if (!kernels::potrf(nb, a.tile(k, k), nb)) return false;
    for (int i = k + 1; i < n; ++i)
      kernels::trsm(nb, a.tile(k, k), nb, a.tile(i, k), nb);
    for (int j = k + 1; j < n; ++j) {
      kernels::syrk(nb, a.tile(j, k), nb, a.tile(j, j), nb);
      for (int i = j + 1; i < n; ++i)
        kernels::gemm(nb, a.tile(i, k), nb, a.tile(j, k), nb, a.tile(i, j), nb);
    }
  }
  return true;
}

bool execute_in_order(TileMatrix& a, const TaskGraph& g,
                      const std::vector<int>& order) {
  if (static_cast<int>(order.size()) != g.num_tasks())
    throw std::invalid_argument("execute_in_order: order size mismatch");
  for (const int id : order)
    if (!execute_task(a, g.task(id))) return false;
  return true;
}

}  // namespace hetsched
