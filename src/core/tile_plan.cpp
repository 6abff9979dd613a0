#include "core/tile_plan.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "core/cholesky_dag.hpp"
#include "core/dependency_tracker.hpp"
#include "core/flops.hpp"

namespace hetsched {

TilePlan TilePlan::uniform(int n_tiles, int base_nb, int level) {
  TilePlan p;
  p.n_tiles = n_tiles;
  p.base_nb = base_nb;
  p.levels.assign(static_cast<std::size_t>(num_lower_tiles(n_tiles)),
                  static_cast<std::uint8_t>(level));
  return p;
}

bool TilePlan::is_uniform_base() const {
  return std::all_of(levels.begin(), levels.end(),
                     [](std::uint8_t l) { return l == 0; });
}

int TilePlan::max_level() const {
  int m = 0;
  for (const std::uint8_t l : levels) m = std::max(m, static_cast<int>(l));
  return m;
}

std::string TilePlan::validate() const {
  if (n_tiles <= 0) return "n_tiles must be positive";
  if (base_nb <= 0) return "base_nb must be positive";
  if (levels.size() != static_cast<std::size_t>(num_lower_tiles(n_tiles)))
    return "levels has " + std::to_string(levels.size()) + " entries, want " +
           std::to_string(num_lower_tiles(n_tiles));
  for (int i = 0; i < n_tiles; ++i)
    for (int j = 0; j <= i; ++j) {
      const int l = level(i, j);
      if (l < 0 || l > kMaxTileSplitLevel)
        return "cell (" + std::to_string(i) + "," + std::to_string(j) +
               "): level " + std::to_string(l) + " out of range [0," +
               std::to_string(kMaxTileSplitLevel) + "]";
      if (base_nb % (1 << l) != 0)
        return "cell (" + std::to_string(i) + "," + std::to_string(j) +
               "): base_nb " + std::to_string(base_nb) +
               " not divisible by 2^" + std::to_string(l);
    }
  return {};
}

std::string TilePlan::to_text() const {
  std::ostringstream os;
  os << n_tiles << ' ' << base_nb << '\n';
  for (int i = 0; i < n_tiles; ++i) {
    for (int j = 0; j <= i; ++j) {
      if (j) os << ' ';
      os << level(i, j);
    }
    os << '\n';
  }
  return os.str();
}

TilePlan TilePlan::from_text(const std::string& text) {
  // Strip '#' comments, then parse whitespace-separated integers.
  std::string clean;
  clean.reserve(text.size());
  bool in_comment = false;
  for (const char ch : text) {
    if (ch == '#') in_comment = true;
    if (ch == '\n') in_comment = false;
    if (!in_comment) clean.push_back(ch);
  }
  std::istringstream is(clean);
  TilePlan p;
  if (!(is >> p.n_tiles >> p.base_nb))
    throw std::invalid_argument("TilePlan::from_text: missing 'n nb' header");
  if (p.n_tiles <= 0 || p.n_tiles > 4096)
    throw std::invalid_argument("TilePlan::from_text: bad n_tiles");
  p.levels.resize(static_cast<std::size_t>(num_lower_tiles(p.n_tiles)));
  for (std::size_t c = 0; c < p.levels.size(); ++c) {
    int l = 0;
    if (!(is >> l))
      throw std::invalid_argument("TilePlan::from_text: expected " +
                                  std::to_string(p.levels.size()) +
                                  " levels, got " + std::to_string(c));
    // Range-check before narrowing: 256 must not wrap to level 0.
    if (l < 0 || l > kMaxTileSplitLevel)
      throw std::invalid_argument(
          "TilePlan::from_text: level " + std::to_string(l) +
          " out of range [0," + std::to_string(kMaxTileSplitLevel) + "]");
    p.levels[c] = static_cast<std::uint8_t>(l);
  }
  int extra = 0;
  if (is >> extra)
    throw std::invalid_argument("TilePlan::from_text: trailing tokens");
  if (const std::string err = p.validate(); !err.empty())
    throw std::invalid_argument("TilePlan::from_text: " + err);
  return p;
}

namespace {

/// Sub-block index within a triangular (diagonal-cell) handle set.
constexpr int tri_index(int a, int b) noexcept { return a * (a + 1) / 2 + b; }

/// Build-time state of one lower-triangle cell.
struct CellState {
  int level = 0;
  int s = 1;   ///< subtiles per side
  int nb = 0;  ///< subtile side
  std::vector<int> storage;  ///< diag: tri-indexed; off-diag: row-major s*s
  struct View {
    std::vector<int> handles;
    int built_seq = -1;  ///< write_seq the view was last repacked at
  };
  std::map<int, View> views;  ///< view level -> view handles
  int write_seq = 0;          ///< bumped after each task group writing the cell
};

}  // namespace

TaskGraph build_cholesky_dag_plan(const TilePlan& plan, PlanLayout* layout) {
  if (const std::string err = plan.validate(); !err.empty())
    throw std::invalid_argument("build_cholesky_dag_plan: " + err);
  const int n = plan.n_tiles;
  const int base = plan.base_nb;

  if (plan.is_uniform_base()) {
    // Classic layout: delegate so uniform plans stay bit-for-bit identical
    // to the pre-TilePlan path (same graph, same task order, nb = -1).
    if (layout) {
      layout->n_tiles = n;
      layout->base_nb = base;
      layout->handles.assign(static_cast<std::size_t>(num_lower_tiles(n)),
                             PlanHandle{});
      for (int i = 0; i < n; ++i)
        for (int j = 0; j <= i; ++j)
          layout->handles[static_cast<std::size_t>(tile_linear_index(i, j))] =
              PlanHandle{i, j, 0, 0, base, false};
    }
    return build_cholesky_dag(n, base);
  }

  TaskGraph g;
  DependencyTracker tracker(num_lower_tiles(n));
  PlanLayout local;
  PlanLayout& lay = layout ? *layout : local;
  lay.n_tiles = n;
  lay.base_nb = base;
  lay.handles.assign(static_cast<std::size_t>(num_lower_tiles(n)),
                     PlanHandle{});

  std::vector<CellState> cells(static_cast<std::size_t>(num_lower_tiles(n)));
  auto cell_at = [&](int i, int j) -> CellState& {
    return cells[static_cast<std::size_t>(tile_linear_index(i, j))];
  };

  // Allocate canonical storage. Level-0 cells keep the classic base
  // handle; split cells get fresh subtile handles (their base handle
  // stays in the directory but no task touches it).
  for (int i = 0; i < n; ++i)
    for (int j = 0; j <= i; ++j) {
      CellState& c = cell_at(i, j);
      c.level = plan.level(i, j);
      c.s = TilePlan::side(c.level);
      c.nb = plan.sub_nb(c.level);
      const int base_handle = tile_linear_index(i, j);
      lay.handles[static_cast<std::size_t>(base_handle)] =
          PlanHandle{i, j, 0, 0, base, false};
      if (c.level == 0) {
        c.storage = {base_handle};
        continue;
      }
      const bool diag = (i == j);
      c.storage.reserve(
          static_cast<std::size_t>(diag ? c.s * (c.s + 1) / 2 : c.s * c.s));
      for (int a = 0; a < c.s; ++a)
        for (int b = 0; b < (diag ? a + 1 : c.s); ++b) {
          c.storage.push_back(lay.num_handles());
          lay.handles.push_back(PlanHandle{i, j, a * c.nb, b * c.nb, c.nb,
                                           /*view=*/false});
        }
    }

  auto submit = [&](Kernel kern, int k, int i, int j, int nb,
                    std::vector<TaskAccess> acc) {
    const int id =
        g.add_task(kern, k, i, j, kernel_flops(kern, nb), nb, std::move(acc));
    tracker.submit(g, id);
  };

  // Returns handles of cell (ci, cj) at granularity `want`; when that
  // differs from the cell's storage level, materializes (or refreshes) a
  // repacked view via an explicit SPLIT/MERGE task. The tracker then
  // threads writer -> repack -> consumer dependency edges.
  auto ensure_view = [&](int ci, int cj, int want) -> const std::vector<int>& {
    CellState& c = cell_at(ci, cj);
    if (want == c.level) return c.storage;
    CellState::View& v = c.views[want];
    if (v.handles.empty()) {
      const bool diag = (ci == cj);
      const int s = TilePlan::side(want);
      const int nb = plan.sub_nb(want);
      for (int a = 0; a < s; ++a)
        for (int b = 0; b < (diag ? a + 1 : s); ++b) {
          v.handles.push_back(lay.num_handles());
          lay.handles.push_back(
              PlanHandle{ci, cj, a * nb, b * nb, nb, /*view=*/true});
        }
    }
    if (v.built_seq != c.write_seq) {
      std::vector<TaskAccess> acc;
      acc.reserve(c.storage.size() + v.handles.size());
      for (const int h : c.storage) acc.push_back({h, AccessMode::Read});
      for (const int h : v.handles) acc.push_back({h, AccessMode::Write});
      submit(want > c.level ? Kernel::SPLIT : Kernel::MERGE, ci, cj, want,
             base, std::move(acc));
      v.built_seq = c.write_seq;
    }
    return v.handles;
  };

  auto note_write = [&](int ci, int cj) { ++cell_at(ci, cj).write_seq; };

  for (int k = 0; k < n; ++k) {
    {
      // POTRF(k): blocked Cholesky of the diagonal cell's subtiles.
      CellState& c = cell_at(k, k);
      const int s = c.s, nb = c.nb;
      auto dh = [&](int a, int b) {
        return c.storage[static_cast<std::size_t>(tri_index(a, b))];
      };
      for (int kk = 0; kk < s; ++kk) {
        submit(Kernel::POTRF, k, -1, -1, nb,
               {{dh(kk, kk), AccessMode::ReadWrite}});
        for (int ii = kk + 1; ii < s; ++ii)
          submit(Kernel::TRSM, k, k, -1, nb,
                 {{dh(kk, kk), AccessMode::Read},
                  {dh(ii, kk), AccessMode::ReadWrite}});
        for (int jj = kk + 1; jj < s; ++jj) {
          submit(Kernel::SYRK, k, -1, k, nb,
                 {{dh(jj, kk), AccessMode::Read},
                  {dh(jj, jj), AccessMode::ReadWrite}});
          for (int ii = jj + 1; ii < s; ++ii)
            submit(Kernel::GEMM, k, k, k, nb,
                   {{dh(ii, kk), AccessMode::Read},
                    {dh(jj, kk), AccessMode::Read},
                    {dh(ii, jj), AccessMode::ReadWrite}});
        }
      }
      note_write(k, k);
    }

    for (int i = k + 1; i < n; ++i) {
      // TRSM(k, i): A(i,k) <- A(i,k) * L(k,k)^{-T}, blocked over the
      // panel cell's subtiles; the diagonal factor is consumed at the
      // panel's granularity via a (possibly repacked) view.
      CellState& c = cell_at(i, k);
      const int s = c.s, nb = c.nb;
      auto ah = [&](int a, int b) {
        return c.storage[static_cast<std::size_t>(a * s + b)];
      };
      const std::vector<int>& ld = ensure_view(k, k, c.level);
      auto lh = [&](int a, int b) {
        return ld[static_cast<std::size_t>(tri_index(a, b))];
      };
      for (int b = 0; b < s; ++b)
        for (int a = 0; a < s; ++a) {
          for (int cc = 0; cc < b; ++cc)
            submit(Kernel::GEMM, k, i, -1, nb,
                   {{ah(a, cc), AccessMode::Read},
                    {lh(b, cc), AccessMode::Read},
                    {ah(a, b), AccessMode::ReadWrite}});
          submit(Kernel::TRSM, k, i, -1, nb,
                 {{lh(b, b), AccessMode::Read},
                  {ah(a, b), AccessMode::ReadWrite}});
        }
      note_write(i, k);
    }

    for (int j = k + 1; j < n; ++j) {
      {
        // SYRK(k, j): A(j,j) -= A(j,k) * A(j,k)^T, panel viewed at the
        // diagonal cell's granularity.
        CellState& c = cell_at(j, j);
        const int s = c.s, nb = c.nb;
        auto dh = [&](int a, int b) {
          return c.storage[static_cast<std::size_t>(tri_index(a, b))];
        };
        const std::vector<int>& pv = ensure_view(j, k, c.level);
        auto ph = [&](int a, int b) {
          return pv[static_cast<std::size_t>(a * s + b)];
        };
        for (int jj = 0; jj < s; ++jj) {
          for (int cc = 0; cc < s; ++cc)
            submit(Kernel::SYRK, k, -1, j, nb,
                   {{ph(jj, cc), AccessMode::Read},
                    {dh(jj, jj), AccessMode::ReadWrite}});
          for (int ii = jj + 1; ii < s; ++ii)
            for (int cc = 0; cc < s; ++cc)
              submit(Kernel::GEMM, k, -1, j, nb,
                     {{ph(ii, cc), AccessMode::Read},
                      {ph(jj, cc), AccessMode::Read},
                      {dh(ii, jj), AccessMode::ReadWrite}});
        }
        note_write(j, j);
      }
      for (int i = j + 1; i < n; ++i) {
        // GEMM(k, i, j): A(i,j) -= A(i,k) * A(j,k)^T, both panels viewed
        // at the output cell's granularity.
        CellState& c = cell_at(i, j);
        const int s = c.s, nb = c.nb;
        auto chh = [&](int a, int b) {
          return c.storage[static_cast<std::size_t>(a * s + b)];
        };
        const std::vector<int>& av = ensure_view(i, k, c.level);
        const std::vector<int>& bv = ensure_view(j, k, c.level);
        auto grid = [&](const std::vector<int>& h, int a, int b) {
          return h[static_cast<std::size_t>(a * s + b)];
        };
        for (int a = 0; a < s; ++a)
          for (int b = 0; b < s; ++b)
            for (int cc = 0; cc < s; ++cc)
              submit(Kernel::GEMM, k, i, j, nb,
                     {{grid(av, a, cc), AccessMode::Read},
                      {grid(bv, b, cc), AccessMode::Read},
                      {chh(a, b), AccessMode::ReadWrite}});
        note_write(i, j);
      }
    }
  }
  return g;
}

}  // namespace hetsched
