#include "runtime/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bounds/bound_model.hpp"
#include "core/cholesky_dag.hpp"
#include "core/flops.hpp"
#include "sched/scheduler_registry.hpp"
#include "sim/simulator.hpp"

namespace hetsched {

namespace {

// JSON number formatting: plain %.17g keeps round-trip fidelity without
// trailing-zero noise for typical values.
std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// CSV field names must be stable identifiers: lower-case, [a-z0-9_] only.
std::string csv_slug(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    const bool ok =
        (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

double default_metric(int n, const Platform& p, double seconds) {
  return gflops(n, p.nb(), seconds);
}

}  // namespace

ExperimentCell repeat_averaged(
    const std::string& policy, const TaskGraph& g, const Platform& p, int n,
    const RunOptions& base, int runs, const WorkerFilter& filter,
    const std::function<double(int, const Platform&, double)>& metric,
    double* mean_seconds) {
  const auto& m = metric ? metric : default_metric;
  std::vector<double> xs;
  xs.reserve(static_cast<std::size_t>(runs));
  double seconds_sum = 0.0;
  for (int r = 0; r < runs; ++r) {
    RunOptions opt = base;
    opt.noise_seed = static_cast<unsigned>(r);
    opt.record_trace = false;
    auto s =
        sched::make_scheduler(policy, g, p, static_cast<unsigned>(r), filter);
    const RunReport rep = simulate(g, p, *s, opt);
    if (!rep.success) throw std::runtime_error(rep.error);
    seconds_sum += rep.makespan_s;
    xs.push_back(m(n, p, rep.makespan_s));
  }
  if (mean_seconds != nullptr)
    *mean_seconds = seconds_sum / static_cast<double>(runs);
  ExperimentCell out;
  for (const double x : xs) out.mean += x;
  out.mean /= static_cast<double>(xs.size());
  if (xs.size() > 1) {
    double var = 0.0;
    for (const double x : xs) {
      const double d = x - out.mean;
      var += d * d;
    }
    out.sd = std::sqrt(var / static_cast<double>(xs.size() - 1));
  }
  return out;
}

ExperimentTable run_experiment(const Experiment& e) {
  ExperimentTable t;
  t.title = e.title;
  t.footnote = e.footnote;
  for (const auto& s : e.series) {
    t.columns.push_back(s.name);
    t.show_sd.push_back(s.show_sd);
    t.precision.push_back(s.precision);
  }
  // Unknown scheduler specs and bound-model names fail before any cell
  // simulates (full lists in the errors).
  for (const auto& s : e.series)
    if (!s.scheduler.empty())
      sched::validate_scheduler_spec(sched::SchedulerSpec::parse(s.scheduler));
  const bool have_sched = std::any_of(
      e.series.begin(), e.series.end(),
      [](const SeriesSpec& s) { return !s.scheduler.empty(); });
  for (const std::string& m : e.bound_models) {
    bounds::bound_model(m);
    t.columns.push_back(m + "_bnd");
    t.show_sd.push_back(false);
    t.precision.push_back(1);
    if (have_sched) {
      t.columns.push_back(m + "_ratio");
      t.show_sd.push_back(false);
      t.precision.push_back(3);
    }
  }
  const auto graph_of = [&](int n) {
    return e.graph ? e.graph(n) : build_cholesky_dag(n);
  };
  for (const int n : e.sizes) {
    const TaskGraph g = graph_of(n);
    const Platform p = e.platform(n);
    std::vector<ExperimentCell> row;
    row.reserve(e.series.size());
    // Fastest scheduler series' mean makespan feeds the ratio columns.
    double best_seconds = 0.0;
    for (const auto& s : e.series) {
      // The partitioning axis: a series may simulate its own graph of the
      // same problem size (built fresh per cell; overrides are expected to
      // be rare and sizes small enough that rebuilding beats caching).
      const TaskGraph sg = s.graph ? s.graph(n) : TaskGraph{};
      const TaskGraph& gr = s.graph ? sg : g;
      ExperimentCell cell;
      if (!s.scheduler.empty()) {
        const auto& metric =
            s.metric ? s.metric : (e.metric ? e.metric : default_metric);
        double seconds = 0.0;
        cell = repeat_averaged(s.scheduler, gr, p, n, s.options, s.runs,
                               s.filter, metric, &seconds);
        if (best_seconds == 0.0 || seconds < best_seconds)
          best_seconds = seconds;
      } else if (s.value) {
        cell.mean = s.value(n, gr, p, row);
      } else {
        throw std::invalid_argument("series '" + s.name +
                                    "': neither scheduler nor value set");
      }
      if (s.scale) {
        const double k = s.scale(n, gr, p);
        cell.mean *= k;
        cell.sd *= k;
      }
      row.push_back(cell);
    }
    for (const std::string& m : e.bound_models) {
      const double bound_s = bounds::evaluate_bound_s(m, g, p);
      const auto& metric = e.metric ? e.metric : default_metric;
      ExperimentCell bnd;
      bnd.mean = metric(n, p, bound_s);
      row.push_back(bnd);
      if (have_sched) {
        ExperimentCell ratio;
        ratio.mean = bound_s > 0.0 ? best_seconds / bound_s : 0.0;
        row.push_back(ratio);
      }
    }
    t.sizes.push_back(n);
    t.cells.push_back(std::move(row));
  }
  return t;
}

std::string ExperimentTable::text() const {
  std::string out;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "# %s\n", title.c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf), "%-10s", "size");
  out += buf;
  for (const auto& c : columns) {
    std::snprintf(buf, sizeof(buf), " %16s", c.c_str());
    out += buf;
  }
  out += '\n';
  for (std::size_t r = 0; r < sizes.size(); ++r) {
    std::snprintf(buf, sizeof(buf), "%-10d", sizes[r]);
    out += buf;
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const ExperimentCell& cell = cells[r][c];
      if (show_sd[c]) {
        std::snprintf(buf, sizeof(buf), " %9.*f+-%5.*f", precision[c],
                      cell.mean, precision[c], cell.sd);
      } else {
        std::snprintf(buf, sizeof(buf), " %16.*f", precision[c], cell.mean);
      }
      out += buf;
    }
    out += '\n';
  }
  if (!footnote.empty()) {
    out += '\n';
    out += footnote;
    if (footnote.back() != '\n') out += '\n';
  }
  return out;
}

std::string ExperimentTable::csv() const {
  std::ostringstream out;
  out << "size";
  for (const auto& c : columns) {
    const std::string slug = csv_slug(c);
    out << ',' << slug << "_mean," << slug << "_sd";
  }
  out << '\n';
  for (std::size_t r = 0; r < sizes.size(); ++r) {
    out << sizes[r];
    for (const auto& cell : cells[r])
      out << ',' << json_number(cell.mean) << ',' << json_number(cell.sd);
    out << '\n';
  }
  return out.str();
}

std::string ExperimentTable::json() const {
  std::ostringstream out;
  out << "{\n  \"experiment\": \"" << json_escape(title)
      << "\",\n  \"results\": [\n";
  bool first = true;
  for (std::size_t r = 0; r < sizes.size(); ++r) {
    for (std::size_t c = 0; c < columns.size(); ++c) {
      if (!first) out << ",\n";
      first = false;
      out << "    {\"size\": " << sizes[r] << ", \"series\": \""
          << json_escape(columns[c])
          << "\", \"mean\": " << json_number(cells[r][c].mean)
          << ", \"sd\": " << json_number(cells[r][c].sd) << "}";
    }
  }
  out << "\n  ]\n}\n";
  return out.str();
}

int run_experiment_main(const Experiment& e, int argc, char** argv) {
  enum class Format { kText, kCsv, kJson };
  Format fmt = Format::kText;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--csv") {
      fmt = Format::kCsv;
    } else if (a == "--json") {
      fmt = Format::kJson;
    } else if (a.rfind("--out=", 0) == 0) {
      out_path = a.substr(std::strlen("--out="));
    } else if (a == "--help") {
      std::printf("usage: %s [--csv|--json] [--out=FILE]\n",
                  argc > 0 ? argv[0] : "bench");
      std::printf("  %s\n", e.title.c_str());
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s' (try --help)\n", a.c_str());
      return 2;
    }
  }
  const ExperimentTable t = run_experiment(e);
  const std::string body = fmt == Format::kCsv    ? t.csv()
                           : fmt == Format::kJson ? t.json()
                                                  : t.text();
  if (out_path.empty()) {
    std::fputs(body.c_str(), stdout);
  } else {
    std::ofstream f(out_path);
    if (!f) {
      std::fprintf(stderr, "cannot open '%s' for writing\n", out_path.c_str());
      return 1;
    }
    f << body;
  }
  return 0;
}

}  // namespace hetsched
