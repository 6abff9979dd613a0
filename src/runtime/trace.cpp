#include "runtime/trace.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace hetsched::runtime {
namespace {

char kernel_letter(Kernel k) {
  switch (k) {
    case Kernel::POTRF: return 'P';
    case Kernel::TRSM: return 'T';
    case Kernel::SYRK: return 'S';
    case Kernel::GEMM: return 'G';
    case Kernel::GETRF: return 'L';
    case Kernel::GEQRT: return 'Q';
    case Kernel::TSQRT: return 't';
    case Kernel::ORMQR: return 'o';
    case Kernel::TSMQR: return 'm';
    case Kernel::SPLIT: return 'v';
    case Kernel::MERGE: return 'V';
  }
  return '?';
}

const char* kernel_color(Kernel k) {
  switch (k) {
    case Kernel::POTRF: return "#d62728";  // red
    case Kernel::TRSM: return "#1f77b4";   // blue
    case Kernel::SYRK: return "#2ca02c";   // green
    case Kernel::GEMM: return "#ff7f0e";   // orange
    case Kernel::GETRF: return "#9467bd";  // purple
    case Kernel::GEQRT: return "#8c564b";  // brown
    case Kernel::TSQRT: return "#e377c2";  // pink
    case Kernel::ORMQR: return "#17becf";  // cyan
    case Kernel::TSMQR: return "#bcbd22";  // olive
    case Kernel::SPLIT:
    case Kernel::MERGE: return "#7f7f7f";  // gray (repack, no arithmetic)
  }
  return "#999999";
}

}  // namespace

double Trace::makespan() const {
  double m = 0.0;
  for (const ComputeRecord& r : compute_) m = std::max(m, r.end);
  return m;
}

double Trace::busy_seconds(int worker) const {
  double s = 0.0;
  for (const ComputeRecord& r : compute_)
    if (r.worker == worker) s += r.end - r.start;
  return s;
}

double Trace::idle_seconds(int worker) const {
  return makespan() - busy_seconds(worker);
}

double Trace::idle_fraction(const std::vector<int>& workers) const {
  const double span = makespan();
  if (span <= 0.0) return 0.0;
  std::vector<int> ws = workers;
  if (ws.empty())
    for (int w = 0; w < num_workers_; ++w) ws.push_back(w);
  double idle = 0.0;
  for (const int w : ws) idle += idle_seconds(w);
  return idle / (span * static_cast<double>(ws.size()));
}

std::string Trace::ascii_gantt(int width, const std::vector<int>& workers) const {
  const double span = makespan();
  std::vector<int> ws = workers;
  if (ws.empty())
    for (int w = 0; w < num_workers_; ++w) ws.push_back(w);

  std::ostringstream out;
  for (const int w : ws) {
    std::string row(static_cast<std::size_t>(width), '.');
    for (const ComputeRecord& r : compute_) {
      if (r.worker != w || span <= 0.0) continue;
      int c0 = static_cast<int>(std::floor(r.start / span * width));
      int c1 = static_cast<int>(std::ceil(r.end / span * width));
      c0 = std::clamp(c0, 0, width - 1);
      c1 = std::clamp(c1, c0 + 1, width);
      for (int c = c0; c < c1; ++c)
        row[static_cast<std::size_t>(c)] = kernel_letter(r.kernel);
    }
    out << "w" << w << " |" << row << "|\n";
  }
  return out.str();
}

std::string Trace::to_svg(const std::vector<int>& workers) const {
  const double span = makespan();
  std::vector<int> ws = workers;
  if (ws.empty())
    for (int w = 0; w < num_workers_; ++w) ws.push_back(w);

  constexpr int kRowH = 24, kRowGap = 6, kLeft = 60, kWidth = 1000;
  const int height = static_cast<int>(ws.size()) * (kRowH + kRowGap) + 20;

  std::ostringstream svg;
  svg << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\""
      << (kLeft + kWidth + 20) << "\" height=\"" << height << "\">\n";
  for (std::size_t r = 0; r < ws.size(); ++r) {
    const int w = ws[r];
    const int y = static_cast<int>(r) * (kRowH + kRowGap) + 10;
    svg << "  <text x=\"4\" y=\"" << (y + kRowH / 2 + 4)
        << "\" font-size=\"12\">w" << w << "</text>\n";
    svg << "  <rect x=\"" << kLeft << "\" y=\"" << y << "\" width=\"" << kWidth
        << "\" height=\"" << kRowH
        << "\" fill=\"#f0f0f0\" stroke=\"#cccccc\"/>\n";
    for (const ComputeRecord& rec : compute_) {
      if (rec.worker != w || span <= 0.0) continue;
      const double x = kLeft + rec.start / span * kWidth;
      const double bw = std::max(0.5, (rec.end - rec.start) / span * kWidth);
      svg << "  <rect x=\"" << x << "\" y=\"" << y << "\" width=\"" << bw
          << "\" height=\"" << kRowH << "\" fill=\"" << kernel_color(rec.kernel)
          << "\"><title>" << to_string(rec.kernel) << " task " << rec.task
          << "</title></rect>\n";
    }
  }
  svg << "</svg>\n";
  return svg.str();
}

}  // namespace hetsched::runtime
