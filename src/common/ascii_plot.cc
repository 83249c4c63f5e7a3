#include "src/common/ascii_plot.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "src/common/log.h"

namespace sled {
namespace {

struct Range {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();

  void Include(double v) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  bool valid() const { return lo <= hi; }
  double span() const { return hi - lo; }
};

}  // namespace

std::string RenderPlot(const std::vector<PlotSeries>& series, const PlotOptions& options) {
  const int w = std::max(options.width, 10);
  const int h = std::max(options.height, 5);

  Range xr;
  Range yr;
  for (const PlotSeries& s : series) {
    SLED_CHECK(s.xs.size() == s.ys.size(), "series '%s': xs/ys size mismatch", s.name.c_str());
    for (double x : s.xs) {
      xr.Include(x);
    }
    for (double y : s.ys) {
      yr.Include(y);
    }
  }
  std::string out;
  if (!xr.valid() || !yr.valid()) {
    return "(no data)\n";
  }
  yr.Include(0.0);
  if (xr.span() == 0.0) {
    xr.hi = xr.lo + 1.0;
  }
  if (yr.span() == 0.0) {
    yr.hi = yr.lo + 1.0;
  }

  std::vector<std::string> grid(static_cast<size_t>(h), std::string(static_cast<size_t>(w), ' '));
  for (const PlotSeries& s : series) {
    for (size_t i = 0; i < s.xs.size(); ++i) {
      const double fx = (s.xs[i] - xr.lo) / xr.span();
      const double fy = (s.ys[i] - yr.lo) / yr.span();
      int col = static_cast<int>(std::lround(fx * (w - 1)));
      int row = static_cast<int>(std::lround(fy * (h - 1)));
      col = std::clamp(col, 0, w - 1);
      row = std::clamp(row, 0, h - 1);
      grid[static_cast<size_t>(h - 1 - row)][static_cast<size_t>(col)] = s.glyph;
    }
  }

  char buf[160];
  if (!options.title.empty()) {
    out += "  " + options.title + "\n";
  }
  if (!options.y_label.empty()) {
    out += "  " + options.y_label + "\n";
  }
  for (int r = 0; r < h; ++r) {
    const double y_here = yr.hi - (yr.span() * r) / (h - 1);
    if (r % 5 == 0 || r == h - 1) {
      std::snprintf(buf, sizeof(buf), "%10.2f |", y_here);
    } else {
      std::snprintf(buf, sizeof(buf), "%10s |", "");
    }
    out += buf;
    out += grid[static_cast<size_t>(r)];
    out += '\n';
  }
  out += std::string(11, ' ') + '+' + std::string(static_cast<size_t>(w), '-') + '\n';
  std::snprintf(buf, sizeof(buf), "%10s  %-12.2f%*.2f  %s\n", "", xr.lo, w - 12, xr.hi,
                options.x_label.c_str());
  out += buf;
  for (const PlotSeries& s : series) {
    std::snprintf(buf, sizeof(buf), "%12s %c = %s\n", "", s.glyph, s.name.c_str());
    out += buf;
  }
  return out;
}

}  // namespace sled
