// Tiny ASCII plotter so each bench binary can render the paper figure it
// reproduces directly in the terminal (alongside the machine-readable rows).
#ifndef SLEDS_SRC_COMMON_ASCII_PLOT_H_
#define SLEDS_SRC_COMMON_ASCII_PLOT_H_

#include <string>
#include <vector>

namespace sled {

struct PlotSeries {
  std::string name;
  char glyph = '+';
  std::vector<double> xs;
  std::vector<double> ys;
};

struct PlotOptions {
  int width = 72;    // interior columns
  int height = 20;   // interior rows
  std::string title;
  std::string x_label;
  std::string y_label;
};

// Render a scatter plot of the series onto a character grid with axes and a
// legend; the y axis always includes zero. Overlapping points from different
// series show the later glyph.
std::string RenderPlot(const std::vector<PlotSeries>& series, const PlotOptions& options);

}  // namespace sled

#endif  // SLEDS_SRC_COMMON_ASCII_PLOT_H_
