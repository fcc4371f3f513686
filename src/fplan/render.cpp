#include "fplan/render.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace sunmap::fplan {

std::string render_ascii(
    const Floorplan& floorplan,
    const std::function<std::string(const PlacedBlock&)>& label,
    int width_chars) {
  if (floorplan.blocks().empty() || floorplan.width_mm() <= 0.0 ||
      floorplan.height_mm() <= 0.0 || width_chars < 10) {
    return "(empty floorplan)\n";
  }

  // Terminal cells are ~2x taller than wide; halve the row resolution.
  const double scale_x = width_chars / floorplan.width_mm();
  const double scale_y = scale_x * 0.5;
  const int rows = std::max(
      3, static_cast<int>(std::lround(floorplan.height_mm() * scale_y)) + 1);
  const int cols = width_chars + 1;

  std::vector<std::string> canvas(static_cast<std::size_t>(rows),
                                  std::string(static_cast<std::size_t>(cols),
                                              ' '));

  auto to_col = [&](double x) {
    return std::clamp(static_cast<int>(std::lround(x * scale_x)), 0,
                      cols - 1);
  };
  auto to_row = [&](double y) {
    // Flip: floorplan origin is bottom-left, canvas row 0 is the top.
    return std::clamp(rows - 1 - static_cast<int>(std::lround(y * scale_y)),
                      0, rows - 1);
  };

  for (const auto& block : floorplan.blocks()) {
    const int c0 = to_col(block.x);
    const int c1 = std::max(c0 + 1, to_col(block.x + block.w));
    const int r1 = to_row(block.y);
    const int r0 = std::min(r1 - 1, to_row(block.y + block.h));
    for (int r = r0; r <= r1; ++r) {
      for (int c = c0; c <= c1; ++c) {
        const bool border = r == r0 || r == r1 || c == c0 || c == c1;
        char& cell = canvas[static_cast<std::size_t>(r)]
                           [static_cast<std::size_t>(c)];
        if (border) {
          cell = (r == r0 || r == r1) ? '-' : '|';
          if ((r == r0 || r == r1) && (c == c0 || c == c1)) cell = '+';
        }
      }
    }
    const std::string name = label(block);
    const int mid_row = (r0 + r1) / 2;
    const int space = c1 - c0 - 1;
    if (space > 0 && mid_row > r0 && mid_row < r1) {
      const int len = std::min<int>(static_cast<int>(name.size()), space);
      const int start = c0 + 1 + (space - len) / 2;
      for (int i = 0; i < len; ++i) {
        canvas[static_cast<std::size_t>(mid_row)]
              [static_cast<std::size_t>(start + i)] =
            name[static_cast<std::size_t>(i)];
      }
    }
  }

  std::string out;
  for (const auto& line : canvas) {
    out += line;
    out += '\n';
  }
  return out;
}

std::string render_ascii(const Floorplan& floorplan, int width_chars) {
  return render_ascii(
      floorplan,
      [](const PlacedBlock& block) {
        std::string label =
            block.kind == PlacedBlock::Kind::kCore ? "c" : "S";
        label += std::to_string(block.index);
        return label;
      },
      width_chars);
}

}  // namespace sunmap::fplan
