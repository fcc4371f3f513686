#include "util/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace sunmap::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double value, int precision) {
  char buf[64];
  // A value whose fixed form does not fit (|value| beyond ~1e62) would be
  // cut to a wrong number; print it in exponent form instead.
  if (std::snprintf(buf, sizeof(buf), "%.*f", precision, value) >=
      static_cast<int>(sizeof(buf))) {
    std::snprintf(buf, sizeof(buf), "%.*e", precision, value);
  }
  return buf;
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << row[c];
      if (c + 1 < row.size()) {
        out << std::string(widths[c] - row[c].size() + 2, ' ');
      }
    }
    out << '\n';
  };
  emit_row(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  }
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

}  // namespace sunmap::util
