#pragma once

#include <string>
#include <vector>

namespace sunmap::util {

/// Minimal ASCII table builder used by the benchmark harnesses and examples
/// to print paper-style result tables (e.g. Fig 3(d), Fig 7(b)).
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a row; the row is padded/truncated to the header width.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision, in fixed
  /// notation, or in exponent notation when the fixed form would take 64
  /// characters or more.
  static std::string num(double value, int precision = 2);

  /// Renders the table with aligned columns and a separator under the header.
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t num_cols() const { return header_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sunmap::util
