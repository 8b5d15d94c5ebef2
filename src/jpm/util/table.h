// ASCII table printer for `jpm run`: every report prints the rows/series of
// the paper's corresponding table or figure.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace jpm {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  // Starts a new row; subsequent add_* calls fill it left to right.
  Table& row();
  Table& cell(const std::string& text);
  Table& cell(double value, int precision = 2);
  Table& cell(std::uint64_t value);
  Table& cell_percent(double fraction, int precision = 1);  // 0.42 -> "42.0%"

  // Renders with column widths fit to content.
  void print(std::ostream& os) const;
  std::string to_string() const;

  std::size_t rows() const { return cells_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> cells_;
};

}  // namespace jpm
