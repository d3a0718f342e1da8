// ASCII table rendering for benchmark/report output.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace fmtree {

/// Column alignment within a rendered table.
enum class Align { Left, Right };

/// A simple text table: set headers, append rows, print. All cells are
/// strings; use the cell() helpers for formatted numerics.
class TextTable {
public:
  explicit TextTable(std::vector<std::string> headers);

  /// Per-column alignment; default is Left for all.
  void set_alignment(std::vector<Align> alignment);

  /// Appends a row; must match the header width.
  void add_row(std::vector<std::string> row);

  std::size_t rows() const noexcept { return rows_.size(); }
  std::size_t columns() const noexcept { return headers_.size(); }

  /// Renders with a header rule and column separators.
  void print(std::ostream& os) const;

private:
  std::vector<std::string> headers_;
  std::vector<Align> alignment_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-decimal formatting, e.g. cell(3.14159, 2) == "3.14".
std::string cell(double value, int decimals);
std::string cell(std::uint64_t value);
std::string cell(int value);

}  // namespace fmtree
