#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace fmtree {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)), alignment_(headers_.size(), Align::Left) {
  if (headers_.empty()) throw DomainError("table requires at least one column");
}

void TextTable::set_alignment(std::vector<Align> alignment) {
  if (alignment.size() != headers_.size())
    throw DomainError("alignment width does not match header width");
  alignment_ = std::move(alignment);
}

void TextTable::add_row(std::vector<std::string> row) {
  if (row.size() != headers_.size())
    throw DomainError("row width does not match header width");
  rows_.push_back(std::move(row));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " ");
      if (alignment_[c] == Align::Right)
        os << std::setw(static_cast<int>(widths[c])) << std::right << row[c];
      else
        os << std::setw(static_cast<int>(widths[c])) << std::left << row[c];
      os << " |";
    }
    os << '\n';
  };

  auto rule = [&] {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      os << (c == 0 ? "|" : "") << std::string(widths[c] + 2, '-') << "|";
    }
    os << '\n';
  };

  emit(headers_);
  rule();
  for (const auto& row : rows_) emit(row);
}

std::string cell(double value, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << value;
  return os.str();
}

std::string cell(std::uint64_t value) { return std::to_string(value); }
std::string cell(int value) { return std::to_string(value); }

}  // namespace fmtree
