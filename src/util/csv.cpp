#include "util/csv.hpp"

#include <ostream>

namespace fmtree {

std::string csv_escape(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::write_row(const CsvRow& row) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) os_ << ',';
    os_ << csv_escape(row[i]);
  }
  os_ << '\n';
}

}  // namespace fmtree
