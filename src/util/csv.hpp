// Minimal CSV writing for incident databases and bench outputs: RFC 4180
// quoting of fields with embedded commas, quotes or newlines. The one
// reader of the dialect is data::IncidentStreamReader (data/stream.hpp).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace fmtree {

using CsvRow = std::vector<std::string>;

/// Streaming CSV writer. Quotes fields only when needed.
class CsvWriter {
public:
  explicit CsvWriter(std::ostream& os) : os_(os) {}
  void write_row(const CsvRow& row);

private:
  std::ostream& os_;
};

/// Escapes one field per RFC 4180 (used by CsvWriter and the incident
/// stream writer).
std::string csv_escape(const std::string& field);

}  // namespace fmtree
