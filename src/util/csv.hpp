// RFC 4180 quoting of one CSV field, for the incident CSV dialect. Its one
// writer is data::IncidentStreamWriter and its one reader
// data::IncidentStreamReader (data/stream.hpp).
#pragma once

#include <string>

namespace fmtree {

/// Escapes one field per RFC 4180; quotes it only when needed.
std::string csv_escape(const std::string& field);

}  // namespace fmtree
