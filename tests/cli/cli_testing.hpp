// Shared helper for the CLI tests: the message parse_args refuses an
// argument list with.
#pragma once

#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "util/error.hpp"

namespace fmtree::cli {

/// The message parse_args refuses `args` with; "" when it accepts them.
inline std::string refusal(const std::vector<std::string>& args) {
  try {
    parse_args(args);
  } catch (const DomainError& e) {
    return e.what();
  }
  return "";
}

}  // namespace fmtree::cli
