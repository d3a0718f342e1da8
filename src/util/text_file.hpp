// Whole-file reading of model files and policy scripts.
#pragma once

#include <string>

namespace fmtree {

/// The bytes of the file at `path`. Throws IoError when it cannot be opened
/// or read; a directory opens but cannot be read. Pipes and /dev/stdin read
/// to their end, and an empty regular file reads as empty text.
std::string read_text_file(const std::string& path);

}  // namespace fmtree
