#include "util/text_file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>

#include "util/error.hpp"

namespace fmtree {

std::string read_text_file(const std::string& path) {
  const auto close = [](std::FILE* f) { std::fclose(f); };
  std::unique_ptr<std::FILE, decltype(close)> file(std::fopen(path.c_str(), "rb"), close);
  if (!file) throw IoError("cannot open '" + path + "'");
  std::string text;
  char buffer[1 << 16];
  while (const std::size_t n = std::fread(buffer, 1, sizeof buffer, file.get()))
    text.append(buffer, n);
  if (std::ferror(file.get()) != 0)
    throw IoError("cannot read '" + path + "': " + std::strerror(errno));
  return text;
}

}  // namespace fmtree
