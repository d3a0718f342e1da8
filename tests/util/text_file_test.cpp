// Whole-file reading: a regular file reads its bytes, an empty one reads as
// empty text, a device reads to its end, and a missing file or a directory
// is an IoError rather than empty text.
#include "util/text_file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "util/error.hpp"

namespace fmtree {
namespace {

TEST(ReadTextFile, ReadsRegularFilesAndDevices) {
  const std::string path = testing::TempDir() + "fmtree_text_file.txt";
  std::ofstream(path) << "toplevel T;\nT or A;\n";
  EXPECT_EQ(read_text_file(path), "toplevel T;\nT or A;\n");
  std::ofstream(path, std::ios::trunc).close();
  EXPECT_EQ(read_text_file(path), "");
  EXPECT_EQ(read_text_file("/dev/null"), "");  // a device, as /dev/stdin is
  std::filesystem::remove(path);
}

TEST(ReadTextFile, MissingFilesAndDirectoriesThrow) {
  EXPECT_THROW(read_text_file(testing::TempDir() + "fmtree_no_such_file"), IoError);
  EXPECT_THROW(read_text_file(testing::TempDir()), IoError);
}

}  // namespace
}  // namespace fmtree
