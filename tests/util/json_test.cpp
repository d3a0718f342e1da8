#include "util/json.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/error.hpp"

namespace fmtree::json {
namespace {

/// The IoError message `read` throws; "" when it throws none.
template <typename Read>
std::string reader_error(Read read) {
  try {
    (void)read();
  } catch (const IoError& e) {
    return e.what();
  }
  return "";
}

TEST(JsonReaders, AtNamesAMissingMember) {
  const Value doc = parse(R"({"present": "yes"})");
  EXPECT_EQ(doc.at("present").as_string(), "yes");
  EXPECT_EQ(reader_error([&] { return doc.at("absent"); }),
            "io error: json: missing member 'absent'");
  EXPECT_EQ(reader_error([&] { return parse("[1]").at("present"); }),
            "io error: json: missing member 'present'");
}

TEST(JsonReaders, AsStringRefusesANumber) {
  EXPECT_EQ(reader_error([] { return parse("2.5").as_string(); }),
            "io error: json: expected a string");
}

TEST(JsonReaders, AsDoubleReadsANumberOrAStringSpellingOne) {
  EXPECT_EQ(parse("2.5").as_double(), 2.5);
  EXPECT_EQ(parse("-1e-3").as_double(), -1e-3);
  EXPECT_EQ(parse(R"("0x1.8p+1")").as_double(), 3.0);
  EXPECT_EQ(parse(R"(")" + hexfloat(0.1) + R"(")").as_double(), 0.1);
  EXPECT_EQ(parse(R"("0.1")").as_double(), 0.1);
}

TEST(JsonReaders, AsDoubleRefusesTrailingGarbageAndOtherKinds) {
  EXPECT_EQ(reader_error([] { return parse(R"("0x1.8p+1x")").as_double(); }),
            "io error: json: bad number '0x1.8p+1x'");
  EXPECT_EQ(reader_error([] { return parse(R"("")").as_double(); }),
            "io error: json: bad number ''");
  EXPECT_EQ(reader_error([] { return parse("1e5e").as_double(); }),
            "io error: json: bad number '1e5e'");
  EXPECT_EQ(reader_error([] { return parse("[1.5]").as_double(); }),
            "io error: json: expected a number");
  EXPECT_EQ(reader_error([] { return parse("true").as_double(); }),
            "io error: json: expected a number");
}

}  // namespace
}  // namespace fmtree::json
