#include <gtest/gtest.h>

#include <sstream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace fmtree {
namespace {

// ---- TextTable ----------------------------------------------------------------

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.set_alignment({Align::Left, Align::Right});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "12345"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| name  |"), std::string::npos);
  EXPECT_NE(s.find("|     1 |"), std::string::npos);
  EXPECT_NE(s.find("| 12345 |"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), DomainError);
  EXPECT_THROW(t.set_alignment({Align::Left}), DomainError);
}

TEST(TextTable, EmptyHeadersRejected) {
  EXPECT_THROW(TextTable({}), DomainError);
}

TEST(TextTable, CountsRowsAndColumns) {
  TextTable t({"a", "b", "c"});
  t.add_row({"1", "2", "3"});
  t.add_row({"4", "5", "6"});
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 3u);
}

TEST(CellFormatting, FixedScientificIntegral) {
  EXPECT_EQ(cell(3.14159, 2), "3.14");
  EXPECT_EQ(cell(3.0, 0), "3");
  EXPECT_EQ(cell(std::uint64_t{42}), "42");
  EXPECT_EQ(cell(-7), "-7");
}

// ---- CSV ------------------------------------------------------------------------

TEST(CsvEscape, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(csv_escape("with\"quote"), "\"with\"\"quote\"");
  EXPECT_EQ(csv_escape("with\nnewline"), "\"with\nnewline\"");
}

}  // namespace
}  // namespace fmtree
