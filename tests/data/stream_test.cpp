// Streaming incident ingestion: the mmap reader speaks exactly the dialect
// the streaming writer writes (round-trip with quoting, CRLF, blank lines),
// the writer's bytes are pinned, scans carry everything Garwood calibration
// needs, and malformed inputs fail with row-numbered IoErrors instead of
// silent misparses.
#include "data/stream.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "data/estimate.hpp"
#include "data/incident.hpp"
#include "util/error.hpp"

namespace fmtree::data {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "fmtree_stream_" + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream file(path, std::ios::binary);
  ASSERT_TRUE(file) << path;
  file << content;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

/// Reads an incident CSV of `body` under the standard header to its end and
/// expects an IoError whose message contains `needle`.
void expect_bad(const std::string& name, const std::string& body,
                const std::string& needle) {
  const std::string path = temp_path(name);
  write_file(path, "asset_id,time,failure_mode\n" + body);
  IncidentStreamReader reader(path);
  IncidentRecord record;
  try {
    while (reader.next(record)) {
    }
    ADD_FAILURE() << name << ": expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << name << ": " << e.what();
  }
  std::remove(path.c_str());
}

std::vector<IncidentRecord> sample_records() {
  return {
      {0, 0.5, "contamination"},
      {3, 1.25, "impact_damage"},
      {1, 2.0, "mode,with,commas"},
      {2, 2.75, "quoted \"mode\""},
      {3, 9.5, "contamination"},
  };
}

TEST(IncidentStream, WriterWritesTheIncidentCsvDialect) {
  const std::string path = temp_path("writer.csv");
  IncidentStreamWriter writer(path);
  for (const IncidentRecord& r : sample_records()) writer.add(r);
  writer.add({1, 9.75, "line\nbreak"});
  writer.close();
  EXPECT_EQ(writer.written(), sample_records().size() + 1);
  EXPECT_EQ(read_file(path),
            "asset_id,time,failure_mode\n"
            "0,0.500000,contamination\n"
            "3,1.250000,impact_damage\n"
            "1,2.000000,\"mode,with,commas\"\n"
            "2,2.750000,\"quoted \"\"mode\"\"\"\n"
            "3,9.500000,contamination\n"
            "1,9.750000,\"line\nbreak\"\n");
  std::remove(path.c_str());
}

TEST(IncidentStream, ReaderRoundTripsTheWriterIncludingQuoting) {
  const std::string path = temp_path("roundtrip.csv");
  {
    IncidentStreamWriter writer(path);
    for (const IncidentRecord& r : sample_records()) writer.add(r);
    writer.close();
  }
  IncidentStreamReader reader(path);
  IncidentRecord record;
  std::vector<IncidentRecord> seen;
  while (reader.next(record)) seen.push_back(record);
  const std::vector<IncidentRecord> expected = sample_records();
  ASSERT_EQ(seen.size(), expected.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].asset_id, expected[i].asset_id) << i;
    EXPECT_DOUBLE_EQ(seen[i].time, expected[i].time) << i;
    EXPECT_EQ(seen[i].failure_mode, expected[i].failure_mode) << i;
  }
  std::remove(path.c_str());
}

TEST(IncidentStream, ToleratesCrlfAndBlankLines) {
  const std::string path = temp_path("crlf.csv");
  write_file(path,
             "asset_id,time,failure_mode\r\n"
             "\r\n"
             "0,1.5,contamination\r\n"
             "\n"
             "2,3.25,impact_damage\n");
  IncidentStreamReader reader(path);
  IncidentRecord record;
  ASSERT_TRUE(reader.next(record));
  EXPECT_EQ(record.asset_id, 0u);
  EXPECT_DOUBLE_EQ(record.time, 1.5);
  ASSERT_TRUE(reader.next(record));
  EXPECT_EQ(record.asset_id, 2u);
  EXPECT_EQ(record.failure_mode, "impact_damage");
  EXPECT_FALSE(reader.next(record));
  std::remove(path.c_str());
}

TEST(IncidentStream, RejectsMissingOrWrongHeader) {
  const std::string empty = temp_path("empty.csv");
  write_file(empty, "");
  EXPECT_THROW(IncidentStreamReader{empty}, IoError);
  const std::string wrong = temp_path("wrong_header.csv");
  write_file(wrong, "a,b,c\n0,1,x\n");
  EXPECT_THROW(IncidentStreamReader{wrong}, IoError);
  EXPECT_THROW(IncidentStreamReader{temp_path("does_not_exist.csv")}, IoError);
  std::remove(empty.c_str());
  std::remove(wrong.c_str());
}

TEST(IncidentStream, MalformedRowsThrowWithTheRowNumber) {
  expect_bad("short_row.csv", "0,1.5\n", "row 1");
  expect_bad("long_row.csv", "0,1.5,mode,extra\n", "row 1");
  expect_bad("bad_id.csv", "zero,1.5,mode\n", "malformed value");
  expect_bad("bad_time.csv", "0,later,mode\n", "malformed value");
  expect_bad("huge_id.csv", "5000000000,1.5,mode\n", "out of range");
  expect_bad("second_row.csv", "0,1.5,ok\n0,nope,mode\n", "row 2");
}

// IncidentDatabase::add refuses these rows whatever the fleet and window, so
// the reader refuses them too (the context-dependent asset-id and window
// checks stay in estimate_mode_rates).
TEST(IncidentStream, RejectsANegativeTime) {
  expect_bad("negative_time.csv", "0,1.5,ok\n0,-3.5,ballast_wear\n",
             "negative or non-finite time in row 2");
}

TEST(IncidentStream, RejectsANonFiniteTime) {
  expect_bad("nan_time.csv", "1,nan,ballast_wear\n",
             "negative or non-finite time in row 1");
  expect_bad("inf_time.csv", "1,inf,ballast_wear\n",
             "negative or non-finite time in row 1");
}

TEST(IncidentStream, RejectsAnEmptyFailureMode) {
  expect_bad("empty_mode.csv", "2,1.0,\n", "empty failure mode in row 1");
  expect_bad("quoted_empty_mode.csv", "2,1.0,\"\"\n", "empty failure mode in row 1");
}

// The CSV dialect of util/csv's writer, as the incident reader parses it.
TEST(Csv, MalformedQuotingThrows) {
  expect_bad("unterminated.csv", "0,1.5,\"unterminated\n", "unterminated quoted field");
  expect_bad("mid_quote.csv", "0,1.5,ab\"cd\n", "quote in the middle");
}

TEST(Csv, QuotedFieldWithEmbeddedNewlineSpansLines) {
  const std::string path = temp_path("quoted_newline.csv");
  write_file(path, "asset_id,time,failure_mode\n0,1.5,\"a\nb\"\n1,2.5,c\n");
  IncidentStreamReader reader(path);
  IncidentRecord record;
  ASSERT_TRUE(reader.next(record));
  EXPECT_EQ(record.failure_mode, "a\nb");
  ASSERT_TRUE(reader.next(record));
  EXPECT_EQ(record.asset_id, 1u);
  EXPECT_EQ(record.failure_mode, "c");
  EXPECT_FALSE(reader.next(record));
  std::remove(path.c_str());
}

TEST(Csv, ToleratesCrlfAndTrailingNewline) {
  const std::string path = temp_path("crlf_trailing.csv");
  write_file(path, "asset_id,time,failure_mode\r\n0,1.5,a\r\n1,2.5,b\r\n");
  IncidentStreamReader reader(path);
  IncidentRecord record;
  ASSERT_TRUE(reader.next(record));
  EXPECT_EQ(record.failure_mode, "a");
  ASSERT_TRUE(reader.next(record));
  EXPECT_EQ(record.failure_mode, "b");
  EXPECT_FALSE(reader.next(record));
  std::remove(path.c_str());
}

TEST(Csv, EmptyInputYieldsNoRows) {
  // A header followed by nothing but blank lines holds no record.
  const std::string path = temp_path("header_only.csv");
  write_file(path, "asset_id,time,failure_mode\n\n\r\n");
  IncidentStreamReader reader(path);
  IncidentRecord record;
  EXPECT_FALSE(reader.next(record));
  EXPECT_EQ(scan_incidents(path).records, 0u);
  std::remove(path.c_str());
}

TEST(Csv, LastLineWithoutNewline) {
  const std::string path = temp_path("no_final_newline.csv");
  write_file(path, "asset_id,time,failure_mode\n0,1.5,a\n1,2.5,b");
  IncidentStreamReader reader(path);
  IncidentRecord record;
  ASSERT_TRUE(reader.next(record));
  ASSERT_TRUE(reader.next(record));
  EXPECT_EQ(record.asset_id, 1u);
  EXPECT_EQ(record.failure_mode, "b");
  EXPECT_FALSE(reader.next(record));
  std::remove(path.c_str());
}

TEST(IncidentStream, ScanSummarisesCountsAndMaxima) {
  const std::string path = temp_path("scan.csv");
  {
    IncidentStreamWriter writer(path);
    for (const IncidentRecord& r : sample_records()) writer.add(r);
    writer.close();
  }
  const IncidentScan scan = scan_incidents(path);
  EXPECT_EQ(scan.records, 5u);
  EXPECT_EQ(scan.max_asset_id, 3u);
  EXPECT_DOUBLE_EQ(scan.max_time, 9.5);
  EXPECT_EQ(scan.counts_by_mode.at("contamination"), 2u);
  EXPECT_EQ(scan.counts_by_mode.at("impact_damage"), 1u);
  EXPECT_EQ(scan.counts_by_mode.size(), 4u);
  std::remove(path.c_str());
}

TEST(IncidentStream, ModeRatesMatchTheDirectGarwoodEstimate) {
  IncidentScan scan;
  scan.records = 7;
  scan.max_asset_id = 9;
  scan.max_time = 4.0;
  scan.counts_by_mode = {{"contamination", 4}, {"impact_damage", 3}};
  const std::vector<ModeRate> rates = estimate_mode_rates(scan, 10, 5.0, 0.95);
  ASSERT_EQ(rates.size(), 2u);
  const RateEstimate direct = estimate_rate(4, 50.0, 0.95);
  EXPECT_EQ(rates[0].mode, "contamination");
  EXPECT_DOUBLE_EQ(rates[0].rate.rate, direct.rate);
  EXPECT_DOUBLE_EQ(rates[0].rate.lo, direct.lo);
  EXPECT_DOUBLE_EQ(rates[0].rate.hi, direct.hi);
}

TEST(IncidentStream, ModeRatesValidateTheScanAgainstTheFleet) {
  IncidentScan scan;
  scan.records = 1;
  scan.max_asset_id = 10;
  scan.max_time = 2.0;
  scan.counts_by_mode = {{"m", 1}};
  EXPECT_THROW(estimate_mode_rates(scan, 0, 5.0), DomainError);
  EXPECT_THROW(estimate_mode_rates(scan, 10, 5.0), DomainError);   // id 10 of 10
  EXPECT_THROW(estimate_mode_rates(scan, 11, 1.0), DomainError);   // time outside
  EXPECT_NO_THROW(estimate_mode_rates(scan, 11, 5.0));
}

TEST(IncidentStream, MappedFileHandlesEmptyAndMoves) {
  const std::string path = temp_path("mapped.bin");
  write_file(path, "");
  MappedFile empty(path);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.data(), nullptr);
  write_file(path, "abc");
  MappedFile full(path);
  ASSERT_EQ(full.size(), 3u);
  EXPECT_EQ(std::string(full.data(), full.size()), "abc");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fmtree::data
