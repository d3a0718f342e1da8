#include "data/stream.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "util/csv.hpp"
#include "util/error.hpp"

namespace fmtree::data {

MappedFile::MappedFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0)
    throw IoError("cannot open '" + path + "': " + std::strerror(errno));
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw IoError("cannot stat '" + path + "': " + std::strerror(err));
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ > 0) {
    void* mapped = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (mapped == MAP_FAILED) {
      const int err = errno;
      ::close(fd);
      size_ = 0;
      throw IoError("cannot mmap '" + path + "': " + std::strerror(err));
    }
    data_ = static_cast<const char*>(mapped);
  }
  ::close(fd);  // the mapping keeps its own reference
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
}

namespace {

/// One CSV field off the mapping (the dialect IncidentStreamWriter writes:
/// RFC 4180 quoting, CRLF tolerated). Advances `cur` past the field and its
/// delimiter; sets `end_of_row` when the delimiter was a newline (or end of
/// input).
std::string next_field(const char*& cur, const char* end, bool& end_of_row) {
  std::string field;
  bool in_quotes = false;
  end_of_row = true;  // until a comma says otherwise
  while (cur < end) {
    const char c = *cur++;
    if (in_quotes) {
      if (c == '"') {
        if (cur < end && *cur == '"') {
          field += '"';
          ++cur;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    if (c == '"') {
      if (!field.empty())
        throw IoError("csv: quote in the middle of an unquoted field");
      in_quotes = true;
    } else if (c == ',') {
      end_of_row = false;
      return field;
    } else if (c == '\r') {
      // tolerate CRLF
    } else if (c == '\n') {
      return field;
    } else {
      field += c;
    }
  }
  if (in_quotes) throw IoError("csv: unterminated quoted field");
  return field;
}

[[noreturn]] void malformed(std::uint64_t row, const char* what) {
  throw IoError("incident csv: " + std::string(what) + " in row " +
                std::to_string(row));
}

}  // namespace

IncidentStreamReader::IncidentStreamReader(const std::string& path) : map_(path) {
  cur_ = map_.data();
  end_ = map_.data() + map_.size();
  bool eor = false;
  std::vector<std::string> header;
  if (cur_ < end_) {
    do {
      header.push_back(next_field(cur_, end_, eor));
    } while (!eor);
  }
  if (header != std::vector<std::string>{"asset_id", "time", "failure_mode"})
    throw IoError("incident csv: missing or wrong header");
}

bool IncidentStreamReader::next(IncidentRecord& out) {
  // Skip blank lines.
  while (cur_ < end_ && (*cur_ == '\n' || *cur_ == '\r')) ++cur_;
  if (cur_ >= end_) return false;

  bool eor = false;
  const std::string asset = next_field(cur_, end_, eor);
  if (eor) malformed(row_, "wrong column count");
  const std::string time = next_field(cur_, end_, eor);
  if (eor) malformed(row_, "wrong column count");
  out.failure_mode = next_field(cur_, end_, eor);
  if (!eor) malformed(row_, "wrong column count");
  if (out.failure_mode.empty()) malformed(row_, "empty failure mode");

  char* parse_end = nullptr;
  errno = 0;
  const unsigned long id = std::strtoul(asset.c_str(), &parse_end, 10);
  if (parse_end == asset.c_str() || *parse_end != '\0')
    malformed(row_, "malformed value");
  if (errno == ERANGE || id > std::numeric_limits<std::uint32_t>::max())
    malformed(row_, "value out of range");
  out.asset_id = static_cast<std::uint32_t>(id);

  errno = 0;
  out.time = std::strtod(time.c_str(), &parse_end);
  if (parse_end == time.c_str() || *parse_end != '\0')
    malformed(row_, "malformed value");
  if (errno == ERANGE) malformed(row_, "value out of range");
  if (!std::isfinite(out.time) || out.time < 0)
    malformed(row_, "negative or non-finite time");

  ++row_;
  return true;
}

IncidentScan scan_incidents(const std::string& path) {
  IncidentStreamReader reader(path);
  IncidentScan scan;
  IncidentRecord record;
  while (reader.next(record)) {
    ++scan.records;
    scan.max_asset_id = std::max(scan.max_asset_id, record.asset_id);
    scan.max_time = std::max(scan.max_time, record.time);
    ++scan.counts_by_mode[record.failure_mode];
  }
  return scan;
}

std::vector<ModeRate> estimate_mode_rates(const IncidentScan& scan,
                                          std::uint32_t num_assets,
                                          double observation_years,
                                          double confidence) {
  if (num_assets == 0) throw DomainError("rate estimation needs >= 1 asset");
  if (!(observation_years > 0) || !std::isfinite(observation_years))
    throw DomainError("observation window must be positive and finite");
  if (scan.records > 0 && scan.max_asset_id >= num_assets)
    throw DomainError("incident scan saw asset id " +
                      std::to_string(scan.max_asset_id) +
                      " outside the fleet of " + std::to_string(num_assets));
  if (scan.records > 0 && scan.max_time > observation_years)
    throw DomainError("incident scan saw a time outside the observation window");
  const double exposure =
      static_cast<double>(num_assets) * observation_years;
  std::vector<ModeRate> rates;
  rates.reserve(scan.counts_by_mode.size());
  for (const auto& [mode, count] : scan.counts_by_mode)
    rates.push_back({mode, estimate_rate(count, exposure, confidence)});
  return rates;
}

IncidentStreamWriter::IncidentStreamWriter(const std::string& path) : path_(path) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr)
    throw IoError("cannot create '" + path + "': " + std::strerror(errno));
  file_ = file;
  if (std::fputs("asset_id,time,failure_mode\n", file) < 0) {
    std::fclose(file);
    file_ = nullptr;
    throw IoError("cannot write '" + path + "'");
  }
}

IncidentStreamWriter::~IncidentStreamWriter() {
  if (file_ != nullptr) std::fclose(static_cast<std::FILE*>(file_));
}

void IncidentStreamWriter::add(const IncidentRecord& record) {
  if (file_ == nullptr) throw IoError("incident writer '" + path_ + "' is closed");
  const std::string row = std::to_string(record.asset_id) + "," +
                          std::to_string(record.time) + "," +
                          csv_escape(record.failure_mode) + "\n";
  if (std::fwrite(row.data(), 1, row.size(), static_cast<std::FILE*>(file_)) !=
      row.size())
    throw IoError("cannot write '" + path_ + "'");
  ++written_;
}

void IncidentStreamWriter::close() {
  if (file_ == nullptr) return;
  std::FILE* file = static_cast<std::FILE*>(file_);
  file_ = nullptr;
  if (std::fclose(file) != 0)
    throw IoError("cannot flush '" + path_ + "': " + std::strerror(errno));
}

}  // namespace fmtree::data
