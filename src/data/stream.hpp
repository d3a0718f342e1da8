// Streaming incident ingestion: calibrate against million-record incident
// databases in O(1) memory.
//
// The layer reads and writes the incident CSV dialect (RFC 4180 quoting,
// "asset_id,time,failure_mode" header) but never holds more than one record:
//
//  * MappedFile           — read-only POSIX mmap with RAII unmap;
//  * IncidentStreamReader — pull-reader yielding IncidentRecords straight
//                           off the mapping, zero copies for unquoted
//                           fields' numeric parses; the only incident
//                           reader;
//  * scan_incidents       — one pass producing the O(#modes) summary
//                           estimation needs (per-mode counts, record count,
//                           max asset id / time);
//  * estimate_mode_rates  — Garwood rate table from a scan: the streaming
//                           equivalent of estimate_rate over counts_by_mode;
//  * IncidentStreamWriter — append-only writer, the only incident writer,
//                           so generators can produce fleet-scale
//                           databases without materialising them either.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/estimate.hpp"
#include "data/incident.hpp"

namespace fmtree::data {

/// Read-only memory mapping of a whole file; unmaps on destruction. An empty
/// file maps to a null data() with size() == 0.
class MappedFile {
public:
  explicit MappedFile(const std::string& path);  ///< throws IoError
  ~MappedFile();
  MappedFile(MappedFile&&) = delete;
  MappedFile& operator=(MappedFile&&) = delete;

  const char* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }

private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Pull-reader over a mapped incident CSV. Validates the header eagerly
/// (throws IoError); next() yields records in file order and throws IoError
/// naming the 1-based data-row index on a malformed row: a wrong column
/// count, an unparsable or out-of-range value, a negative or non-finite
/// time, or an empty failure mode. The asset-id and window checks of
/// IncidentDatabase::add depend on the fleet size and window, which the
/// reader does not know; callers validate against their own context
/// (scan_incidents reports the maxima, estimate_mode_rates checks them).
class IncidentStreamReader {
public:
  explicit IncidentStreamReader(const std::string& path);

  /// Fills `out` and returns true, or returns false at end of input.
  bool next(IncidentRecord& out);

  /// 1-based index of the data row next() would read (header not counted).
  std::uint64_t row() const noexcept { return row_; }

private:
  MappedFile map_;
  const char* cur_ = nullptr;
  const char* end_ = nullptr;
  std::uint64_t row_ = 1;
};

/// One-pass summary of an incident CSV: everything per-mode Poisson
/// calibration needs, in O(#modes) memory.
struct IncidentScan {
  std::uint64_t records = 0;
  std::uint32_t max_asset_id = 0;  ///< 0 when records == 0
  double max_time = 0.0;           ///< 0 when records == 0
  std::map<std::string, std::uint64_t> counts_by_mode;
};

IncidentScan scan_incidents(const std::string& path);

/// One failure mode's Garwood rate estimate.
struct ModeRate {
  std::string mode;
  RateEstimate rate;
};

/// Per-mode failure rates from a scan, exposure = num_assets *
/// observation_years. Throws DomainError on a non-positive exposure or when
/// the scan saw an asset id >= num_assets or a time > observation_years
/// (the streaming analogue of IncidentDatabase::add's range checks).
std::vector<ModeRate> estimate_mode_rates(const IncidentScan& scan,
                                          std::uint32_t num_assets,
                                          double observation_years,
                                          double confidence = 0.95);

/// Append-only incident CSV writer: the header, then one
/// "<asset_id>,<time>,<failure_mode>" row per record, the time printed by
/// std::to_string and the mode quoted by csv_escape. Writes the header on
/// construction; close() flushes and throws IoError on failure (also called
/// by the destructor, which swallows errors instead).
class IncidentStreamWriter {
public:
  explicit IncidentStreamWriter(const std::string& path);  ///< throws IoError
  ~IncidentStreamWriter();
  IncidentStreamWriter(const IncidentStreamWriter&) = delete;
  IncidentStreamWriter& operator=(const IncidentStreamWriter&) = delete;

  void add(const IncidentRecord& record);
  void close();

  std::uint64_t written() const noexcept { return written_; }

private:
  std::string path_;
  void* file_ = nullptr;  ///< std::FILE*, kept out of the header
  std::uint64_t written_ = 0;
};

}  // namespace fmtree::data
