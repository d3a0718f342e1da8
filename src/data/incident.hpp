// Incident registration database: the substitute for the proprietary
// ProRail incident data the paper calibrated against. Records system-level
// failures of a fleet of assets (joints) over an observation window, with
// the failure mode attributed by the maintenance engineer.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fmtree::data {

struct IncidentRecord {
  std::uint32_t asset_id = 0;  ///< which joint in the fleet
  double time = 0.0;           ///< years since the observation window opened
  std::string failure_mode;    ///< attributed cause (leaf name)
};

/// In-memory incident database; add() range-checks every record.
class IncidentDatabase {
public:
  IncidentDatabase(std::uint32_t num_assets, double observation_years);

  void add(IncidentRecord record);

  std::uint32_t num_assets() const noexcept { return num_assets_; }
  double observation_years() const noexcept { return observation_years_; }
  const std::vector<IncidentRecord>& records() const noexcept { return records_; }
  std::size_t size() const noexcept { return records_.size(); }

  /// Total asset-years of exposure in the window.
  double exposure() const noexcept {
    return static_cast<double>(num_assets_) * observation_years_;
  }

  /// Failures per asset-year across all modes.
  double failure_rate() const noexcept {
    return static_cast<double>(records_.size()) / exposure();
  }

  /// Incident counts by failure mode, ordered by mode name.
  std::map<std::string, std::uint64_t> counts_by_mode() const;

private:
  std::uint32_t num_assets_;
  double observation_years_;
  std::vector<IncidentRecord> records_;
};

}  // namespace fmtree::data
