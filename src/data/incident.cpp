#include "data/incident.hpp"

#include <ostream>

#include "util/csv.hpp"
#include "util/error.hpp"

namespace fmtree::data {

IncidentDatabase::IncidentDatabase(std::uint32_t num_assets, double observation_years)
    : num_assets_(num_assets), observation_years_(observation_years) {
  if (num_assets == 0) throw DomainError("incident database needs >= 1 asset");
  if (!(observation_years > 0))
    throw DomainError("observation window must be positive");
}

void IncidentDatabase::add(IncidentRecord record) {
  if (record.asset_id >= num_assets_)
    throw DomainError("incident asset id out of range");
  if (record.time < 0 || record.time > observation_years_)
    throw DomainError("incident time outside the observation window");
  if (record.failure_mode.empty()) throw DomainError("incident needs a failure mode");
  records_.push_back(std::move(record));
}

std::map<std::string, std::uint64_t> IncidentDatabase::counts_by_mode() const {
  std::map<std::string, std::uint64_t> counts;
  for (const IncidentRecord& r : records_) ++counts[r.failure_mode];
  return counts;
}

void IncidentDatabase::save_csv(std::ostream& os) const {
  CsvWriter writer(os);
  writer.write_row({"asset_id", "time", "failure_mode"});
  for (const IncidentRecord& r : records_)
    writer.write_row(
        {std::to_string(r.asset_id), std::to_string(r.time), r.failure_mode});
}

}  // namespace fmtree::data
