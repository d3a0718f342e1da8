#include "data/incident.hpp"

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

}  // namespace fmtree::data
