#include "batch/result_cache.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <utility>

#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/json.hpp"

namespace fmtree::batch {

namespace {

using json::hexfloat;

void encode_ci(std::ostringstream& os, const char* name, const ConfidenceInterval& ci) {
  os << ",\"" << name << "\":[\"" << hexfloat(ci.point) << "\",\"" << hexfloat(ci.lo)
     << "\",\"" << hexfloat(ci.hi) << "\",\"" << hexfloat(ci.confidence) << "\"]";
}

ConfidenceInterval decode_ci(const json::Value& report, const char* name) {
  const json::Value& v = report.at(name);
  if (!v.is(json::Kind::Array) || v.items.size() != 4)
    throw IoError("cache entry: interval '" + std::string(name) + "' needs 4 items");
  return {v.items[0].as_double(), v.items[1].as_double(), v.items[2].as_double(),
          v.items[3].as_double()};
}

void encode_doubles(std::ostringstream& os, const char* name,
                    const std::vector<double>& values) {
  os << ",\"" << name << "\":[";
  for (std::size_t i = 0; i < values.size(); ++i)
    os << (i == 0 ? "\"" : ",\"") << hexfloat(values[i]) << '"';
  os << ']';
}

std::vector<double> decode_doubles(const json::Value& report, const char* name) {
  const json::Value& v = report.at(name);
  if (!v.is(json::Kind::Array))
    throw IoError("cache entry: '" + std::string(name) + "' must be an array");
  std::vector<double> out;
  out.reserve(v.items.size());
  for (const json::Value& item : v.items) out.push_back(item.as_double());
  return out;
}

/// Per-process random token for temp-file names: two crashed or concurrent
/// processes writing the same entry never collide on a temp path.
const std::string& process_tag() {
  static const std::string tag = [] {
    std::random_device rd;
    std::uint64_t token = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(token));
    return std::string(buf);
  }();
  return tag;
}

/// Deterministic single-byte mutation for the cache.read/cache.write corrupt
/// fault modes: flips one bit in the middle of the payload, which either
/// breaks the JSON or changes a value the content hash then rejects.
void corrupt_payload(std::string& payload) {
  if (payload.empty()) return;
  payload[payload.size() / 2] ^= 0x01;
}

/// Writes `payload` to `tmp_path` and publishes it at `final_path` by
/// rename, so concurrent readers never observe a partial entry. Returns
/// false when a step fails, leaving no temp file behind.
bool publish(std::string payload, const std::string& tmp_path,
             const std::string& final_path) {
  try {
    // "cache.write" in corrupt mode simulates silent media corruption: the
    // mangled payload is published and must be caught by the content hash on
    // the next read. Error mode simulates a failed write syscall.
    if (fault::fault_point("cache.write")) corrupt_payload(payload);
  } catch (const fault::InjectedFault&) {
    return false;  // nothing was written yet
  }
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (!out) return false;
    out << payload;
    if (!out.flush()) {
      std::remove(tmp_path.c_str());
      return false;
    }
  }
  try {
    (void)fault::fault_point("cache.rename");
  } catch (const fault::InjectedFault&) {
    std::remove(tmp_path.c_str());  // failed publish must not leak the temp
    return false;
  }
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return false;
  }
  return true;
}

}  // namespace

Fingerprint report_content_hash(const smc::KpiReport& r) {
  StreamHasher h;
  h.tag("fmtree.result/v2");
  h.f64(r.horizon).u64(r.trajectories);
  const auto ci = [&h](const ConfidenceInterval& c) {
    h.f64(c.point).f64(c.lo).f64(c.hi).f64(c.confidence);
  };
  ci(r.reliability);
  ci(r.expected_failures);
  ci(r.failures_per_year);
  ci(r.availability);
  ci(r.total_cost);
  ci(r.cost_per_year);
  ci(r.npv_cost);
  h.f64(r.mean_cost.inspection)
      .f64(r.mean_cost.repair)
      .f64(r.mean_cost.replacement)
      .f64(r.mean_cost.corrective)
      .f64(r.mean_cost.downtime);
  h.f64(r.mean_inspections).f64(r.mean_repairs).f64(r.mean_replacements);
  h.u64(r.failures_per_leaf.size());
  for (const double v : r.failures_per_leaf) h.f64(v);
  h.u64(r.repairs_per_leaf.size());
  for (const double v : r.repairs_per_leaf) h.f64(v);
  return h.digest();
}

std::string encode_report(const CacheKey& key, const smc::KpiReport& r) {
  std::ostringstream os;
  os << "{\"schema\":\"fmtree.result/v2\",\"model\":\"" << key.model.hex()
     << "\",\"request\":\"" << key.request.hex() << "\",\"content_hash\":\""
     << report_content_hash(r).hex() << "\",\"report\":{\"horizon\":\""
     << hexfloat(r.horizon) << "\",\"trajectories\":" << r.trajectories;
  encode_ci(os, "reliability", r.reliability);
  encode_ci(os, "expected_failures", r.expected_failures);
  encode_ci(os, "failures_per_year", r.failures_per_year);
  encode_ci(os, "availability", r.availability);
  encode_ci(os, "total_cost", r.total_cost);
  encode_ci(os, "cost_per_year", r.cost_per_year);
  encode_ci(os, "npv_cost", r.npv_cost);
  encode_doubles(os, "mean_cost",
                 {r.mean_cost.inspection, r.mean_cost.repair, r.mean_cost.replacement,
                  r.mean_cost.corrective, r.mean_cost.downtime});
  os << ",\"mean_inspections\":\"" << hexfloat(r.mean_inspections)
     << "\",\"mean_repairs\":\"" << hexfloat(r.mean_repairs)
     << "\",\"mean_replacements\":\"" << hexfloat(r.mean_replacements) << '"';
  encode_doubles(os, "failures_per_leaf", r.failures_per_leaf);
  encode_doubles(os, "repairs_per_leaf", r.repairs_per_leaf);
  os << "}}";
  return os.str();
}

smc::KpiReport decode_report(const CacheKey& key, const std::string& text) {
  return decode_report(key, json::parse(text));
}

smc::KpiReport decode_report(const CacheKey& key, const json::Value& doc) {
  if (doc.at("schema").as_string() != "fmtree.result/v2")
    throw IoError("cache entry: unknown schema");
  if (doc.at("model").as_string() != key.model.hex() ||
      doc.at("request").as_string() != key.request.hex())
    throw IoError("cache entry: key mismatch");
  const std::string& stored_hash = doc.at("content_hash").as_string();
  const json::Value& rep = doc.at("report");

  smc::KpiReport r;
  r.horizon = rep.at("horizon").as_double();
  r.trajectories = rep.at("trajectories").as_u64();
  r.reliability = decode_ci(rep, "reliability");
  r.expected_failures = decode_ci(rep, "expected_failures");
  r.failures_per_year = decode_ci(rep, "failures_per_year");
  r.availability = decode_ci(rep, "availability");
  r.total_cost = decode_ci(rep, "total_cost");
  r.cost_per_year = decode_ci(rep, "cost_per_year");
  r.npv_cost = decode_ci(rep, "npv_cost");
  const std::vector<double> cost = decode_doubles(rep, "mean_cost");
  if (cost.size() != 5) throw IoError("cache entry: mean_cost needs 5 components");
  r.mean_cost = {cost[0], cost[1], cost[2], cost[3], cost[4]};
  r.mean_inspections = rep.at("mean_inspections").as_double();
  r.mean_repairs = rep.at("mean_repairs").as_double();
  r.mean_replacements = rep.at("mean_replacements").as_double();
  r.failures_per_leaf = decode_doubles(rep, "failures_per_leaf");
  r.repairs_per_leaf = decode_doubles(rep, "repairs_per_leaf");

  // Integrity gate: the values we decoded must reproduce the checksum the
  // writer computed from its values. Any bit rot or torn write that still
  // parses lands here, whichever spelling a value was read from.
  if (report_content_hash(r).hex() != stored_hash)
    throw IoError("cache entry: content hash mismatch");
  return r;
}

ResultCache::ResultCache(std::string directory) : directory_(std::move(directory)) {
  if (directory_.empty()) throw IoError("result cache needs a directory path");
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  if (ec)
    throw IoError("cannot create cache directory '" + directory_ +
                  "': " + ec.message());
  recovery_scan();
}

std::string ResultCache::entry_path(const CacheKey& key) const {
  return directory_ + "/" + key.id() + ".json";
}

std::string ResultCache::quarantine_directory() const {
  return directory_.empty() ? std::string{} : directory_ + "/quarantine";
}

void ResultCache::recovery_scan() {
  // A crashed writer leaves "<entry>.json.tmp.<tag>" files behind (and the
  // pre-v2 format left "<entry>.json.tmp"); none can ever be read, so remove
  // them. A *live* concurrent writer could lose its temp file to this scan —
  // it then fails its rename and recomputes, which is the contract anyway.
  std::error_code ec;
  std::uint64_t removed = 0;
  // An unreadable directory yields an end iterator: no recovery, no throw.
  for (const auto& entry : std::filesystem::directory_iterator(directory_, ec)) {
    std::error_code file_ec;
    if (!entry.is_regular_file(file_ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.find(".json.tmp") == std::string::npos) continue;
    std::filesystem::remove(entry.path(), file_ec);
    if (!file_ec) ++removed;
  }
  if (removed > 0) {
    stats_.recovered_tmp_files += removed;
    Diagnostic d;
    d.severity = Severity::Warning;
    d.code = "C102";
    d.message = "cache recovery: removed " + std::to_string(removed) +
                " stale temporary file(s) left by a crashed writer in '" +
                directory_ + "'";
    warnings_.push_back(std::move(d));
  }
}

std::optional<Diagnostic> ResultCache::quarantine_entry(const std::string& path,
                                                        const std::string& why) {
  // Runs unlocked. Move the entry aside so the next read is a clean miss and
  // the corrupt bytes stay available for post-mortem inspection, under a
  // name no other move uses. Concurrent readers of one corrupt entry race on
  // the rename: the winner reports it, a loser finds it gone and counts a
  // plain miss. A reader held up between its read and this rename long
  // enough for the job to be recomputed and put again moves the fresh entry
  // aside and reports a second C101 for the key; that costs one more
  // recomputation, never a wrong result, and the winner's copy stays intact.
  std::uint64_t sequence = 0;
  {
    std::lock_guard lock(mutex_);
    sequence = ++name_sequence_;
  }
  const std::filesystem::path source(path);
  const std::filesystem::path target =
      std::filesystem::path(quarantine_directory()) /
      (source.filename().string() + "." + process_tag() + "-" + std::to_string(sequence));
  std::error_code ec;
  std::filesystem::create_directories(target.parent_path(), ec);
  if (!ec) std::filesystem::rename(source, target, ec);
  if (ec == std::errc::no_such_file_or_directory) return std::nullopt;
  {
    std::lock_guard lock(mutex_);
    ++stats_.disk_failures;
    ++stats_.corrupt_entries;
    if (!ec) ++stats_.quarantined;
  }
  std::string disposition;
  if (!ec) {
    disposition = "quarantined to '" + target.string() + "'";
  } else {
    disposition = "could not quarantine: " + ec.message();
  }
  Diagnostic d;
  d.severity = Severity::Warning;
  d.code = "C101";
  d.message = "corrupt result-cache entry '" + source.filename().string() +
              "' (" + why + "); " + disposition;
  d.hint = "the result will be recomputed; inspect the quarantine directory "
           "if corruption persists";
  return d;
}

std::optional<smc::KpiReport> ResultCache::get(const CacheKey& key,
                                               std::optional<Diagnostic>* quarantined) {
  const std::string id = key.id();
  {
    std::lock_guard lock(mutex_);
    if (const auto it = memory_.find(id); it != memory_.end()) {
      ++stats_.hits;
      ++stats_.memory_hits;
      return it->second;
    }
  }
  if (!directory_.empty()) {
    const std::string path = entry_path(key);
    std::ifstream in(path);
    if (in) {
      std::ostringstream text;
      text << in.rdbuf();
      std::string payload = text.str();
      std::string why;
      try {
        if (fault::fault_point("cache.read")) corrupt_payload(payload);
        smc::KpiReport report = decode_report(key, payload);
        std::lock_guard lock(mutex_);
        memory_.emplace(id, report);
        ++stats_.hits;
        ++stats_.disk_hits;
        return report;
      } catch (const fault::InjectedFault& e) {
        why = e.what();  // injected read error: same path as a corrupt entry
      } catch (const IoError& e) {
        why = e.what();
      }
      std::optional<Diagnostic> warning = quarantine_entry(path, why);
      if (warning && quarantined != nullptr) *quarantined = std::move(warning);
    }
  }
  std::lock_guard lock(mutex_);
  ++stats_.misses;
  return std::nullopt;
}

void ResultCache::put(const CacheKey& key, const smc::KpiReport& report) {
  if (report.truncated) return;  // a stop prefix is not the key's canonical result
  std::uint64_t sequence = 0;
  {
    std::lock_guard lock(mutex_);
    memory_.insert_or_assign(key.id(), report);
    if (directory_.empty()) return;
    sequence = ++name_sequence_;
  }
  // The temp name is process- and sequence-unique: two writers of the same
  // key never clobber each other's in-flight file.
  const std::string final_path = entry_path(key);
  const std::string tmp_path =
      final_path + ".tmp." + process_tag() + "-" + std::to_string(sequence);
  const bool written = publish(encode_report(key, report), tmp_path, final_path);
  std::lock_guard lock(mutex_);
  ++(written ? stats_.disk_writes : stats_.disk_failures);
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::vector<Diagnostic> ResultCache::take_warnings() {
  std::lock_guard lock(mutex_);
  return std::exchange(warnings_, {});
}

}  // namespace fmtree::batch
