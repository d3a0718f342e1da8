// Content-addressed cache of analysis results.
//
// Two tiers:
//  * memory — always on; a mutex-guarded map from CacheKey to KpiReport;
//  * disk   — optional; one JSON file per entry ("fmtree.result/v2") in a
//    caller-chosen directory, so repeated CLI runs and separate processes
//    share results.
//
// There are no invalidation rules: keys are content hashes, so any change
// to the model or the result-relevant settings produces a *different* key
// and old entries simply stop being referenced. The schema version inside
// kpi_cache_key guards the serialization format the same way.
//
// Bitwise identity: a cache hit returns the exact doubles of the original
// computation. On disk every double is stored as a C99 hexfloat string
// ("0x1.8p+1"), which round-trips bit-for-bit through strtod — decimal JSON
// numbers would not. Truncated reports (RunControl stops) are refused by
// put(): they are exact only over the prefix a stop happened to cut, which
// is not a deterministic function of the key.
//
// Crash safety (the disk tier survives torn writes, bit rot and injected
// faults — see DESIGN.md, "Failure semantics"):
//  * every entry carries a content hash over the decoded *values*
//    (report_content_hash); a read whose recomputed hash disagrees with the
//    stored one is corrupt, no matter how plausibly it parsed;
//  * corrupt or unreadable entries are treated as misses, counted in
//    Stats::corrupt_entries, moved into a `quarantine/` subdirectory for
//    post-mortem inspection, and reported as stable-code C101 warning
//    diagnostics (take_warnings());
//  * writes go to a process-unique `<entry>.json.tmp.<tag>` file and are
//    published by rename, so concurrent readers never observe a partial
//    entry; failed writes remove their temp file;
//  * opening the disk tier runs a recovery scan that deletes stale
//    `*.json.tmp.*` files left behind by crashed writers
//    (Stats::recovered_tmp_files).
//
// Fault sites compiled into the I/O path (util/fault_injection.hpp):
// "cache.read" (error/corrupt the just-read payload), "cache.write" (fail or
// corrupt a write), "cache.rename" (fail the publish step). All are inert
// unless armed; a cache under injection degrades to recomputation, never
// takes the analysis down.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "batch/fingerprint.hpp"
#include "smc/kpi.hpp"
#include "util/diagnostics.hpp"
#include "util/json.hpp"

namespace fmtree::batch {

class ResultCache {
public:
  /// Memory-only cache.
  ResultCache() = default;

  /// Memory + disk tiers. The directory is created if missing; an
  /// uncreatable directory throws IoError immediately (failing at first use
  /// would silently disable the tier the caller asked for). Runs the
  /// crash-recovery scan (stale temp-file cleanup) before returning.
  explicit ResultCache(std::string directory);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Looks the key up (memory first, then disk; a disk hit is promoted into
  /// memory). Returns the stored report or nullopt. Corrupt disk entries
  /// are quarantined and count as misses.
  std::optional<smc::KpiReport> get(const CacheKey& key);

  /// Stores a report under `key` in every tier. Truncated reports are
  /// ignored (see file comment). Disk write failures are recorded in
  /// stats() and otherwise ignored.
  void put(const CacheKey& key, const smc::KpiReport& report);

  /// Cumulative counters since construction. hits == memory_hits + disk_hits.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t memory_hits = 0;
    std::uint64_t disk_hits = 0;
    std::uint64_t disk_writes = 0;
    std::uint64_t disk_failures = 0;  ///< unreadable/corrupt reads + failed writes
    std::uint64_t corrupt_entries = 0;      ///< reads rejected by decode/checksum
    std::uint64_t quarantined = 0;          ///< corrupt entries moved aside
    std::uint64_t recovered_tmp_files = 0;  ///< stale temp files removed at open
  };
  Stats stats() const;

  /// Drains the pending warning diagnostics (C101 corrupt-entry quarantine,
  /// C102 recovery-scan cleanup). Callers surface them on their own channel;
  /// un-drained warnings are dropped with the cache.
  std::vector<Diagnostic> take_warnings();

  /// Entries currently held in the memory tier.
  std::size_t size() const;

  bool has_disk_tier() const noexcept { return !directory_.empty(); }
  const std::string& directory() const noexcept { return directory_; }
  /// Where corrupt entries are moved ("<directory>/quarantine").
  std::string quarantine_directory() const;

private:
  std::string entry_path(const CacheKey& key) const;
  void recovery_scan();                                         // ctor only
  void quarantine_entry(const std::string& path, const std::string& why);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, smc::KpiReport> memory_;
  std::string directory_;
  Stats stats_;
  std::vector<Diagnostic> warnings_;
  std::uint64_t tmp_sequence_ = 0;
};

/// Serialization used by the disk tier ("fmtree.result/v2"), exposed so
/// tests can assert the hexfloat round-trip is bitwise exact.
std::string encode_report(const CacheKey& key, const smc::KpiReport& report);
/// Throws IoError on malformed input, a key mismatch, or a content-hash
/// mismatch (the entry parsed but its values disagree with the checksum the
/// writer stored).
smc::KpiReport decode_report(const CacheKey& key, const std::string& text);
/// The same, for a document already parsed (e.g. embedded in a served event).
smc::KpiReport decode_report(const CacheKey& key, const json::Value& doc);

/// The integrity checksum stored in every disk entry: a fingerprint of the
/// report's *values* (IEEE-754 bit patterns, counts, vector lengths), not of
/// its serialized text — so it is stable across libc hexfloat formatting
/// differences and catches any value-changing corruption.
Fingerprint report_content_hash(const smc::KpiReport& report);

}  // namespace fmtree::batch
