// Content-addressed cache of analysis results.
//
// Two tiers:
//  * memory — always on; a map from CacheKey to KpiReport;
//  * disk   — optional; one JSON file per entry ("fmtree.result/v2", one
//    line) in a caller-chosen directory, so repeated CLI runs and separate
//    processes share results.
//
// There are no invalidation rules: keys are content hashes, so any change
// to the model or the result-relevant settings produces a *different* key
// and old entries simply stop being referenced. The schema version inside
// kpi_cache_key guards the serialization format the same way.
//
// Bitwise identity: a cache hit returns the exact doubles of the original
// computation. On disk every double is stored as a C99 hexfloat string
// ("0x1.8p+1"), which round-trips bit for bit; a JSON number or the
// multi-line layout of earlier releases also decodes, and the content hash
// over the decoded bits is the gate. Truncated reports (RunControl stops)
// are refused by put(): they are exact only over the prefix a stop happened
// to cut, which is not a deterministic function of the key.
//
// Concurrency: get() and put() may be called from any number of threads.
// `mutex_` guards only the memory tier, the stats, the pending C102
// warnings and the sequence that makes temp and quarantine names unique.
// Disk I/O and the codec run unlocked: a get's file read, its "cache.read"
// fault point, decode_report and the content-hash check, a put's encode,
// write and rename, and a quarantine's rename. So a memory-tier lookup
// never waits on another thread's disk read or write.
//
// Crash safety (the disk tier survives torn writes, bit rot and injected
// faults — see DESIGN.md, "Failure semantics"):
//  * every entry carries a content hash over the decoded *values*
//    (report_content_hash); a read whose recomputed hash disagrees with the
//    stored one is corrupt, no matter how plausibly it parsed;
//  * corrupt or unreadable entries are treated as misses and moved into a
//    `quarantine/` subdirectory for post-mortem inspection, each under a
//    name of its own (`<entry>.json.<tag>-<n>`), so no move overwrites an
//    earlier one. Each entry is quarantined once: of several readers that
//    find it corrupt at once, only the one whose rename moves it counts it
//    in Stats::corrupt_entries and gets its C101 warning; the others find it
//    gone and count a plain miss. The one exception: a reader held up
//    between its read and its rename while the entry is quarantined,
//    recomputed and put again moves that fresh entry aside, and so counts a
//    second C101 for the key and costs one more recomputation;
//  * the C101 goes to the caller of the get() that quarantined the entry,
//    so it reaches the request that read the entry. take_warnings() carries
//    only the C102 of the recovery scan;
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
// takes the analysis down. They fire on whichever thread calls get() or
// put(): for a sweep's reads, one of the resolver's workers; for its
// writes, the pool worker that holds the sweep's writer role, one at a time.
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
  /// memory). Returns the stored report or nullopt. A corrupt disk entry
  /// counts as a miss and is quarantined; when this call is the one that
  /// moved it, its C101 warning is stored in `*quarantined` (left untouched
  /// otherwise). A caller passing nullptr drops the warning.
  std::optional<smc::KpiReport> get(const CacheKey& key,
                                    std::optional<Diagnostic>* quarantined = nullptr);

  /// Stores a report under `key` in every tier. Truncated reports are
  /// ignored (see file comment). Disk write failures are recorded in
  /// stats() and otherwise ignored. The disk write runs outside `mutex_`.
  void put(const CacheKey& key, const smc::KpiReport& report);

  /// Cumulative counters since construction. hits == memory_hits + disk_hits.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t memory_hits = 0;
    std::uint64_t disk_hits = 0;
    std::uint64_t disk_writes = 0;
    std::uint64_t disk_failures = 0;  ///< unreadable/corrupt reads + failed writes
    std::uint64_t corrupt_entries = 0;      ///< entries rejected on read (one per C101)
    std::uint64_t quarantined = 0;          ///< corrupt entries moved aside
    std::uint64_t recovered_tmp_files = 0;  ///< stale temp files removed at open
  };
  Stats stats() const;

  /// Drains the recovery scan's C102 warning, if any. Callers surface it on
  /// their own channel; an un-drained warning is dropped with the cache.
  /// (C101s go to the get() that quarantined the entry.)
  std::vector<Diagnostic> take_warnings();

  bool has_disk_tier() const noexcept { return !directory_.empty(); }
  const std::string& directory() const noexcept { return directory_; }
  /// Where corrupt entries are moved ("<directory>/quarantine").
  std::string quarantine_directory() const;

private:
  std::string entry_path(const CacheKey& key) const;
  void recovery_scan();                                         // ctor only
  std::optional<Diagnostic> quarantine_entry(const std::string& path,
                                             const std::string& why);

  std::string directory_;     ///< set at construction, read unlocked
  mutable std::mutex mutex_;  ///< guards every member below
  std::unordered_map<std::string, smc::KpiReport> memory_;
  Stats stats_;
  std::vector<Diagnostic> warnings_;  ///< the recovery scan's C102
  std::uint64_t name_sequence_ = 0;  ///< temp and quarantine file names
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
