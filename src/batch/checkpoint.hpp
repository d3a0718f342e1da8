// Durable sweep checkpoints: the resume layer over the result cache.
//
// The content-addressed ResultCache is the actual source of truth for
// resume — any job whose report made it to disk replays bit-identically as
// a cache hit, whether or not a checkpoint exists. The checkpoint manifest
// ("fmtree.sweep-checkpoint/v1", one JSON file per cache directory) adds
// the part the cache cannot express:
//
//  * plan identity — a fingerprint over the ordered job keys, so a resume
//    against a *different* plan (edited model, changed grid) is detected
//    and reported (stable code C103) instead of silently half-matching;
//  * per-job status — done / failed / pending, so `fmtree sweep --resume`
//    can say how much of the plan is already banked before it starts.
//
// Writes are atomic (temp file + rename, same discipline as the cache) and
// best-effort: a failed checkpoint write degrades resume UX, never the
// sweep itself.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace fmtree::batch {

struct SweepPlan;
struct JobResult;

/// One job's durable status in the manifest.
struct CheckpointEntry {
  std::string label;
  std::string key;     ///< CacheKey::id() — "<model-hex>-<request-hex>"
  std::string status;  ///< "done", "failed" or "pending"
};

struct SweepCheckpoint {
  std::string plan_id;  ///< hex of checkpoint_plan_id over the source plan
  std::vector<CheckpointEntry> jobs;

  std::uint64_t jobs_done() const;
  /// Jobs that ran and failed in the previous run. Disjoint from done and
  /// pending; a failed job is NOT banked (it will re-run on resume), so
  /// progress accounting must never fold it into the done count.
  std::uint64_t jobs_failed() const;
};

/// Identity of a plan for resume purposes: a fingerprint over the ordered
/// job labels and cache keys (and nothing else — execution knobs like
/// threads or chunk size do not change what a resume may reuse).
std::string checkpoint_plan_id(const SweepPlan& plan);

/// The manifest's location inside a cache directory.
std::string checkpoint_path(const std::string& cache_dir);

std::string encode_checkpoint(const SweepCheckpoint& cp);
/// Throws IoError on malformed input or an unknown schema.
SweepCheckpoint decode_checkpoint(const std::string& text);

/// Builds the manifest for `plan` as witnessed by `results` (in plan order;
/// jobs without a result are pending) and publishes it atomically at
/// `path`. Best-effort: returns false (and changes nothing durable) on I/O
/// failure.
bool write_checkpoint(const std::string& path, const SweepPlan& plan,
                      std::span<const JobResult> results);

/// Reads the manifest at `path`. Returns nullopt when the file does not
/// exist; throws IoError when it exists but cannot be parsed.
std::optional<SweepCheckpoint> read_checkpoint(const std::string& path);

}  // namespace fmtree::batch
