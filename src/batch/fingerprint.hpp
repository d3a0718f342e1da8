// Cache keys for analysis results: canonical model hash x stable settings
// fingerprint.
//
// A key identifies *what was asked*: the exact model content
// (fmt::canonical_hash) and every analysis setting that can influence a
// result bit (horizon, seed, trajectory budget, confidence, discount rate,
// adaptive-stopping parameters), plus the kind and schema version of the
// result. Execution-only knobs are deliberately excluded:
//
//   * threads — the kernel is bit-reproducible at any thread count, so a
//     result computed with 8 threads is *the* result for 1 thread too;
//   * telemetry — observational by contract, changes no output bit;
//   * control  — truncated runs are never cached (see ResultCache::put), and
//     an untruncated run is identical with or without a RunControl watching.
//
// Every fingerprint also hashes the kernel's identity — `engine=batch` and
// the RNG family `rng=philox4x32-10`. Keys minted before the scalar engine
// was retired carried these two fields exactly on runs of this kernel, so
// those cache entries keep hitting while entries the retired scalar engine
// wrote (which lacked them) simply miss.
//
// Settings fields are fed through the order-insensitive KeyedHasher, so the
// fingerprint is a function of the field *values*, not of the order any
// call site happens to enumerate them in.
#pragma once

#include "util/fingerprint.hpp"

namespace fmtree::fmt {
class FaultMaintenanceTree;
}
namespace fmtree::smc {
struct AnalysisSettings;
}

namespace fmtree::batch {

/// Identity of one cached result: which model, which request.
struct CacheKey {
  Fingerprint model;    ///< fmt::canonical_hash of the model
  Fingerprint request;  ///< result kind + schema version + settings fingerprint

  /// "<model-hex>-<request-hex>", used as map key and disk file stem.
  std::string id() const { return model.hex() + "-" + request.hex(); }

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

/// Fingerprint of the result-relevant AnalysisSettings fields (see the
/// exclusion list above). `batch` participates only when adaptive stopping
/// is active (target_relative_error > 0): that is the only mode where the
/// batching granularity feeds back into which trajectories exist.
Fingerprint settings_fingerprint(const smc::AnalysisSettings& settings);

/// Key of a full-KPI analysis (smc::analyze / batch sweeps) of `model`
/// under `settings`.
CacheKey kpi_cache_key(const fmt::FaultMaintenanceTree& model,
                       const smc::AnalysisSettings& settings);

}  // namespace fmtree::batch
