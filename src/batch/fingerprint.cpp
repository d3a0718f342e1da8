#include "batch/fingerprint.hpp"

#include "fmt/canonical.hpp"
#include "lang/policy.hpp"
#include "smc/kpi.hpp"

namespace fmtree::batch {

Fingerprint settings_fingerprint(const smc::AnalysisSettings& s) {
  KeyedHasher h("fmtree.settings/v1");
  h.f64("horizon", s.horizon);
  h.u64("seed", s.seed);
  h.u64("trajectories", s.trajectories);
  h.f64("confidence", s.confidence);
  h.f64("discount_rate", s.discount_rate);
  const bool adaptive = s.target_relative_error > 0;
  h.f64("target_relative_error", adaptive ? s.target_relative_error : 0.0);
  if (adaptive) h.u64("batch", s.batch);
  // Kernel identity (see the header): the same two fields earlier releases
  // hashed for this kernel, so their cache entries stay valid.
  h.str("engine", "batch");
  h.str("rng", "philox4x32-10");
  // Scripted maintenance policy: hash the compiled form's fingerprint (not
  // the script text), so reformatting preserves the key while any semantic
  // change invalidates it. Hashed only when a policy is present — built-in
  // runs keep their pre-DSL fingerprints, and a scripted run can never
  // collide with a built-in one.
  if (s.policy) h.fingerprint("policy", s.policy->fingerprint);
  return h.digest();
}

CacheKey kpi_cache_key(const fmt::FaultMaintenanceTree& model,
                       const smc::AnalysisSettings& settings) {
  KeyedHasher request("fmtree.request/v1");
  request.str("kind", "kpis");
  request.u64("result_schema", 1);  // bump with ResultCache's serialization
  request.fingerprint("settings", settings_fingerprint(settings));
  return CacheKey{fmt::canonical_hash(model), request.digest()};
}

}  // namespace fmtree::batch
