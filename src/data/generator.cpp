#include "data/generator.hpp"

#include "sim/sampler.hpp"
#include "smc/pool.hpp"
#include "util/error.hpp"

namespace fmtree::data {

std::uint32_t generate_incidents(const fmt::FaultMaintenanceTree& ground_truth,
                                 std::uint32_t num_assets, double years,
                                 std::uint64_t seed,
                                 const std::function<void(const IncidentRecord&)>& sink,
                                 const smc::RunControl* control) {
  const sim::BatchExecutor kernel(ground_truth);
  sim::SimOptions opts;
  opts.horizon = years;
  opts.record_failure_log = true;
  std::uint32_t asset = 0;
  smc::PoolJob job{.executor = &kernel, .options = &opts, .seed = seed,
                   .trajectories = num_assets};
  // Asset i is trajectory i, and the pool folds in index order.
  job.fold = [&](sim::TrajectoryResult& r) {
    for (const sim::FailureRecord& f : r.failure_log)
      sink(IncidentRecord{asset, f.time, ground_truth.ebes()[f.cause_leaf].name});
    ++asset;
    return true;
  };
  smc::PoolOptions options;
  options.control = control;
  smc::run_pool({&job, 1}, options);
  if (job.error) std::rethrow_exception(job.error);
  return asset;
}

IncidentDatabase generate_incidents(const fmt::FaultMaintenanceTree& ground_truth,
                                    std::uint32_t num_assets, double years,
                                    std::uint64_t seed) {
  IncidentDatabase db(num_assets, years);
  generate_incidents(ground_truth, num_assets, years, seed,
                     [&db](const IncidentRecord& r) { db.add(r); });
  return db;
}

std::vector<DegradationSample> elicit_degradation(
    const fmt::FaultMaintenanceTree& ground_truth, fmt::NodeId leaf, std::size_t n,
    std::uint64_t seed) {
  if (n == 0) throw DomainError("elicitation needs n >= 1 samples");
  const fmt::DegradationModel& deg = ground_truth.ebe(leaf).degradation;
  const auto index = static_cast<std::uint32_t>(ground_truth.ebe_index(leaf));
  const sim::SojournSampler sampler(ground_truth);
  // Leaf i draws from stream (seed, 2^63 | i), so datasets of different
  // modes are independent under one seed. generate_incidents runs trajectory
  // j on stream (seed, j) of the same CounterStream family, and with one
  // family the two could collide where two families could not. No trajectory
  // index reaches 2^63, so an elicitation never reuses an incident
  // database's draws under the same seed.
  CounterStream rng(seed, (std::uint64_t{1} << 63) | index);

  std::vector<DegradationSample> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    DegradationSample s;
    double total = 0;
    for (int phase = 1; phase <= deg.phases(); ++phase) {
      if (phase == deg.threshold_phase()) s.time_to_threshold = total;
      total += sampler.sample(index, phase, rng);
    }
    // Threshold at phases+1 (undetectable) elicits threshold == failure.
    if (deg.threshold_phase() > deg.phases()) s.time_to_threshold = total;
    s.time_to_failure = total;
    out.push_back(s);
  }
  return out;
}

}  // namespace fmtree::data
