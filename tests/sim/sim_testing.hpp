// Shared helpers for the tests of the trajectory kernel (BatchExecutor), its
// reference oracle (Reference) and the trajectory pool: bitwise
// TrajectoryResult comparison, kernel and pool runs collected into vectors,
// the reference-vs-kernel agreement check, and a seeded random FMT
// generator.
//
// std::mt19937 is fully specified by the standard, so the "random" models
// are the same on every platform.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "../batch/report_bits.hpp"
#include "fmt/fmtree.hpp"
#include "sim/batch_executor.hpp"
#include "sim/reference.hpp"
#include "sim/trace.hpp"
#include "smc/pool.hpp"

namespace fmtree::sim_test {

/// The events of one kind in `trace`, in time order.
inline std::vector<sim::TraceEvent> of_kind(const sim::Trace& trace,
                                            sim::TraceKind kind) {
  std::vector<sim::TraceEvent> out;
  for (const sim::TraceEvent& e : trace.events())
    if (e.kind == kind) out.push_back(e);
  return out;
}

/// Every TrajectoryResult field, doubles compared by bit pattern.
inline ::testing::AssertionResult bit_identical(const sim::TrajectoryResult& a,
                                                const sim::TrajectoryResult& b) {
  using batch_test::same_bits;
  const auto costs = [](const fmt::CostBreakdown& x, const fmt::CostBreakdown& y) {
    return same_bits(x.inspection, y.inspection) && same_bits(x.repair, y.repair) &&
           same_bits(x.replacement, y.replacement) &&
           same_bits(x.corrective, y.corrective) && same_bits(x.downtime, y.downtime);
  };
  const auto logs = [](const std::vector<sim::FailureRecord>& x,
                       const std::vector<sim::FailureRecord>& y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                      [](const sim::FailureRecord& p, const sim::FailureRecord& q) {
                        return same_bits(p.time, q.time) && p.cause_leaf == q.cause_leaf;
                      });
  };
  const std::pair<const char*, bool> fields[] = {
      {"horizon", same_bits(a.horizon, b.horizon)},
      {"first_failure_time", same_bits(a.first_failure_time, b.first_failure_time)},
      {"failures", a.failures == b.failures},
      {"downtime", same_bits(a.downtime, b.downtime)},
      {"cost", costs(a.cost, b.cost)},
      {"discounted_cost", costs(a.discounted_cost, b.discounted_cost)},
      {"inspections", a.inspections == b.inspections},
      {"repairs", a.repairs == b.repairs},
      {"replacements", a.replacements == b.replacements},
      {"events", a.events == b.events},
      {"repairs_per_leaf", a.repairs_per_leaf == b.repairs_per_leaf},
      {"failures_per_leaf", a.failures_per_leaf == b.failures_per_leaf},
      {"failure_log", logs(a.failure_log, b.failure_log)},
  };
  for (const auto& [field, same] : fields)
    if (!same) return ::testing::AssertionFailure() << "field '" << field << "' differs";
  return ::testing::AssertionSuccess();
}

/// The kernel's trajectories [first, first + count) under `seed`, run on one
/// workspace.
inline std::vector<sim::TrajectoryResult> kernel_run(
    const fmt::FaultMaintenanceTree& model, std::uint64_t seed, std::uint64_t first,
    std::uint64_t count, const sim::SimOptions& opts) {
  const sim::BatchExecutor executor(model);
  sim::BatchWorkspace ws;
  std::vector<sim::TrajectoryResult> out(count);
  for (std::uint64_t i = 0; i < count; ++i)
    executor.run(seed, first + i, opts, ws, out[i]);
  return out;
}

/// A fold keeping every trajectory in the order the pool folds it.
inline smc::Fold collect_into(std::vector<sim::TrajectoryResult>& out) {
  return [&out](sim::TrajectoryResult& r) {
    out.push_back(std::move(r));
    return true;
  };
}

/// One pool job over trajectories [0, count) under `seed` on `threads`
/// workers: what its fold received, and the pool's outcome.
struct PoolRun {
  std::vector<sim::TrajectoryResult> results;
  smc::PoolOutcome outcome;
};

inline PoolRun pool_run(const fmt::FaultMaintenanceTree& model, std::uint64_t seed,
                        std::uint64_t count, const sim::SimOptions& opts,
                        unsigned threads, const smc::RunControl* control = nullptr) {
  const sim::BatchExecutor executor(model);
  PoolRun run;
  smc::PoolJob job{.executor = &executor, .options = &opts, .seed = seed,
                   .trajectories = count, .fold = collect_into(run.results)};
  smc::PoolOptions options;
  options.threads = threads;
  options.control = control;
  run.outcome = smc::run_pool({&job, 1}, options);
  EXPECT_FALSE(job.error);
  EXPECT_EQ(job.folded, run.results.size());
  return run;
}

/// Trajectory `index` under `seed` from the reference (tracing into `trace`
/// when given), after checking that the kernel reproduces it bit for bit.
inline sim::TrajectoryResult checked_run(const fmt::FaultMaintenanceTree& model,
                                         std::uint64_t seed, std::uint64_t index,
                                         const sim::SimOptions& opts,
                                         sim::Trace* trace = nullptr) {
  sim::TrajectoryResult r = sim::Reference(model).run(seed, index, opts, trace);
  EXPECT_TRUE(bit_identical(r, kernel_run(model, seed, index, 1, opts).front()));
  return r;
}

/// The oracle check: trajectories [0, count) of the reference and of the
/// kernel agree bit for bit, field by field.
inline void expect_reference_agrees(const fmt::FaultMaintenanceTree& model,
                                    const sim::SimOptions& opts, std::uint64_t seed,
                                    std::uint64_t count) {
  const sim::Reference reference(model);
  const std::vector<sim::TrajectoryResult> kernel =
      kernel_run(model, seed, 0, count, opts);
  std::uint64_t events = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    ASSERT_TRUE(bit_identical(reference.run(seed, i, opts), kernel[i]))
        << "seed " << seed << ", trajectory " << i;
    events += kernel[i].events;
  }
  EXPECT_GT(events, count);  // the models are exercised, not idle
}

inline int pick(std::mt19937& rng, int lo, int hi) {  // inclusive bounds
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

/// Random FMT exercising every kernel feature the gate evaluation interacts
/// with: multi-phase leaves (some with timed repairs), a spare pool with
/// dormancy, an FDEP cascade, event- and phase-triggered RDEPs, imperfect
/// inspections, replacements and corrective renewal.
inline fmt::FaultMaintenanceTree random_fmt(std::mt19937& rng) {
  using fmt::DegradationModel;
  fmt::FaultMaintenanceTree m;
  const int num_leaves = pick(rng, 4, 8);
  std::vector<ft::NodeId> leaves;
  for (int i = 0; i < num_leaves; ++i) {
    const int phases = pick(rng, 1, 4);
    const double mean = 0.5 + 0.25 * pick(rng, 0, 10);
    fmt::RepairSpec repair{"fix", 10.0, pick(rng, 0, 2) == 0 ? 0.25 : 0.0};
    leaves.push_back(
        m.add_ebe("e" + std::to_string(i),
                  DegradationModel::erlang(phases, mean, pick(rng, 1, phases)), repair));
  }

  // Two dedicated leaves form a warm spare pool.
  const ft::NodeId sp0 = m.add_ebe("sp0", DegradationModel::erlang(2, 2.0, 1));
  const ft::NodeId sp1 = m.add_ebe("sp1", DegradationModel::erlang(2, 2.0, 1));
  const ft::NodeId spare = m.add_spare("pool", {sp0, sp1}, 0.25 * pick(rng, 0, 4));

  // Random two-level structure over the plain leaves, with the spare mixed in.
  std::vector<ft::NodeId> pool = leaves;
  std::shuffle(pool.begin(), pool.end(), rng);
  const std::size_t half = pool.size() / 2;
  const ft::NodeId g1 =
      m.add_or("g1", std::vector<ft::NodeId>(pool.begin(), pool.begin() + half));
  const ft::NodeId g2 = m.add_voting(
      "g2", pick(rng, 1, 2), std::vector<ft::NodeId>(pool.begin() + half, pool.end()));
  const ft::NodeId top = pick(rng, 0, 1) ? m.add_and("top", {g1, g2, spare})
                                         : m.add_or("top", {g1, g2, spare});
  m.set_top(top);

  // FDEP: the first gate knocks out a couple of leaves from the second half.
  if (pick(rng, 0, 1)) m.add_fdep("cascade", g1, {pool[half], pool.back()});
  // Event-triggered RDEP on the spare pool, phase-triggered RDEP off leaf 0.
  m.add_rdep("stress", g2, {sp0, sp1}, 1.0 + 0.5 * pick(rng, 0, 4));
  m.add_rdep("wear", leaves[0], {leaves[1]}, 2.0, 1);

  m.add_inspection(fmt::InspectionModule{
      "insp", 0.4 + 0.2 * pick(rng, 0, 4), -1.0, 5.0,
      std::vector<ft::NodeId>(leaves.begin(), leaves.end()),
      pick(rng, 0, 1) ? 1.0 : 0.8});
  m.add_replacement(fmt::ReplacementModule{"renew", 2.0 + pick(rng, 0, 3), -1.0, 50.0,
                                           {leaves[0], sp0, sp1}});
  m.set_corrective(fmt::CorrectivePolicy{true, 0.1 * pick(rng, 0, 3), 100.0, 25.0});
  return m;
}

}  // namespace fmtree::sim_test
