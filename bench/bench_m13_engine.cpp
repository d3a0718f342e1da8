// M13 — Microbenchmarks of the simulation engine (google-benchmark):
// trajectory throughput of the kernel on the EI-joint model, of smc::analyze
// on the trajectory pool, and of the kernel's phase-sojourn sampler.
#include <benchmark/benchmark.h>

#include <span>

#include "eijoint/model.hpp"
#include "eijoint/scenarios.hpp"
#include "sim/batch_executor.hpp"
#include "sim/sampler.hpp"
#include "smc/kpi.hpp"

using namespace fmtree;

namespace {

const fmt::FaultMaintenanceTree& ei_joint_current() {
  static const fmt::FaultMaintenanceTree model = eijoint::build_ei_joint(
      eijoint::EiJointParameters::defaults(), eijoint::current_policy());
  return model;
}

void BM_TrajectoryEiJoint(benchmark::State& state) {
  const sim::BatchExecutor kernel(ei_joint_current());
  sim::BatchWorkspace ws;
  sim::SimOptions opts;
  opts.horizon = static_cast<double>(state.range(0));
  std::uint64_t first = 0;
  for (auto _ : state) {
    kernel.run(1, first++, 1, opts, ws,
               [](std::uint64_t, std::span<sim::TrajectoryResult> block) {
                 benchmark::DoNotOptimize(block.data());
                 return true;
               });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["sim-years/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * opts.horizon,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TrajectoryEiJoint)->Arg(10)->Arg(50)->Arg(200);

void BM_AnalyzeOnPool(benchmark::State& state) {
  smc::AnalysisSettings settings;
  settings.horizon = 20.0;
  settings.trajectories = 512;
  settings.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(smc::analyze(ei_joint_current(), settings));
    ++settings.seed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 512);
}
BENCHMARK(BM_AnalyzeOnPool)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_SojournSampling(benchmark::State& state) {
  // The kernel's sampler on an Erlang(6) sojourn: six ziggurat Exp(1) draws.
  fmt::FaultMaintenanceTree m;
  m.set_top(m.add_basic_event("leaf", Distribution::erlang(6, 0.6)));
  const sim::SojournSampler sampler(m);
  CounterStream rng(9, 0);
  for (auto _ : state) benchmark::DoNotOptimize(sampler.sample(0, 1, rng));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SojournSampling);

}  // namespace

BENCHMARK_MAIN();
