// F7 — Expected yearly cost vs inspection frequency, with breakdown.
// Expected shape: U-shaped curve; failure costs dominate on the left,
// inspection+repair costs on the right; the minimum sits at/near the current
// 4x-per-year policy (abstract claim C4).
#include <chrono>
#include <cstring>

#include "batch/result_cache.hpp"
#include "batch/sweep.hpp"
#include "bench/common.hpp"
#include "eijoint/scenarios.hpp"
#include "maintenance/policy.hpp"

using namespace fmtree;

namespace {

bool same_bits(const ConfidenceInterval& a, const ConfidenceInterval& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Bitwise equality of the KPI fields the curve reports — the cache-identity
/// invariant (see batch/result_cache.hpp) promises exactly this.
bool same_bits(const smc::KpiReport& a, const smc::KpiReport& b) {
  return same_bits(a.cost_per_year, b.cost_per_year) &&
         same_bits(a.total_cost, b.total_cost) &&
         same_bits(a.failures_per_year, b.failures_per_year) &&
         std::memcmp(&a.mean_cost, &b.mean_cost, sizeof a.mean_cost) == 0 &&
         a.trajectories == b.trajectories;
}

}  // namespace

int main() {
  bench::header("F7", "Yearly cost vs inspection frequency (breakdown)",
                "claim C4: current policy close to cost-optimal; extra "
                "inspections cost more than the failures they avoid");
  const std::vector<double> frequencies = eijoint::cost_curve_frequencies();
  const smc::AnalysisSettings settings = bench::default_settings(20.0, 8000);
  const batch::SweepPlan plan =
      eijoint::cost_curve_plan(eijoint::EiJointParameters::defaults(), settings);

  // The curve runs through the batch sweep engine with a result cache: the
  // first pass simulates, the second is served from the cache bit-for-bit.
  using clock = std::chrono::steady_clock;
  batch::ResultCache cache;
  const auto cold_start = clock::now();
  const batch::SweepOutcome sweep = batch::run_sweep(plan, &cache);
  const double cold_s = std::chrono::duration<double>(clock::now() - cold_start).count();
  const auto warm_start = clock::now();
  const batch::SweepOutcome warm = batch::run_sweep(plan, &cache);
  const double warm_s = std::chrono::duration<double>(clock::now() - warm_start).count();

  const std::size_t best = maintenance::cheapest(sweep.results);
  TextTable t({"inspections/yr", "inspection", "repairs", "corrective", "downtime",
               "total/yr (95% CI)"});
  t.set_alignment({Align::Right, Align::Right, Align::Right, Align::Right,
                   Align::Right, Align::Right});
  double current_cost = 0;
  for (std::size_t i = 0; i < sweep.results.size(); ++i) {
    const smc::KpiReport& k = sweep.results[i].report;
    const fmt::CostBreakdown per_year = k.mean_cost / settings.horizon;
    std::string total = bench::ci_cell(k.cost_per_year, 0);
    if (i == best) total += "  <-- optimum";
    t.add_row({cell(frequencies[i], 1), cell(per_year.inspection, 0),
               cell(per_year.repair, 0), cell(per_year.corrective, 0),
               cell(per_year.downtime, 0), std::move(total)});
    if (frequencies[i] == 4.0) current_cost = k.cost_per_year.point;
  }
  t.print(std::cout);

  const double best_freq = frequencies.at(best);
  const double best_cost = sweep.results[best].report.cost_per_year.point;
  const bool near_optimal = current_cost <= 1.15 * best_cost;
  std::cout << "\nOptimum: " << cell(best_freq, 1) << " inspections/yr at "
            << cell(best_cost, 0) << "/yr; current policy (4x) costs "
            << cell(current_cost, 0) << "/yr ("
            << cell(100.0 * (current_cost / best_cost - 1.0), 1)
            << "% above optimum).\n"
            << "Shape check (current within 15% of optimum): "
            << (near_optimal ? "PASS" : "FAIL") << "\n";

  bool cached_identical = warm.results.size() == sweep.results.size();
  for (std::size_t i = 0; cached_identical && i < sweep.results.size(); ++i)
    cached_identical = same_bits(sweep.results[i].report, warm.results[i].report);
  const auto st = cache.stats();
  std::cout << "\nCache replay: cold " << cell(cold_s, 2) << "s, warm "
            << cell(warm_s, 3) << "s (" << st.hits << " hits, " << st.misses
            << " misses); bitwise identical: " << (cached_identical ? "PASS" : "FAIL")
            << "\n";
  return near_optimal && cached_identical ? 0 : 1;
}
