// Trajectory traces: a readable record of everything that happened during
// one simulated run, used by semantic tests and for debugging models.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fmtree::sim {

enum class TraceKind {
  PhaseTransition,      ///< subject = leaf, detail = new phase
  LeafFailed,           ///< subject = leaf
  TopFailed,            ///< subject = top gate
  TopRestored,          ///< subject = top gate
  InspectionPerformed,  ///< subject = inspection module
  RepairPerformed,      ///< subject = leaf (condition-based repair started)
  RepairCompleted,      ///< subject = leaf (timed repair finished)
  ReplacementPerformed, ///< subject = replacement module
  CorrectiveCompleted,  ///< subject = top gate
  AccelerationChanged,  ///< subject = leaf, detail = new factor (x1000, rounded)
};

struct TraceEvent {
  double time = 0.0;
  TraceKind kind = TraceKind::PhaseTransition;
  std::string subject;
  std::int64_t detail = 0;
};

/// Append-only event log. Kept separate from the simulator so recording can
/// be disabled (nullptr) with zero overhead on hot paths.
class Trace {
public:
  void record(double time, TraceKind kind, std::string subject, std::int64_t detail = 0) {
    events_.push_back(TraceEvent{time, kind, std::move(subject), detail});
  }

  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  std::size_t size() const noexcept { return events_.size(); }

private:
  std::vector<TraceEvent> events_;
};

}  // namespace fmtree::sim
