// Deterministic fault injection: named fault sites compiled into the I/O and
// scheduling paths that must degrade gracefully (disk-cache reads/writes,
// sweep worker tasks, allocation-heavy solver entry points).
//
// A *site* is a stable string ("cache.write", "sweep.task", ...) named at the
// code location where a fault can manifest. Sites are inert until *armed*
// with a FaultSpec, either by a fault::Scope (tests, the CLI's --inject-fault
// flag) or from the FMTREE_FAULTS environment variable. The armed spec decides
//
//   * the *mode* — what happens when the fault fires:
//       error          throw InjectedFault at the site
//       corrupt        fault_point() returns true; the site corrupts its own
//                      payload (only sites handling a buffer honor this)
//       stall=<ms>     sleep for <ms> at the site (feeds the sweep watchdog)
//   * the *trigger* — which hits of the site fire:
//       always         every hit (the default)
//       nth=<k>        exactly the k-th hit of the site (1-based)
//       p=<prob>[,seed=<s>]   seeded pseudo-random coin per hit: hit i fires
//                      iff u01(mix(seed, site, i)) < prob. Deterministic for
//                      a fixed hit order; under concurrency the *number* of
//                      fires converges to prob per hit but which logical
//                      operation observes them may vary run to run.
//   * an optional  limit=<n>  cap on total fires of the spec.
//
// Grammar (one spec):   site:mode[,trigger][,limit=<n>]
//   e.g.  cache.write:error,p=0.05,seed=7
//         sweep.task:stall=200,nth=1,limit=1
// FMTREE_FAULTS holds a ';'-separated list of specs. Malformed env specs are
// reported on stderr and skipped (arming must never take the process down);
// parse_fault_spec() used by tests/CLI throws DomainError instead.
//
// Cost contract: when nothing is armed, a fault_point() is one relaxed atomic
// load and a branch — cheap enough to compile into per-task and per-I/O
// paths unconditionally. Fault sites never change analysis semantics when
// disarmed: successful outputs are bit-identical with and without the
// framework compiled in (DESIGN.md, "Failure semantics").
//
// The site catalog lives in DESIGN.md; tests assert the sites named there
// exist by arming them and observing the fire.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace fmtree::fault {

/// Thrown by a site whose armed spec is in `error` mode. Derives from Error,
/// not IoError: call sites that must treat an injected fault like a real I/O
/// failure catch it explicitly, which keeps the degradation paths visible.
class InjectedFault : public Error {
public:
  explicit InjectedFault(std::string site)
      : Error("injected fault at site '" + site + "'"), site_(std::move(site)) {}
  const std::string& site() const noexcept { return site_; }

private:
  std::string site_;
};

enum class Mode : std::uint8_t {
  Error,    ///< throw InjectedFault at the site
  Corrupt,  ///< tell the site to corrupt its payload
  Stall,    ///< sleep stall_ms at the site
};

constexpr const char* mode_name(Mode m) noexcept {
  switch (m) {
    case Mode::Error: return "error";
    case Mode::Corrupt: return "corrupt";
    case Mode::Stall: return "stall";
  }
  return "?";
}

/// One armed fault: which site, what happens, and when.
struct FaultSpec {
  std::string site;
  Mode mode = Mode::Error;
  std::uint64_t stall_ms = 0;  ///< sleep duration (Stall mode)
  /// Probability trigger; negative = not probability-triggered.
  double probability = -1.0;
  std::uint64_t seed = 0;  ///< seeds the probability coin
  /// Nth-hit trigger (1-based); 0 = not nth-triggered. With neither trigger
  /// the spec fires on every hit.
  std::uint64_t nth = 0;
  /// Maximum number of fires; further hits pass through unharmed.
  std::uint64_t limit = std::numeric_limits<std::uint64_t>::max();
};

/// Parses "site:mode[,trigger][,limit=n]". Throws DomainError with a
/// user-facing message on malformed input.
FaultSpec parse_fault_spec(std::string_view text);

/// What a firing site must do (Error mode is thrown before this is returned).
struct FaultHit {
  Mode mode = Mode::Error;
  std::uint64_t stall_ms = 0;
};

/// Process-wide registry of armed faults. All mutation is mutex-guarded; the
/// disarmed fast path is a single relaxed atomic load (any_armed()).
class FaultRegistry {
public:
  /// The singleton; first use parses FMTREE_FAULTS (malformed entries are
  /// reported on stderr and skipped).
  static FaultRegistry& instance();

  bool any_armed() const noexcept {
    return armed_count_.load(std::memory_order_relaxed) != 0;
  }

  /// Records a hit of `site` and decides whether the armed spec (if any)
  /// fires. Stall sleeps happen here; Error mode throws InjectedFault;
  /// Corrupt is returned for the site to honor.
  std::optional<FaultHit> check(std::string_view site);

  /// Total fires across all sites since process start (never decremented).
  /// Feeds the fault.injected metric.
  std::uint64_t fires() const noexcept {
    return fires_.load(std::memory_order_relaxed);
  }

private:
  friend class Scope;

  FaultRegistry();

  struct Armed {
    FaultSpec spec;
    std::uint64_t hits = 0;
    std::uint64_t fired = 0;
  };

  /// Puts `armed` on `site` (nullopt: disarms it) and returns what the site
  /// held before.
  std::optional<Armed> exchange(const std::string& site, std::optional<Armed> armed);

  std::mutex mutex_;
  std::unordered_map<std::string, Armed> sites_;
  std::atomic<std::size_t> armed_count_{0};
  std::atomic<std::uint64_t> fires_{0};
};

namespace detail {
/// Cold path of fault_point(): consults the registry, sleeps on Stall,
/// throws on Error, returns true on Corrupt.
bool fault_point_slow(std::string_view site);
}  // namespace detail

/// The site primitive. Disarmed: one relaxed load. Armed: records the hit
/// and fires per the spec — throws InjectedFault (error mode), sleeps (stall
/// mode), or returns true (corrupt mode; the caller corrupts its payload).
inline bool fault_point(std::string_view site) {
  if (!FaultRegistry::instance().any_armed()) return false;
  return detail::fault_point_slow(site);
}

/// RAII arming for tests and the CLI: arms the given "site:spec" strings on
/// construction (throws DomainError on malformed input) and on destruction
/// puts back what those sites held before, counts included: a spec armed
/// from FMTREE_FAULTS resumes where it was, and other sites are untouched.
class Scope {
public:
  Scope() = default;
  explicit Scope(const std::vector<std::string>& specs);
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope();

private:
  /// Each armed site and what it displaced, in arming order.
  std::vector<std::pair<std::string, std::optional<FaultRegistry::Armed>>> displaced_;
};

}  // namespace fmtree::fault
