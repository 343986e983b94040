// Wall-clock phase profiler: RAII scope timers around the executor's
// pipeline phases (drain, expiry, insert, route, probe, assessor
// snapshot/merge, tuner epoch, index migration, sampling). Scopes nest —
// a probe runs inside a route, a migration inside a tuner epoch — and the
// profiler keeps *exclusive* per-phase wall time (a child's time is not
// double-counted in its parent), so the per-phase totals sum to the wall
// time spent inside any scope. Per-scope *inclusive* durations feed a
// registry histogram per phase (`profile.<phase>.scope_us`) for
// p50/p95/p99; exclusive totals mirror into `profile.<phase>.exclusive_us`
// gauges so both flow through the JSONL/Prometheus exporters unchanged.
//
// Thread safety: none — the profiler tracks one scope stack and must only
// be driven from the engine's thread. The registry instruments it writes
// are thread-safe.
// The disabled path is the usual nullable-handle contract: a null
// Profiler* makes ScopedPhase a no-op worth two null checks.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>

#include "telemetry/metrics.hpp"

namespace amri::telemetry {

enum class Phase : std::uint8_t {
  kDrain = 0,      ///< pulling arrivals from the source into the backlog
  kExpiry,         ///< sliding-window expiry sweeps across STeMs
  kInsert,         ///< STeM index inserts (single or batched)
  kRoute,          ///< eddy routing (route / route_batch), probes excluded
  kProbe,          ///< index probe work inside a routing hop
  kSnapshotMerge,  ///< per-query assessor snapshot + merge at an epoch
  kTunerEpoch,     ///< tuner decide/optimize (migration excluded)
  kMigration,      ///< index reconfiguration (rehash + move)
  kSample,         ///< periodic engine state sampling
};

inline constexpr std::size_t kNumPhases = 9;

const char* phase_name(Phase phase);

class Profiler {
 public:
  /// Resolves the per-phase instruments from `registry` once, up front
  /// (`profile.<phase>.scope_us` histograms, `.exclusive_us` gauges).
  explicit Profiler(MetricsRegistry& registry);

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Enter / leave a phase scope. Prefer ScopedPhase. Nesting deeper than
  /// kMaxDepth is counted but not timed separately (folds into the parent).
  void start(Phase phase);
  void stop();

  struct PhaseStats {
    std::uint64_t entries = 0;    ///< scope entry count
    double exclusive_us = 0.0;    ///< wall time inside this phase only
  };
  PhaseStats stats(Phase phase) const;

  /// Sum of exclusive times over every phase == wall time spent inside
  /// any profiler scope.
  double total_exclusive_us() const;

  /// Inclusive per-scope duration histogram (registry-owned); use
  /// Histogram::percentile for p50/p95/p99.
  const Histogram& scope_histogram(Phase phase) const;

  static constexpr std::size_t kMaxDepth = 16;

 private:
  using Clock = std::chrono::steady_clock;

  struct Frame {
    Phase phase = Phase::kDrain;
    Clock::time_point scope_start;
  };

  static std::size_t index(Phase phase) {
    return static_cast<std::size_t>(phase);
  }

  std::array<Frame, kMaxDepth> stack_;
  std::size_t depth_ = 0;
  Clock::time_point last_mark_;

  std::array<std::uint64_t, kNumPhases> entries_{};
  std::array<double, kNumPhases> exclusive_us_{};
  std::array<Histogram*, kNumPhases> scope_us_{};
  std::array<Gauge*, kNumPhases> exclusive_gauge_{};
};

/// RAII phase scope; `profiler` may be null (detached telemetry), in which
/// case construction and destruction are single null checks.
class ScopedPhase {
 public:
  ScopedPhase(Profiler* profiler, Phase phase) : profiler_(profiler) {
    if (profiler_ != nullptr) profiler_->start(phase);
  }
  ~ScopedPhase() {
    if (profiler_ != nullptr) profiler_->stop();
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Profiler* profiler_;
};

/// Render the end-of-run phase table (amri_sim --profile): per phase the
/// scope count, exclusive total, share of `run_wall_us`, and inclusive
/// p50/p95/p99/max per scope. Phases never entered are omitted.
void print_phase_table(std::ostream& os, const Profiler& profiler,
                       double run_wall_us);

}  // namespace amri::telemetry
