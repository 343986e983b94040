// Run metrics: the cumulative-throughput time series behind the paper's
// Figures 6 and 7, plus per-run summary counters.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/table_printer.hpp"
#include "common/tuple.hpp"
#include "common/types.hpp"

namespace amri::engine {

/// Per-state detail captured with each throughput sample.
struct StateSample {
  StreamId stream = 0;
  std::size_t stored_tuples = 0;
  std::uint64_t probes = 0;       ///< cumulative probes served
  std::uint64_t migrations = 0;   ///< cumulative migrations applied
  std::string index_config;       ///< current physical configuration
};

/// One point on the throughput curve.
struct Sample {
  TimeMicros t = 0;             ///< virtual time since measurement start
  std::uint64_t outputs = 0;    ///< cumulative join results
  std::size_t memory_bytes = 0; ///< tracked memory at sample time
  std::size_t backlog = 0;      ///< queued, unprocessed arrivals
  /// Per-state snapshots, indexed by StreamId. Populated only when the run
  /// has telemetry attached (ExecutorOptions::telemetry); empty otherwise.
  std::vector<StateSample> states;
  /// Multi-query runs only: cumulative join results attributed to each
  /// query at this sample (same measured-phase delta convention as
  /// `outputs`; `outputs` is their sum). Empty for single-query runs.
  std::vector<std::uint64_t> per_query_outputs;
};

struct StateSummary {
  StreamId stream = 0;
  std::size_t stored_tuples = 0;
  std::uint64_t probes = 0;
  std::uint64_t migrations = 0;
  /// Tuning decisions whose migration was blocked by an enabled guardrail
  /// (hysteresis / amortization / budgets); 0 with guardrails off.
  std::uint64_t suppressed = 0;
  /// Total modelled virtual time this state spent paused in migrations.
  double migration_pause_us = 0.0;
  /// Final logical footprint: window store plus index structure bytes.
  std::size_t state_bytes = 0;
  std::string final_index;
};

/// Result of one executor run.
struct RunResult {
  std::vector<Sample> samples;
  std::uint64_t outputs = 0;          ///< results in the measured phase
  std::uint64_t arrivals = 0;         ///< arrivals processed (measured)
  std::uint64_t arrivals_filtered = 0;  ///< rejected by WHERE selections
  std::uint64_t arrivals_dropped = 0; ///< unprocessed when the run ended
  std::optional<TimeMicros> died_at;  ///< OOM time (measured-phase clock)
  bool completed = false;             ///< ran the full duration
  std::size_t peak_memory = 0;
  double charged_us = 0.0;            ///< total modelled work
  std::uint64_t routing_decisions = 0;  ///< fresh eddy routing decisions
  std::vector<StateSummary> states;
  /// First projected result rows (filled when ExecutorOptions::collect_rows
  /// is set; capped at ExecutorOptions::max_collected_rows).
  std::vector<SmallVector<Value, kInlineAttrs>> rows;

  /// Outputs at or before measured time `t` (samples are monotone).
  std::uint64_t outputs_at(TimeMicros t) const {
    std::uint64_t best = 0;
    for (const Sample& s : samples) {
      if (s.t <= t) best = s.outputs;
    }
    return best;
  }
};

/// Render the per-state summaries as an aligned table. `names[s]`, when
/// provided, labels stream s (defaults to "S<s>").
inline TablePrinter make_state_table(
    const std::vector<StateSummary>& states,
    const std::vector<std::string>& names = {}) {
  TablePrinter table({"state", "tuples", "probes", "migrations", "suppr",
                      "pause_ms", "mem_kib", "final index"});
  for (const StateSummary& s : states) {
    const std::string name = s.stream < names.size()
                                 ? names[s.stream]
                                 : "S" + std::to_string(s.stream);
    table.add_row({name,
                   TablePrinter::fmt_int(
                       static_cast<long long>(s.stored_tuples)),
                   TablePrinter::fmt_int(static_cast<long long>(s.probes)),
                   TablePrinter::fmt_int(static_cast<long long>(s.migrations)),
                   TablePrinter::fmt_int(static_cast<long long>(s.suppressed)),
                   TablePrinter::fmt(s.migration_pause_us / 1000.0, 2),
                   TablePrinter::fmt(
                       static_cast<double>(s.state_bytes) / 1024.0, 1),
                   s.final_index});
  }
  return table;
}

}  // namespace amri::engine
