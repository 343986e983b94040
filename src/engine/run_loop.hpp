// The pipeline core: ONE drain → expiry → insert → route → sample →
// memory-accounting loop, run by the one engine (MultiQueryExecutor; a
// single query is its one-query case). Each iteration drains up to
// `batch_size` ready arrivals and inserts/routes them run by run; batch
// size 1 is the tuple-at-a-time schedule. WHERE admission evaluates every
// query's selection, and each admitted run is routed through the eddy of
// every query that accepted it.
//
// ExecutorOptions lives here because the run loop consumes most of it;
// PipelineRuntime bundles the engine-neutral run state (virtual clock,
// cost meter, memory tracker, resolved telemetry instruments).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/cost_meter.hpp"
#include "common/memory_tracker.hpp"
#include "common/tuple.hpp"
#include "common/virtual_clock.hpp"
#include "engine/eddy.hpp"
#include "engine/metrics.hpp"
#include "engine/query.hpp"
#include "engine/stem.hpp"
#include "telemetry/telemetry.hpp"

namespace amri::engine {

class TupleSource;

struct ExecutorOptions {
  TimeMicros duration = seconds_to_micros(60);  ///< measured run length
  TimeMicros warmup = 0;  ///< training prefix (paper: quasi training data)
  TimeMicros sample_every = seconds_to_micros(10);
  CostParams costs{};
  StemOptions stem{};            ///< applied to every state
  EddyOptions eddy{};
  std::size_t memory_budget = MemoryTracker::kUnlimited;
  index::WorkloadParams model_params{};  ///< cost model for tuner decisions
  /// Materialise projected result rows into RunResult::rows (for examples
  /// and tests; throughput experiments leave this off).
  bool collect_rows = false;
  std::size_t max_collected_rows = 1000;
  /// Optional per-result callback (e.g. an AggregateSink); invoked for
  /// every complete join result, warm-up included, as it is produced. The
  /// reference is valid only during the call (see ResultCallback).
  ResultCallback on_result;
  /// Optional telemetry sink. When set, the executor attaches the virtual
  /// clock, threads the handle through every STeM, index, tuner, and the
  /// eddy, records run/sample/OOM/backpressure events, and fills
  /// Sample::states. Null (the default) keeps every telemetry touchpoint
  /// to a pointer check.
  telemetry::Telemetry* telemetry = nullptr;
  /// Backlog depth (queued arrivals) that raises a backpressure event.
  /// Re-armed once the backlog drains to half the threshold.
  std::size_t backpressure_threshold = 10000;
  /// Sample every Nth drained arrival into an end-to-end trace span
  /// (`--trace-sample`): span stage events flow from source drain through
  /// eddy routing hops and STeM probes to result emission or truncation,
  /// carrying both the virtual clock and steady-clock nanoseconds. 0 (the
  /// default) disables sampling. Requires `telemetry`.
  std::size_t trace_sample = 0;
  /// Arrivals moved through the pipeline together (`--batch-size`): the
  /// executor drains up to this many ready arrivals into a TupleBatch,
  /// expires every window once, then batch-inserts and batch-routes each
  /// consecutive same-stream run. 1 (the default) is the tuple-at-a-time
  /// schedule: every arrival is expired, inserted and routed depth-first
  /// on its own. Before the warm-up boundary every batch size drains one
  /// arrival at a time. Larger batches keep the modelled cost identical
  /// (every shared computation is still charged once per tuple it serves)
  /// but amortise real dispatch work; the only semantic drift is expiry
  /// timing — windows are expired at batch start, so a tuple whose
  /// deadline falls inside a batch's virtual-time span survives a few
  /// probes longer (see docs/architecture.md, "Batched execution").
  std::size_t batch_size = 1;
};

/// Modelled bytes per queued (undrained) arrival: the tuple payload plus
/// container overhead, charged to MemCategory::kQueue through
/// PipelineRuntime::sync_queue_memory.
inline constexpr std::size_t kQueueBytesPerTuple = sizeof(Tuple) + 16;

/// Engine-neutral run state: clock, meter, memory, and the telemetry
/// instruments the run loop records into.
class PipelineRuntime {
 public:
  explicit PipelineRuntime(const ExecutorOptions& options);

  PipelineRuntime(const PipelineRuntime&) = delete;
  PipelineRuntime& operator=(const PipelineRuntime&) = delete;

  VirtualClock clock;
  CostMeter meter;
  MemoryTracker memory;
  /// Observability handles, resolved once at construction (null detached).
  telemetry::Profiler* profiler = nullptr;
  telemetry::Histogram* span_latency_hist = nullptr;  ///< span.latency_us
  telemetry::Gauge* run_wall_gauge = nullptr;         ///< profile.run.wall_us

  /// Track `backlog` queued arrivals against MemCategory::kQueue at
  /// kQueueBytesPerTuple each.
  void sync_queue_memory(std::size_t backlog);

  /// Emit the per-category OOM breakdown event (no-op when `tel` is null).
  void emit_oom_event(telemetry::Telemetry* tel);

 private:
  std::size_t tracked_queue_bytes_ = 0;
};

/// The run loop: consume `source` until the measured duration elapses, the
/// source is exhausted, or the memory budget is exceeded. `stems` is
/// indexed by StreamId and shared by every query; `eddies[i]` routes
/// `queries[i]`. With more than one query every sample carries per-query
/// output deltas (Sample::per_query_outputs).
RunResult run_pipeline(const ExecutorOptions& options, PipelineRuntime& rt,
                       const std::vector<std::unique_ptr<StemOperator>>& stems,
                       const std::vector<QuerySpec>& queries,
                       const std::vector<std::unique_ptr<EddyRouter>>& eddies,
                       TupleSource& source);

}  // namespace amri::engine
