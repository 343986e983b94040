// The shared pipeline core: ONE drain → expiry → insert → route → sample
// → memory-accounting loop serving every executor. Each iteration drains
// up to `batch_size` ready arrivals and inserts/routes them run by run;
// batch size 1 is the tuple-at-a-time schedule. The loop is
// query-agnostic — everything query-specific (WHERE admission, eddy
// routing, result collection) goes through a RoutingSink, so the
// single-query Executor and the MultiQueryExecutor run bit-for-bit the
// same engine: same warm-up boundary, same schedule, same telemetry
// (spans, profiler phases, samples, backpressure, OOM), same queue-memory
// accounting.
//
// PipelineRuntime bundles the engine-neutral run state both executors
// used to duplicate (virtual clock, cost meter, memory tracker, fan-out
// pool, resolved telemetry instruments).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/cost_meter.hpp"
#include "common/memory_tracker.hpp"
#include "common/thread_pool.hpp"
#include "common/tuple.hpp"
#include "common/virtual_clock.hpp"
#include "engine/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace amri::engine {

struct ExecutorOptions;
class StemOperator;
class TupleSource;

/// Modelled bytes per queued (undrained) arrival: the tuple payload plus
/// container overhead. The ONE place the queue-accounting constant lives —
/// every executor charges MemCategory::kQueue through
/// PipelineRuntime::sync_queue_memory, so single- and multi-query
/// accounting can never drift.
inline constexpr std::size_t kQueueBytesPerTuple = sizeof(Tuple) + 16;

/// Query-specific half of the pipeline, implemented by each executor:
/// WHERE admission and eddy routing. The run loop owns batching, expiry,
/// insertion, sampling and accounting; the sink owns everything that needs
/// a QuerySpec. Multi-query sinks additionally remember, per admitted
/// batch slot, which queries accepted the arrival, and route each query's
/// sub-array through that query's eddy.
class RoutingSink {
 public:
  virtual ~RoutingSink() = default;

  /// True when samples should carry per-query output deltas
  /// (Sample::per_query_outputs). Multi-query sinks return true.
  virtual bool wants_per_query() const { return false; }

  /// WHERE admission for `arrival`, charging selection comparisons to
  /// `meter`. Returns true when the arrival enters the pipeline (any query
  /// accepts it); the sink records the accept set in its live batch state
  /// (the slot is the current batch's size).
  virtual bool admit(const Tuple& arrival, CostMeter& meter) = 0;

  /// A new admission batch starts: forget the previous batch's accepts.
  /// Called before every drain.
  virtual void begin_batch() {}

  /// Route the admitted same-stream batch slots [first, first + n):
  /// `stored[j]` / `done[j]` describe slot first + j. `span_root`, when
  /// not EddyRouter::kNoSpanRoot, is the index in [0, n) carrying the
  /// active trace span. `measured` is true after the warm-up boundary
  /// (row collection). Returns complete results produced.
  virtual std::uint64_t route_batch(const Tuple* const* stored,
                                    const std::uint32_t* done,
                                    std::size_t first, std::size_t n,
                                    std::size_t span_root, bool measured) = 0;

  /// Append cumulative per-query outputs (multi-query sinks; the run loop
  /// turns these into per-sample deltas).
  virtual void per_query_outputs(std::vector<std::uint64_t>& out) const {
    (void)out;
  }

  /// Move collected projected rows into the run result.
  virtual void take_rows(std::vector<SmallVector<Value, kInlineAttrs>>& rows) {
    (void)rows;
  }
};

/// Engine-neutral run state shared by every executor: clock, meter,
/// memory, fan-out pool, and the telemetry instruments the run loop records
/// into. Construction creates the fan-out pool for sharded stems and hands
/// it to `options.stem`.
class PipelineRuntime {
 public:
  explicit PipelineRuntime(ExecutorOptions& options);

  PipelineRuntime(const PipelineRuntime&) = delete;
  PipelineRuntime& operator=(const PipelineRuntime&) = delete;

  VirtualClock clock;
  CostMeter meter;
  MemoryTracker memory;
  /// Shared fan-out pool, created only when the stems are sharded.
  /// Declared before any stems so it outlives every probe path.
  std::unique_ptr<ThreadPool> pool;
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

/// The unified run loop: consume `source` until the measured duration
/// elapses, the source is exhausted, or the memory budget is exceeded.
/// `stems` is indexed by StreamId; all query-specific work goes through
/// `sink`. Single-query behavior is bit-for-bit the legacy Executor::run.
RunResult run_pipeline(const ExecutorOptions& options, PipelineRuntime& rt,
                       const std::vector<std::unique_ptr<StemOperator>>& stems,
                       RoutingSink& sink, TupleSource& source);

}  // namespace amri::engine
