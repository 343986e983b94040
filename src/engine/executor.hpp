// The discrete-event simulation driver: pulls arrivals from a TupleSource,
// runs expiry → insert → eddy routing for each, charges all modelled work
// (hashing, comparisons, routing, migrations) to the virtual clock, tracks
// memory against a budget, and samples the cumulative-throughput curve.
//
// This substitutes for the paper's CAPE testbed: identical cost structure
// (the terms of Equation 1), deterministic, and laptop-fast. A run that
// exceeds the memory budget "dies" — reproducing the baselines' observed
// out-of-memory failures — and a run whose processing falls behind the
// arrival schedule accumulates backlog, reproducing the search-request
// backlog the paper describes for under-indexed configurations.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "engine/eddy.hpp"
#include "engine/metrics.hpp"
#include "engine/query.hpp"
#include "engine/run_loop.hpp"
#include "engine/stem.hpp"
#include "engine/tuple_source.hpp"
#include "telemetry/telemetry.hpp"

namespace amri::engine {

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
  /// every complete join result, warm-up included.
  std::function<void(const JoinResult&)> on_result;
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
  /// eddy routing hops, STeM probes and sharded fan-out to result emission
  /// or truncation, carrying both the virtual clock and steady-clock
  /// nanoseconds. 0 (the default) disables sampling. Requires `telemetry`.
  std::size_t trace_sample = 0;
  /// Worker threads for sharded fan-out probes (stem.shards > 1 only).
  /// 0 picks hardware_concurrency; ignored when the stems are unsharded.
  std::size_t fanout_threads = 0;
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

class Executor {
 public:
  Executor(const QuerySpec& query, ExecutorOptions options);

  /// Consume `source` until the measured duration elapses, the source is
  /// exhausted, or the memory budget is exceeded.
  RunResult run(TupleSource& source);

  /// Engine internals exposed for inspection in tests and examples.
  const std::vector<std::unique_ptr<StemOperator>>& stems() const {
    return stems_;
  }
  const EddyRouter& eddy() const { return *eddy_; }
  const VirtualClock& clock() const { return rt_.clock; }
  const MemoryTracker& memory() const { return rt_.memory; }
  const CostMeter& meter() const { return rt_.meter; }

 private:
  const QuerySpec& query_;
  ExecutorOptions options_;
  /// The shared run-loop state (clock/meter/memory/pools/instruments).
  /// Constructed before stems_ — its construction finalises options_
  /// (fan-out pool) and its pool must outlive every stem probe path.
  PipelineRuntime rt_;
  std::vector<std::unique_ptr<StemOperator>> stems_;
  std::unique_ptr<EddyRouter> eddy_;
};

}  // namespace amri::engine
