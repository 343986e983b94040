// The engine: SPJ queries over a common set of streams, run through ONE
// pipeline (engine/run_loop.hpp). Each stream has ONE STeM state, and each
// query routes through its own eddy over those shared states. A single
// query is the one-query case (engine::Executor is a thin front over it);
// several queries (paper §II: "our proposed logic equally applies to
// multiple SPJ queries") share every state, whose join attribute set is
// the union of the attributes any query joins on, so one AMRI index (or
// baseline) serves the union of all queries' access patterns — the
// multi-query workload diversity that motivates AMRI's single versatile
// index.
//
// With several queries, each gets its own assessor set on the shared STeM
// (StemOptions::queries); tuning epochs merge the per-query snapshots so
// ONE shared tuner scores candidate ICs against the union workload, with
// per-query request shares attached to every decision, and every sample
// carries per-query output deltas. A one-query run is exactly the
// single-query engine: the query's own JAS order, its initial config
// (a width mismatch falls back to IndexConfig::zero in the STeM), the
// plain `eddy.*` metric names and no per-query sample fields.
//
// Constraints (checked, std::invalid_argument, every build): all queries
// span the same stream universe and share the window length (the paper's
// default-window-length template), at most 64 queries share an executor
// (accept sets are bitmasks), `sample_every` is positive and `duration`
// and `warmup` are not negative.
#pragma once

#include <memory>
#include <vector>

#include "engine/eddy.hpp"
#include "engine/metrics.hpp"
#include "engine/query.hpp"
#include "engine/run_loop.hpp"
#include "engine/stem.hpp"
#include "engine/tuple_source.hpp"

namespace amri::engine {

struct MultiRunResult {
  /// Totals across queries. With several queries every sample
  /// additionally carries the per-query output deltas
  /// (Sample::per_query_outputs), so dashboards can plot each query's
  /// throughput curve from one run.
  RunResult combined;
  std::vector<std::uint64_t> per_query_outputs;  ///< measured-phase, by query
};

class MultiQueryExecutor {
 public:
  /// `queries` must all reference the same streams (ids and schemas) and
  /// window. The ExecutorOptions are applied to the shared states. Throws
  /// std::invalid_argument for no queries, more than 64, mismatched
  /// stream counts or windows, or invalid run lengths (see above).
  MultiQueryExecutor(std::vector<QuerySpec> queries, ExecutorOptions options);

  // Eddies hold references into queries_: not copyable or movable.
  MultiQueryExecutor(const MultiQueryExecutor&) = delete;
  MultiQueryExecutor& operator=(const MultiQueryExecutor&) = delete;

  /// Consume `source` until the measured duration elapses, the source is
  /// exhausted, or the memory budget is exceeded.
  MultiRunResult run(TupleSource& source);

  const std::vector<std::unique_ptr<StemOperator>>& stems() const {
    return stems_;
  }
  const QuerySpec& query(std::size_t i) const { return queries_[i]; }
  std::size_t num_queries() const { return queries_.size(); }
  const EddyRouter& eddy(std::size_t i) const { return *eddies_[i]; }
  const VirtualClock& clock() const { return rt_.clock; }
  const MemoryTracker& memory() const { return rt_.memory; }
  const CostMeter& meter() const { return rt_.meter; }

  /// The shared (union) join attribute set of stream `s`.
  const index::JoinAttributeSet& shared_jas(StreamId s) const {
    return stems_[s]->layout().jas;
  }

 private:
  std::vector<QuerySpec> queries_;
  ExecutorOptions options_;
  /// The shared run-loop state (clock/meter/memory/instruments).
  /// Constructed before stems_, which hold its meter and memory tracker.
  PipelineRuntime rt_;
  std::vector<std::unique_ptr<StemOperator>> stems_;
  std::vector<std::unique_ptr<EddyRouter>> eddies_;  ///< one per query
};

}  // namespace amri::engine
