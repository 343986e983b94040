#include "engine/multi_query.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace amri::engine {

namespace {

// The executor's preconditions, checked before any member that depends on
// them (accept masks, the shared layouts, the run loop) is built.
std::vector<QuerySpec> checked(std::vector<QuerySpec> queries) {
  if (queries.empty()) {
    throw std::invalid_argument("MultiQueryExecutor: no queries");
  }
  if (queries.size() > 64) {
    // Accept sets are 64-bit masks: query 64 would shift past the word.
    throw std::invalid_argument("MultiQueryExecutor: " +
                                std::to_string(queries.size()) +
                                " queries (at most 64)");
  }
  for (const QuerySpec& q : queries) {
    if (q.num_streams() != queries[0].num_streams()) {
      throw std::invalid_argument(
          "MultiQueryExecutor: queries span different stream counts");
    }
    if (q.window() != queries[0].window()) {
      throw std::invalid_argument(
          "MultiQueryExecutor: queries have different windows");
    }
  }
  return queries;
}

ExecutorOptions checked(ExecutorOptions options) {
  // A non-positive sampling period would make the run loop's sampling
  // catch-up loop spin forever.
  if (options.sample_every <= 0) {
    throw std::invalid_argument("ExecutorOptions: sample_every must be > 0");
  }
  if (options.duration < 0 || options.warmup < 0) {
    throw std::invalid_argument(
        "ExecutorOptions: duration and warmup must be >= 0");
  }
  return options;
}

}  // namespace

MultiQueryExecutor::MultiQueryExecutor(std::vector<QuerySpec> queries,
                                       ExecutorOptions options)
    : queries_(checked(std::move(queries))),
      options_(checked(std::move(options))),
      rt_(options_) {
  const std::size_t k = queries_[0].num_streams();
  const TimeMicros window = queries_[0].window();
  const bool shared = queries_.size() > 1;

  // Shared STeMs over the union JAS per stream, attributes in order of
  // first appearance across the queries (so one query keeps its own JAS
  // order), with one assessor set per query so the shared tuner can
  // attribute and merge per-query demand.
  options_.stem.queries = queries_.size();
  const index::CostModel model(options_.model_params);
  std::vector<StemOperator*> stem_ptrs;
  for (StreamId s = 0; s < k; ++s) {
    std::vector<AttrId> attrs;
    for (const QuerySpec& q : queries_) {
      for (const AttrId a : q.layout(s).jas.attrs()) {
        if (std::find(attrs.begin(), attrs.end(), a) == attrs.end()) {
          attrs.push_back(a);
        }
      }
    }
    // The layout's peers stay empty: peers are query-specific and only
    // used by the per-query eddies.
    StateLayout layout;
    layout.jas = index::JoinAttributeSet(std::move(attrs));
    StemOptions stem_opts = options_.stem;
    if (shared && stem_opts.initial_config.num_attrs() != layout.jas.size()) {
      // Re-spread the configured bit budget over the union JAS. (One query
      // keeps the STeM's own rule: a width mismatch starts from zero bits.)
      const int budget = stem_opts.initial_config.total_bits();
      std::vector<std::uint8_t> bits(layout.jas.size(), 0);
      for (int b = 0; b < budget; ++b) {
        ++bits[static_cast<std::size_t>(b) % bits.size()];
      }
      stem_opts.initial_config = index::IndexConfig(bits);
    }
    stems_.push_back(std::make_unique<StemOperator>(
        s, layout, window, stem_opts, model, &rt_.meter, &rt_.memory,
        options_.telemetry));
    stem_ptrs.push_back(stems_.back().get());
  }

  // One eddy per query, probing the shared stems; several queries label
  // their routing metrics per query ("q0.eddy", "q1.eddy", …).
  for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
    eddies_.push_back(std::make_unique<EddyRouter>(
        queries_[qi], stem_ptrs, options_.eddy, &rt_.meter,
        options_.telemetry,
        shared ? "q" + std::to_string(qi) + ".eddy" : "eddy"));
  }
}

MultiRunResult MultiQueryExecutor::run(TupleSource& source) {
  MultiRunResult result;
  result.combined =
      run_pipeline(options_, rt_, stems_, queries_, eddies_, source);
  // The run loop always takes a final sample; with several queries its
  // per-query deltas are the measured-phase attribution.
  if (queries_.size() == 1) {
    result.per_query_outputs = {result.combined.outputs};
  } else {
    result.per_query_outputs = result.combined.samples.back().per_query_outputs;
  }
  return result;
}

}  // namespace amri::engine
