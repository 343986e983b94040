// The eddy router (paper §I, after Avnur & Hellerstein): the central
// operator that decides, per (partial) tuple, which STeM to visit next
// based on up-to-date statistics. The route a tuple takes determines the
// access pattern each state's probe carries — the coupling AMRI exploits.
//
// Join semantics: a complete result is emitted when the partial result has
// visited every stream's state. Because a probe binds *every* join
// attribute whose peer stream is already in the partial, all predicates
// among the joined streams are verified incrementally; each result is
// produced exactly once, when its latest-arriving member routes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cost_meter.hpp"
#include "common/small_vector.hpp"
#include "engine/query.hpp"
#include "engine/routing_policy.hpp"
#include "engine/stem.hpp"

namespace amri::engine {

struct EddyOptions {
  RoutingOptions routing{};
  /// Safety valve against join explosions: partial results processed per
  /// arrival (complete results still counted, processing truncated).
  std::size_t max_partials_per_arrival = 1u << 20;
  /// A routing decision for a given done-mask is reused for the next
  /// `decision_reuse - 1` partials with the same mask, amortising the
  /// per-decision cost.
  std::size_t decision_reuse = 1;
};

/// A complete join result: one stored tuple per stream.
struct JoinResult {
  SmallVector<const Tuple*, 8> members;  ///< indexed by StreamId
};

/// Receives each complete join result as the eddy produces it. The router
/// reuses one JoinResult: the reference is valid only during the call.
using ResultCallback = std::function<void(const JoinResult&)>;

class EddyRouter {
 public:
  /// route_batch: no batch member carries the active trace span. The run
  /// loop uses this same sentinel.
  static constexpr std::size_t kNoSpanRoot = static_cast<std::size_t>(-1);

  /// `stems[s]` must be the STeM of stream s. A stem may index a
  /// *superset* of this query's join attributes (the union over all
  /// queries sharing the state); probe keys are laid out in the stem's JAS
  /// order. With `telemetry` set, routing decisions are counted under
  /// `metrics_prefix` ("<prefix>.decisions", ".results",
  /// ".partials_truncated", ".route_changes") and every change of routing
  /// target for a given done-mask is logged as a routing_change event.
  EddyRouter(const QuerySpec& query, std::vector<StemOperator*> stems,
             EddyOptions options, CostMeter* meter = nullptr,
             telemetry::Telemetry* telemetry = nullptr,
             const std::string& metrics_prefix = "eddy");

  /// Route an arrival that was already inserted into its own STeM as
  /// `stored`, depth first. Returns the number of complete results; a
  /// non-null `sink` (which must be callable) receives each one, a final
  /// hop's matches latest first (the order a stack would pop them).
  std::uint64_t route(const Tuple* stored,
                      const ResultCallback* sink = nullptr);

  /// Route a batch of `n` same-stream arrivals (already inserted; `done[i]`
  /// is arrival i's initial done-mask, normally `1 << stream`) level by
  /// level, results in frontier order. One routing decision serves each
  /// done-mask partition of a level, whose probes go through
  /// StemOperator::probe_batch; fresh-decision counts match n route()
  /// calls. Same-stream makes this equivalent to sequential routing: no
  /// partial rooted at stream s probes stream s, so windows stay static.
  /// Caveats in docs/architecture.md ("Level-order routing"). `span_root`,
  /// unless kNoSpanRoot, is the batch index carrying the active trace span
  /// ("hop", and "truncate" if its valve trips). A one-arrival batch goes
  /// to route(), so batch size 1 is the tuple-at-a-time schedule.
  std::uint64_t route_batch(const Tuple* const* stored,
                            const std::uint32_t* done, std::size_t n,
                            const ResultCallback* sink = nullptr,
                            std::size_t span_root = kNoSpanRoot);

  RoutingStatistics& statistics() { return stats_; }
  const RoutingStatistics& statistics() const { return stats_; }
  const RoutingPolicy& policy() const { return *policy_; }

  std::uint64_t arrivals_routed() const { return arrivals_; }
  std::uint64_t results_produced() const { return results_; }
  std::uint64_t partials_truncated() const { return truncated_; }

 private:
  struct Partial {
    std::uint32_t done = 0;
    std::uint32_t root = 0;  ///< route_batch: index of the rooting arrival
    SmallVector<const Tuple*, 8> members;  ///< indexed by StreamId
  };
  /// Next state and access pattern for `partials` partials of `done_mask`;
  /// consumes the decision cache per partial, charges fresh decisions.
  RoutingContext::Candidate decide(std::uint32_t done_mask,
                                   std::uint64_t partials);
  void bind_key(const SmallVector<const Tuple*, 8>& members, StreamId target,
                AttrMask ap, index::ProbeKey& key) const;
  /// The valve tripped at `processed`; a non-zero `span` logs "truncate".
  void note_truncation(std::uint64_t span, StreamId stream,
                       std::uint64_t processed);

  const QuerySpec& query_;
  std::vector<StemOperator*> stems_;
  /// position_maps_[s][p]: the stem JAS position of this query's JAS
  /// position p of stream s.
  std::vector<std::vector<std::uint8_t>> position_maps_;
  EddyOptions options_;
  std::unique_ptr<RoutingPolicy> policy_;
  CostMeter* meter_;
  RoutingStatistics stats_;
  std::uint64_t arrivals_ = 0;
  std::uint64_t results_ = 0;
  std::uint64_t truncated_ = 0;
  /// Batch-routing cache: done-mask -> (candidate index, remaining uses).
  struct CachedDecision {
    std::size_t pick = 0;
    std::size_t remaining = 0;
  };
  std::unordered_map<std::uint32_t, CachedDecision> decision_cache_;
  RoutingContext context_;  ///< decide()'s, refilled per decision
  // Reusable arenas (capacity persists across calls).
  std::vector<Partial> stack_;        ///< route()'s depth-first stack
  JoinResult result_;                 ///< every delivered result
  std::vector<std::size_t> grouped_;  ///< route_batch: level by partition
  std::vector<index::ProbeKey> batch_keys_;
  std::vector<std::vector<const Tuple*>> batch_outs_;
  std::vector<index::ProbeStats> batch_stats_;
  // Telemetry instruments (null when detached).
  telemetry::Telemetry* telemetry_ = nullptr;
  telemetry::Counter* decisions_counter_ = nullptr;
  telemetry::Counter* results_counter_ = nullptr;
  telemetry::Counter* truncated_counter_ = nullptr;
  telemetry::Counter* route_change_counter_ = nullptr;
  /// Last fresh routing target per done-mask, for change detection.
  std::unordered_map<std::uint32_t, StreamId> last_target_;
};

}  // namespace amri::engine
