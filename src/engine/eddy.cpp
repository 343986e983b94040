#include "engine/eddy.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "telemetry/json.hpp"

namespace amri::engine {

namespace {

using SteadyClock = std::chrono::steady_clock;

std::int64_t ns_since(SteadyClock::time_point t0) {
  const auto elapsed = SteadyClock::now() - t0;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
}

// Multi-query visibility: a shared state stores any tuple some query
// accepted, so this query's WHERE selection re-verifies matches.
void keep_visible(const Selection& visibility, CostMeter* meter,
                  std::vector<const Tuple*>& matches) {
  if (visibility.empty()) return;
  std::size_t kept = 0;
  for (const Tuple* m : matches) {
    if (visibility.matches(*m, meter)) matches[kept++] = m;
  }
  matches.resize(kept);
}

// A "hop" span stage; `partition` > 0 (route_batch) adds partition fields.
void emit_hop(telemetry::Telemetry& tel, std::uint64_t span,
              std::uint32_t done_mask, StreamId target, AttrMask ap,
              std::uint64_t partition, std::uint64_t span_partials,
              std::uint64_t matches, std::uint64_t compared,
              std::int64_t probe_ns) {
  telemetry::JsonWriter w;
  w.begin_object();
  w.field("span", span);
  w.field("stage", "hop");
  w.field("wall_ns", tel.wall_ns());
  w.field("done_mask", static_cast<std::uint64_t>(done_mask));
  w.field("target", static_cast<std::uint64_t>(target));
  w.field("ap", static_cast<std::uint64_t>(ap));
  if (partition > 0) {
    w.field("partition", partition);
    w.field("span_partials", span_partials);
  }
  w.field("matches", matches);
  w.field("compared", compared);
  w.field("probe_ns", static_cast<std::uint64_t>(probe_ns));
  w.end_object();
  tel.emit(telemetry::EventKind::kSpan, target, std::move(w).take());
}

}  // namespace

EddyRouter::EddyRouter(const QuerySpec& query, std::vector<StemOperator*> stems,
                       EddyOptions options, CostMeter* meter,
                       telemetry::Telemetry* telemetry,
                       const std::string& metrics_prefix)
    : query_(query),
      stems_(std::move(stems)),
      position_maps_(query_.num_streams()),
      options_(options),
      policy_(make_routing_policy(options.routing)),
      meter_(meter),
      telemetry_(telemetry) {
  assert(stems_.size() == query_.num_streams());
  for (StreamId s = 0; s < query_.num_streams(); ++s) {
    const index::JoinAttributeSet& query_jas = query_.layout(s).jas;
    const index::JoinAttributeSet& stem_jas = stems_[s]->layout().jas;
    for (std::size_t p = 0; p < query_jas.size(); ++p) {
      const std::size_t stem_pos =
          stem_jas.position_of(query_jas.tuple_attr(p));
      assert(stem_pos < stem_jas.size());
      position_maps_[s].push_back(static_cast<std::uint8_t>(stem_pos));
    }
  }
  if (telemetry_ != nullptr) {
    auto& reg = telemetry_->metrics();
    decisions_counter_ = &reg.counter(metrics_prefix + ".decisions");
    results_counter_ = &reg.counter(metrics_prefix + ".results");
    truncated_counter_ = &reg.counter(metrics_prefix + ".partials_truncated");
    route_change_counter_ = &reg.counter(metrics_prefix + ".route_changes");
  }
}

RoutingContext::Candidate EddyRouter::decide(std::uint32_t done_mask,
                                             std::uint64_t partials) {
  // Candidate next states with their access patterns, in the reused
  // context (its candidate vector keeps its capacity).
  RoutingContext& ctx = context_;
  ctx.done_mask = done_mask;
  ctx.candidates.clear();
  for (StreamId s = 0; s < query_.num_streams(); ++s) {
    if ((done_mask >> s) & 1u) continue;
    ctx.candidates.push_back(RoutingContext::Candidate{
        s, query_.layout(s).pattern_for(done_mask)});
  }
  assert(!ctx.candidates.empty());
  std::size_t pick;
  std::uint64_t fresh = 0;
  if (options_.decision_reuse > 1) {
    // Reuse the cached decision for this done-mask while its batch lasts;
    // only fresh decisions consult the policy (and pay the routing cost).
    auto& cached = decision_cache_[done_mask];
    for (std::uint64_t consumed = 0; consumed < partials;) {
      if (cached.remaining == 0) {
        cached.pick = policy_->choose(ctx, stats_);
        cached.remaining = options_.decision_reuse;
        ++fresh;
      }
      const std::uint64_t take =
          std::min<std::uint64_t>(cached.remaining, partials - consumed);
      cached.remaining -= take;
      consumed += take;
    }
    pick = std::min(cached.pick, ctx.candidates.size() - 1);
  } else {
    pick = policy_->choose(ctx, stats_);
    fresh = partials;  // tuple-at-a-time consults the policy per partial
  }
  if (fresh > 0 && meter_ != nullptr) meter_->charge_route(fresh);
  const RoutingContext::Candidate& choice = ctx.candidates[pick];
  if (fresh == 0 || telemetry_ == nullptr) return choice;
  // Count the decisions; log a change of target for this done-mask.
  decisions_counter_->add(fresh);
  const auto it = last_target_.find(done_mask);
  if (it != last_target_.end() && it->second == choice.state) return choice;
  if (it != last_target_.end()) {
    route_change_counter_->add();
    telemetry::JsonWriter w;
    w.begin_object();
    w.field("done_mask", static_cast<std::uint64_t>(done_mask));
    w.field("from", static_cast<std::uint64_t>(it->second));
    w.field("to", static_cast<std::uint64_t>(choice.state));
    w.end_object();
    telemetry_->emit(telemetry::EventKind::kRoutingChange, choice.state,
                     std::move(w).take());
  }
  last_target_[done_mask] = choice.state;
  return choice;
}

void EddyRouter::bind_key(const SmallVector<const Tuple*, 8>& members,
                          StreamId target, AttrMask ap,
                          index::ProbeKey& key) const {
  // Query-local JAS positions translate to the (possibly wider)
  // shared-stem positions.
  const StateLayout& layout = query_.layout(target);
  const std::vector<std::uint8_t>& pos_map = position_maps_[target];
  key.mask = 0;
  key.values.clear();
  key.values.resize(stems_[target]->layout().jas.size(), Value{0});
  for_each_bit(ap, [&](unsigned pos) {
    const auto& peer = layout.peers[pos];
    const unsigned stem_pos = pos_map[pos];
    key.mask |= (AttrMask{1} << stem_pos);
    key.values[stem_pos] = members[peer.stream]->at(peer.attr);
  });
}

void EddyRouter::note_truncation(std::uint64_t span, StreamId stream,
                                 std::uint64_t processed) {
  ++truncated_;
  if (telemetry_ == nullptr) return;
  truncated_counter_->add();
  if (span == 0) return;
  telemetry::JsonWriter w;
  w.begin_object();
  w.field("span", span);
  w.field("stage", "truncate");
  w.field("wall_ns", telemetry_->wall_ns());
  w.field("processed", processed);
  w.end_object();
  telemetry_->emit(telemetry::EventKind::kSpan, stream, std::move(w).take());
}

std::uint64_t EddyRouter::route(const Tuple* stored,
                                const ResultCallback* sink) {
  assert(stored != nullptr);
  ++arrivals_;
  const std::uint32_t all = query_.all_streams_mask();
  const std::uint64_t span =
      telemetry_ != nullptr ? telemetry_->active_span() : 0;

  stack_.clear();
  Partial& root = stack_.emplace_back();
  root.done = std::uint32_t{1} << stored->stream;
  root.members.resize(query_.num_streams(), nullptr);
  root.members[stored->stream] = stored;

  // The valve counts every partial taken off the stack; a final hop's
  // matches count as the complete partials they would have pushed.
  std::uint64_t produced = 0;
  std::uint64_t processed = 0;
  index::ProbeKey key;
  auto admit = [&] {
    if (++processed <= options_.max_partials_per_arrival) return true;
    note_truncation(span, stored->stream, processed);
    return false;
  };

  while (!stack_.empty() && admit()) {
    const Partial p = std::move(stack_.back());
    stack_.pop_back();
    if (p.done == all) {  // only a one-stream query's root
      ++produced;
      if (sink != nullptr) (*sink)(JoinResult{p.members});
      continue;
    }

    const auto [target, ap] = decide(p.done, 1);
    bind_key(p.members, target, ap, key);

    // The target STeM's scratch arena: cleared here, capacity retained
    // across arrivals, so the steady-state probe path allocates nothing.
    std::vector<const Tuple*>& matches = stems_[target]->probe_scratch();
    const auto hop_t0 =
        span != 0 ? SteadyClock::now() : SteadyClock::time_point{};
    const auto probe_stats = stems_[target]->probe(key, matches);
    if (span != 0 && telemetry_ != nullptr) {
      emit_hop(*telemetry_, span, p.done, target, ap, 0, 0,
               probe_stats.matches, probe_stats.tuples_compared,
               ns_since(hop_t0));
    }
    stats_.record(target, ap, static_cast<double>(probe_stats.matches),
                  static_cast<double>(probe_stats.tuples_compared));
    keep_visible(query_.selection(target), meter_, matches);

    const std::uint32_t next_done = p.done | (std::uint32_t{1} << target);
    if (next_done != all) {
      for (const Tuple* m : matches) {
        Partial& next = stack_.emplace_back();
        next.done = next_done;
        next.members = p.members;
        next.members[target] = m;
      }
      continue;
    }
    // Final hop: every match completes a result. Deliver them here, in
    // the order the stack would have popped them (latest match first).
    if (sink != nullptr) result_.members = p.members;
    auto it = matches.rbegin();
    for (; it != matches.rend() && admit(); ++it) {
      ++produced;
      if (sink != nullptr) {
        result_.members[target] = *it;
        (*sink)(result_);
      }
    }
    if (it != matches.rend()) break;  // the valve tripped
  }
  results_ += produced;
  if (telemetry_ != nullptr && produced > 0) results_counter_->add(produced);
  return produced;
}

std::uint64_t EddyRouter::route_batch(const Tuple* const* stored,
                                      const std::uint32_t* done, std::size_t n,
                                      const ResultCallback* sink,
                                      std::size_t span_root) {
  if (n == 0) return 0;
  // Single-arrival batches delegate; route() picks the active span up
  // directly, so span_root 0 still traces.
  if (n == 1) return route(stored[0], sink);
  assert(stored != nullptr && done != nullptr);
  arrivals_ += n;
  const std::uint32_t all = query_.all_streams_mask();
  const std::uint64_t span =
      (telemetry_ != nullptr && span_root != kNoSpanRoot)
          ? telemetry_->active_span()
          : 0;

  // Per-arrival valve, route()'s threshold: once an arrival trips it, its
  // count stays at limit + 1 and its remaining partials are dropped.
  const std::uint64_t limit = options_.max_partials_per_arrival;
  std::vector<std::uint64_t> processed(n, 0);
  auto admit = [&](std::uint32_t root) {
    std::uint64_t& count = processed[root];
    if (count > limit) return false;
    if (++count <= limit) return true;
    note_truncation(root == span_root ? span : 0, stored[root]->stream,
                    count);
    return false;
  };

  std::uint64_t produced = 0;
  std::vector<Partial> frontier;
  frontier.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    assert(stored[i] != nullptr);
    Partial& root = frontier.emplace_back();
    root.done = done[i];
    root.root = static_cast<std::uint32_t>(i);
    root.members.resize(query_.num_streams(), nullptr);
    root.members[stored[i]->stream] = stored[i];
  }

  std::vector<Partial> next_level;
  std::vector<std::size_t> live;  // surviving frontier indices, in order
  while (!frontier.empty()) {
    // Consume this level: per-arrival truncation accounting, then emit
    // complete results; the rest is routed below, partitioned on done-mask
    // in first-appearance order. A level holds few distinct masks (all the
    // same popcount), so linear scans beat hashing.
    live.clear();
    SmallVector<std::uint32_t, 8> masks;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const Partial& p = frontier[i];
      if (!admit(p.root)) continue;
      if (p.done == all) {  // a complete root (or a mixed-depth level)
        ++produced;
        if (sink != nullptr) (*sink)(JoinResult{p.members});
        continue;
      }
      live.push_back(i);
      if (std::find(masks.begin(), masks.end(), p.done) == masks.end()) {
        masks.push_back(p.done);
      }
    }
    // Partition g: slots [bounds[g], bounds[g + 1]) of grouped_/batch_*_.
    grouped_.clear();
    SmallVector<std::size_t, 8> bounds{0};
    for (const std::uint32_t mask : masks) {
      for (const std::size_t i : live) {
        if (frontier[i].done == mask) grouped_.push_back(i);
      }
      bounds.push_back(grouped_.size());
    }
    batch_keys_.resize(grouped_.size());
    batch_stats_.assign(grouped_.size(), index::ProbeStats{});
    batch_outs_.resize(std::max(batch_outs_.size(), grouped_.size()));

    SmallVector<StreamId, 8> targets;
    bool final_level = true;  // every hop of this level completes the join
    for (std::size_t g = 0; g < masks.size(); ++g) {
      const std::uint32_t mask = masks[g];
      const std::size_t first = bounds[g];
      const std::size_t k = bounds[g + 1] - first;

      // One routing decision serves the whole partition. The decision
      // cache is still consumed once per partial, so the number of fresh
      // (policy-consulting, route-charged) decisions — and the telemetry
      // decisions counter — match k sequential route() calls exactly.
      const auto [target, ap] = decide(mask, k);
      targets.push_back(target);
      final_level =
          final_level && (mask | (std::uint32_t{1} << target)) == all;

      // Build every partition member's probe key, then probe the target
      // STeM once through its batched path.
      std::uint64_t span_partials = 0;
      for (std::size_t j = first; j < first + k; ++j) {
        const Partial& p = frontier[grouped_[j]];
        bind_key(p.members, target, ap, batch_keys_[j]);
        batch_outs_[j].clear();
        if (span != 0 && p.root == span_root) ++span_partials;
      }
      const auto hop_t0 =
          span_partials > 0 ? SteadyClock::now() : SteadyClock::time_point{};
      stems_[target]->probe_batch(batch_keys_.data() + first, k,
                                  batch_outs_.data() + first,
                                  batch_stats_.data() + first);
      if (span_partials > 0 && telemetry_ != nullptr) {
        const std::int64_t probe_ns = ns_since(hop_t0);
        std::uint64_t span_matches = 0;
        std::uint64_t span_compared = 0;
        for (std::size_t j = first; j < first + k; ++j) {
          if (frontier[grouped_[j]].root != span_root) continue;
          span_matches += batch_stats_[j].matches;
          span_compared += batch_stats_[j].tuples_compared;
        }
        emit_hop(*telemetry_, span, mask, target, ap, k, span_partials,
                 span_matches, span_compared, probe_ns);
      }

      for (std::size_t j = first; j < first + k; ++j) {
        stats_.record(target, ap,
                      static_cast<double>(batch_stats_[j].matches),
                      static_cast<double>(batch_stats_[j].tuples_compared));
        keep_visible(query_.selection(target), meter_, batch_outs_[j]);
      }
    }

    // Expand the level, partition by partition: the next level's frontier
    // order. After a final level the matches are complete results: deliver
    // them now, through the valve, instead of as a level of partials.
    next_level.clear();
    for (std::size_t g = 0; g < masks.size(); ++g) {
      const StreamId target = targets[g];
      for (std::size_t j = bounds[g]; j < bounds[g + 1]; ++j) {
        const Partial& p = frontier[grouped_[j]];
        const std::vector<const Tuple*>& matches = batch_outs_[j];
        if (!final_level) {
          for (const Tuple* m : matches) {
            Partial& next = next_level.emplace_back();
            next.done = p.done | (std::uint32_t{1} << target);
            next.root = p.root;
            next.members = p.members;
            next.members[target] = m;
          }
          continue;
        }
        if (sink != nullptr) result_.members = p.members;
        for (auto it = matches.begin(); it != matches.end() && admit(p.root);
             ++it) {
          ++produced;
          if (sink != nullptr) {
            result_.members[target] = *it;
            (*sink)(result_);
          }
        }
      }
    }
    frontier.swap(next_level);
  }

  results_ += produced;
  if (telemetry_ != nullptr && produced > 0) results_counter_->add(produced);
  return produced;
}

}  // namespace amri::engine
