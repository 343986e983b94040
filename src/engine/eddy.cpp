#include "engine/eddy.hpp"

#include <cassert>
#include <chrono>

#include "telemetry/json.hpp"

namespace amri::engine {

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

void EddyRouter::note_decision(std::uint32_t done_mask, StreamId target,
                               std::uint64_t count) {
  if (telemetry_ == nullptr) return;  // counters resolve with telemetry
  decisions_counter_->add(count);
  const auto it = last_target_.find(done_mask);
  if (it != last_target_.end() && it->second == target) return;
  const bool had_previous = it != last_target_.end();
  if (had_previous) {
    route_change_counter_->add();
    telemetry::JsonWriter w;
    w.begin_object();
    w.field("done_mask", static_cast<std::uint64_t>(done_mask));
    w.field("from", static_cast<std::uint64_t>(it->second));
    w.field("to", static_cast<std::uint64_t>(target));
    w.end_object();
    telemetry_->emit(telemetry::EventKind::kRoutingChange, target,
                     std::move(w).take());
  }
  last_target_[done_mask] = target;
}

std::uint64_t EddyRouter::route(const Tuple* stored,
                                std::vector<JoinResult>* sink) {
  assert(stored != nullptr);
  ++arrivals_;
  const std::uint32_t all = query_.all_streams_mask();
  const std::uint64_t span =
      telemetry_ != nullptr ? telemetry_->active_span() : 0;

  Partial root;
  root.done = std::uint32_t{1} << stored->stream;
  root.members.resize(query_.num_streams(), nullptr);
  root.members[stored->stream] = stored;

  std::uint64_t produced = 0;
  std::size_t processed = 0;
  std::vector<Partial> stack;
  stack.push_back(std::move(root));

  while (!stack.empty()) {
    if (++processed > options_.max_partials_per_arrival) {
      ++truncated_;
      if (span != 0) {
        telemetry::JsonWriter w;
        w.begin_object();
        w.field("span", span);
        w.field("stage", "truncate");
        w.field("wall_ns", telemetry_->wall_ns());
        w.field("processed", static_cast<std::uint64_t>(processed));
        w.end_object();
        telemetry_->emit(telemetry::EventKind::kSpan, stored->stream,
                         std::move(w).take());
      }
      break;
    }
    Partial p = std::move(stack.back());
    stack.pop_back();
    if (p.done == all) {
      ++produced;
      if (sink != nullptr) {
        JoinResult r;
        r.members = p.members;
        sink->push_back(std::move(r));
      }
      continue;
    }

    // Candidate next states and the access pattern each would see.
    RoutingContext ctx;
    ctx.done_mask = p.done;
    for (StreamId s = 0; s < query_.num_streams(); ++s) {
      if ((p.done >> s) & 1u) continue;
      ctx.candidates.push_back(RoutingContext::Candidate{
          s, query_.layout(s).pattern_for(p.done)});
    }
    assert(!ctx.candidates.empty());
    // Batch routing: reuse the cached decision for this done-mask while
    // its batch lasts; only fresh decisions consult the policy (and pay
    // the routing cost).
    std::size_t pick;
    bool fresh_decision = false;
    if (options_.decision_reuse > 1) {
      auto& cached = decision_cache_[p.done];
      if (cached.remaining == 0) {
        cached.pick = policy_->choose(ctx, stats_);
        cached.remaining = options_.decision_reuse;
        fresh_decision = true;
        if (meter_ != nullptr) meter_->charge_route();
      }
      pick = std::min(cached.pick, ctx.candidates.size() - 1);
      --cached.remaining;
    } else {
      pick = policy_->choose(ctx, stats_);
      fresh_decision = true;
      if (meter_ != nullptr) meter_->charge_route();
    }
    const StreamId target = ctx.candidates[pick].state;
    const AttrMask ap = ctx.candidates[pick].pattern;
    if (telemetry_ != nullptr && fresh_decision) note_decision(p.done, target);

    // Bind every available join attribute of the target state,
    // translating query-local JAS positions to the (possibly wider)
    // shared-stem positions.
    const StateLayout& layout = query_.layout(target);
    const std::vector<std::uint8_t>& pos_map = position_maps_[target];
    index::ProbeKey key;
    key.values.resize(stems_[target]->layout().jas.size(), Value{0});
    for_each_bit(ap, [&](unsigned pos) {
      const auto& peer = layout.peers[pos];
      const unsigned stem_pos = pos_map[pos];
      key.mask |= (AttrMask{1} << stem_pos);
      key.values[stem_pos] = p.members[peer.stream]->at(peer.attr);
    });

    // The target STeM's scratch arena: cleared here, capacity retained
    // across arrivals, so the steady-state probe path allocates nothing.
    std::vector<const Tuple*>& matches = stems_[target]->probe_scratch();
    std::chrono::steady_clock::time_point hop_t0{};
    if (span != 0) hop_t0 = std::chrono::steady_clock::now();
    const auto probe_stats = stems_[target]->probe(key, matches);
    if (span != 0 && telemetry_ != nullptr) {
      const auto probe_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - hop_t0)
              .count();
      telemetry::JsonWriter w;
      w.begin_object();
      w.field("span", span);
      w.field("stage", "hop");
      w.field("wall_ns", telemetry_->wall_ns());
      w.field("done_mask", static_cast<std::uint64_t>(p.done));
      w.field("target", static_cast<std::uint64_t>(target));
      w.field("ap", static_cast<std::uint64_t>(ap));
      w.field("matches", static_cast<std::uint64_t>(probe_stats.matches));
      w.field("compared",
              static_cast<std::uint64_t>(probe_stats.tuples_compared));
      w.field("probe_ns", static_cast<std::uint64_t>(probe_ns));
      w.end_object();
      telemetry_->emit(telemetry::EventKind::kSpan, target,
                       std::move(w).take());
    }
    stats_.record(target, ap, static_cast<double>(probe_stats.matches),
                  static_cast<double>(probe_stats.tuples_compared));

    // Multi-query visibility: a shared state stores any tuple some query
    // accepted, so this query's WHERE selection must re-verify matches.
    // (Single-query states only hold pre-filtered tuples; the selection is
    // empty or trivially true there, so this is skipped.)
    const Selection& visibility = query_.selection(target);
    if (!visibility.empty()) {
      std::size_t kept = 0;
      for (const Tuple* m : matches) {
        if (visibility.matches(*m, meter_)) matches[kept++] = m;
      }
      matches.resize(kept);
    }

    for (const Tuple* m : matches) {
      Partial next;
      next.done = p.done | (std::uint32_t{1} << target);
      next.members = p.members;
      next.members[target] = m;
      stack.push_back(std::move(next));
    }
  }
  results_ += produced;
  if (telemetry_ != nullptr) {
    if (produced > 0) results_counter_->add(produced);
    if (processed > options_.max_partials_per_arrival) {
      truncated_counter_->add();
    }
  }
  return produced;
}

std::uint64_t EddyRouter::route_batch(const Tuple* const* stored,
                                      const std::uint32_t* done, std::size_t n,
                                      std::vector<JoinResult>* sink,
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

  // A partial tagged with the arrival that rooted it, so the per-arrival
  // truncation valve keeps its exact sequential threshold.
  struct BatchPartial {
    std::uint32_t done = 0;
    std::uint32_t root = 0;  ///< index into the routed array
    SmallVector<const Tuple*, 8> members;
  };

  std::uint64_t produced = 0;
  std::vector<std::uint64_t> processed(n, 0);
  std::vector<bool> truncated(n, false);
  std::vector<BatchPartial> frontier;
  frontier.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    assert(stored[i] != nullptr);
    BatchPartial root;
    root.done = done[i];
    root.root = static_cast<std::uint32_t>(i);
    root.members.resize(query_.num_streams(), nullptr);
    root.members[stored[i]->stream] = stored[i];
    frontier.push_back(std::move(root));
  }

  std::vector<BatchPartial> next_level;
  std::vector<std::size_t> live;  // surviving frontier indices, in order
  while (!frontier.empty()) {
    // Consume this level: per-arrival truncation accounting, then emit
    // complete results; the rest is routed below.
    live.clear();
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      BatchPartial& p = frontier[i];
      if (truncated[p.root]) continue;  // valve already tripped for it
      if (++processed[p.root] > options_.max_partials_per_arrival) {
        truncated[p.root] = true;
        ++truncated_;
        if (telemetry_ != nullptr) truncated_counter_->add();
        if (span != 0 && p.root == span_root) {
          telemetry::JsonWriter w;
          w.begin_object();
          w.field("span", span);
          w.field("stage", "truncate");
          w.field("wall_ns", telemetry_->wall_ns());
          w.field("processed", processed[p.root]);
          w.end_object();
          telemetry_->emit(telemetry::EventKind::kSpan,
                           stored[p.root]->stream, std::move(w).take());
        }
        continue;
      }
      if (p.done == all) {
        ++produced;
        if (sink != nullptr) {
          JoinResult r;
          r.members = p.members;
          sink->push_back(std::move(r));
        }
        continue;
      }
      live.push_back(i);
    }

    // Partition the survivors on done-mask, first-appearance order. A
    // level holds few distinct masks (all the same popcount), so a linear
    // scan beats hashing.
    SmallVector<std::uint32_t, 8> masks;
    std::vector<std::vector<std::size_t>> members_of;
    for (const std::size_t i : live) {
      const std::uint32_t mask = frontier[i].done;
      std::size_t g = 0;
      while (g < masks.size() && masks[g] != mask) ++g;
      if (g == masks.size()) {
        masks.push_back(mask);
        members_of.emplace_back();
      }
      members_of[g].push_back(i);
    }

    next_level.clear();
    for (std::size_t g = 0; g < masks.size(); ++g) {
      const std::uint32_t mask = masks[g];
      const std::vector<std::size_t>& part = members_of[g];
      const std::uint64_t k = part.size();

      RoutingContext ctx;
      ctx.done_mask = mask;
      for (StreamId s = 0; s < query_.num_streams(); ++s) {
        if ((mask >> s) & 1u) continue;
        ctx.candidates.push_back(
            RoutingContext::Candidate{s, query_.layout(s).pattern_for(mask)});
      }
      assert(!ctx.candidates.empty());

      // One routing decision serves the whole partition. The decision
      // cache is still consumed once per partial, so the number of fresh
      // (policy-consulting, route-charged) decisions — and the telemetry
      // decisions counter — match k sequential route() calls exactly.
      std::size_t pick;
      std::uint64_t fresh = 0;
      if (options_.decision_reuse > 1) {
        auto& cached = decision_cache_[mask];
        std::uint64_t consumed = 0;
        while (consumed < k) {
          if (cached.remaining == 0) {
            cached.pick = policy_->choose(ctx, stats_);
            cached.remaining = options_.decision_reuse;
            ++fresh;
          }
          const std::uint64_t take =
              std::min<std::uint64_t>(cached.remaining, k - consumed);
          cached.remaining -= take;
          consumed += take;
        }
        pick = std::min(cached.pick, ctx.candidates.size() - 1);
      } else {
        pick = policy_->choose(ctx, stats_);
        fresh = k;  // tuple-at-a-time consults the policy per partial
      }
      if (meter_ != nullptr && fresh > 0) meter_->charge_route(fresh);
      const StreamId target = ctx.candidates[pick].state;
      const AttrMask ap = ctx.candidates[pick].pattern;
      if (telemetry_ != nullptr && fresh > 0) {
        note_decision(mask, target, fresh);
      }

      // Build every partition member's probe key, then probe the target
      // STeM once through its batched path.
      const StateLayout& layout = query_.layout(target);
      const std::vector<std::uint8_t>& pos_map = position_maps_[target];
      const std::size_t stem_width = stems_[target]->layout().jas.size();
      batch_keys_.assign(part.size(), index::ProbeKey{});
      batch_stats_.assign(part.size(), index::ProbeStats{});
      if (batch_outs_.size() < part.size()) batch_outs_.resize(part.size());
      for (std::size_t j = 0; j < part.size(); ++j) {
        const BatchPartial& p = frontier[part[j]];
        index::ProbeKey& key = batch_keys_[j];
        key.values.resize(stem_width, Value{0});
        for_each_bit(ap, [&](unsigned pos) {
          const auto& peer = layout.peers[pos];
          const unsigned stem_pos = pos_map[pos];
          key.mask |= (AttrMask{1} << stem_pos);
          key.values[stem_pos] = p.members[peer.stream]->at(peer.attr);
        });
        batch_outs_[j].clear();
      }
      std::uint64_t span_partials = 0;
      if (span != 0) {
        for (const std::size_t i : part) {
          if (frontier[i].root == span_root) ++span_partials;
        }
      }
      std::chrono::steady_clock::time_point hop_t0{};
      if (span_partials > 0) hop_t0 = std::chrono::steady_clock::now();
      stems_[target]->probe_batch(batch_keys_.data(), part.size(),
                                  batch_outs_.data(), batch_stats_.data());
      if (span_partials > 0 && telemetry_ != nullptr) {
        const auto probe_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - hop_t0)
                .count();
        std::uint64_t span_matches = 0;
        std::uint64_t span_compared = 0;
        for (std::size_t j = 0; j < part.size(); ++j) {
          if (frontier[part[j]].root != span_root) continue;
          span_matches += batch_stats_[j].matches;
          span_compared += batch_stats_[j].tuples_compared;
        }
        telemetry::JsonWriter w;
        w.begin_object();
        w.field("span", span);
        w.field("stage", "hop");
        w.field("wall_ns", telemetry_->wall_ns());
        w.field("done_mask", static_cast<std::uint64_t>(mask));
        w.field("target", static_cast<std::uint64_t>(target));
        w.field("ap", static_cast<std::uint64_t>(ap));
        w.field("partition", k);
        w.field("span_partials", span_partials);
        w.field("matches", span_matches);
        w.field("compared", span_compared);
        w.field("probe_ns", static_cast<std::uint64_t>(probe_ns));
        w.end_object();
        telemetry_->emit(telemetry::EventKind::kSpan, target,
                         std::move(w).take());
      }

      const Selection& selection = query_.selection(target);
      for (std::size_t j = 0; j < part.size(); ++j) {
        const BatchPartial& p = frontier[part[j]];
        std::vector<const Tuple*>& matches = batch_outs_[j];
        stats_.record(target, ap,
                      static_cast<double>(batch_stats_[j].matches),
                      static_cast<double>(batch_stats_[j].tuples_compared));
        if (!selection.empty()) {
          std::size_t kept = 0;
          for (const Tuple* m : matches) {
            if (selection.matches(*m, meter_)) matches[kept++] = m;
          }
          matches.resize(kept);
        }
        for (const Tuple* m : matches) {
          BatchPartial next;
          next.done = p.done | (std::uint32_t{1} << target);
          next.root = p.root;
          next.members = p.members;
          next.members[target] = m;
          next_level.push_back(std::move(next));
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
