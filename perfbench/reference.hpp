// The benchmark's own reference join and the gate that compares the engine
// against it. The reference shares nothing with the engine's router,
// indexes or tuner: it keeps each stream's window as a FIFO plus one
// value -> tuples bucket map per join attribute, and for every arrival
// enumerates each complete combination that contains it. A result is
// counted when its last member arrives, with the engine's window rule
// (a tuple is live while its timestamp is >= now - window).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/tuple.hpp"
#include "engine/query.hpp"

namespace perfbench {

/// Results of `query` over `arrivals` (timestamp-ordered). Arrivals that
/// fail the query's WHERE selection are neither stored nor joined.
inline std::uint64_t reference_join_count(
    const amri::engine::QuerySpec& query,
    const std::vector<amri::Tuple>& arrivals) {
  using amri::AttrId;
  using amri::StreamId;
  using amri::Tuple;
  using amri::Value;
  using Bucket = std::deque<const Tuple*>;
  const std::size_t k = query.num_streams();
  const auto& preds = query.predicates();

  struct Window {
    std::deque<Tuple> tuples;  // deque: push/pop at the ends keep pointers
    std::unordered_map<AttrId, std::unordered_map<Value, Bucket>> by_attr;
  };
  std::vector<Window> windows(k);
  for (const auto& p : preds) {
    windows[p.left_stream].by_attr[p.left_attr];
    windows[p.right_stream].by_attr[p.right_attr];
  }

  std::uint64_t results = 0;
  std::vector<const Tuple*> pick(k, nullptr);
  std::vector<StreamId> order;
  for (const Tuple& t : arrivals) {
    for (Window& w : windows) {
      while (!w.tuples.empty() &&
             w.tuples.front().ts < t.ts - query.window()) {
        const Tuple& old = w.tuples.front();
        for (auto& [attr, buckets] : w.by_attr) {
          auto it = buckets.find(old.at(attr));
          it->second.pop_front();  // FIFO within a bucket too
          if (it->second.empty()) buckets.erase(it);
        }
        w.tuples.pop_front();
      }
    }
    if (!query.selection(t.stream).matches(t)) continue;
    Window& own = windows[t.stream];
    own.tuples.push_back(t);
    const Tuple* stored = &own.tuples.back();
    for (auto& [attr, buckets] : own.by_attr) {
      buckets[stored->at(attr)].push_back(stored);
    }

    // Visit the other streams in an order where each one (when the join
    // graph allows) is reached through a predicate to a stream already
    // picked, so its candidates come from one bucket, not the window.
    order.assign(1, t.stream);
    std::vector<bool> placed(k, false);
    placed[t.stream] = true;
    while (order.size() < k) {
      StreamId next = static_cast<StreamId>(k);
      for (const auto& p : preds) {
        if (placed[p.left_stream] != placed[p.right_stream]) {
          next = placed[p.left_stream] ? p.right_stream : p.left_stream;
          break;
        }
      }
      if (next == k) {  // disconnected: take the first unplaced stream
        for (StreamId s = 0; s < k; ++s) {
          if (!placed[s]) { next = s; break; }
        }
      }
      placed[next] = true;
      order.push_back(next);
    }

    std::fill(pick.begin(), pick.end(), nullptr);
    pick[t.stream] = stored;
    auto consistent = [&](StreamId s) {
      for (const auto& p : preds) {
        if (p.left_stream != s && p.right_stream != s) continue;
        const Tuple* l = pick[p.left_stream];
        const Tuple* r = pick[p.right_stream];
        if (l != nullptr && r != nullptr &&
            l->at(p.left_attr) != r->at(p.right_attr)) {
          return false;
        }
      }
      return true;
    };
    auto visit = [&](auto& self, std::size_t level) -> void {
      if (level == k) {
        ++results;
        return;
      }
      const StreamId s = order[level];
      const Window& w = windows[s];
      auto try_one = [&](const Tuple* cand) {
        pick[s] = cand;
        if (consistent(s)) self(self, level + 1);
        pick[s] = nullptr;
      };
      for (const auto& p : preds) {
        const bool left_new = p.left_stream == s && pick[p.right_stream];
        const bool right_new = p.right_stream == s && pick[p.left_stream];
        if (!left_new && !right_new) continue;
        const AttrId attr = left_new ? p.left_attr : p.right_attr;
        const Value key = left_new ? pick[p.right_stream]->at(p.right_attr)
                                   : pick[p.left_stream]->at(p.left_attr);
        const auto& buckets = w.by_attr.at(attr);
        const auto it = buckets.find(key);
        if (it == buckets.end()) return;
        for (const Tuple* c : it->second) try_one(c);
        return;
      }
      for (const Tuple& c : w.tuples) try_one(&c);
    };
    visit(visit, 1);
  }
  return results;
}

/// The correctness gate: `engine_counts[q]` is the engine's result count
/// for query q over `prefix`, run with every modelled cost at zero so the
/// virtual clock never lags an arrival. Exact equality with the reference
/// is the contract in that regime. Returns one line per mismatch; empty
/// means the gate passes.
inline std::vector<std::string> gate_mismatches(
    const std::vector<amri::engine::QuerySpec>& queries,
    const std::vector<std::uint64_t>& engine_counts,
    const std::vector<amri::Tuple>& prefix) {
  std::vector<std::string> out;
  if (engine_counts.size() != queries.size()) {
    out.push_back("engine reported " + std::to_string(engine_counts.size()) +
                  " query counts for " + std::to_string(queries.size()) +
                  " queries");
    return out;
  }
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const std::uint64_t want = reference_join_count(queries[q], prefix);
    if (engine_counts[q] != want) {
      out.push_back("query " + std::to_string(q) + ": engine " +
                    std::to_string(engine_counts[q]) + " != reference " +
                    std::to_string(want));
    }
  }
  return out;
}

}  // namespace perfbench
