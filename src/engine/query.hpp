// SPJ query specification (paper §II): select-project-join over multiple
// streams with sliding-window semantics. A state is instantiated per stream
// in the FROM clause; equi-join predicates in the WHERE clause induce each
// state's join attribute set (JAS).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/tuple.hpp"
#include "common/types.hpp"
#include "engine/operators.hpp"
#include "index/access_pattern.hpp"

namespace amri::engine {

/// One equi-join predicate: left.attr == right.attr.
struct JoinPredicate {
  StreamId left_stream = 0;
  AttrId left_attr = 0;
  StreamId right_stream = 0;
  AttrId right_attr = 0;
};

/// Per-state layout derived from the query: the state's JAS plus, for each
/// JAS position, the peer (stream, attribute) whose value binds it when a
/// partial result containing that peer stream probes this state.
struct StateLayout {
  struct Peer {
    StreamId stream = 0;
    AttrId attr = 0;
  };
  index::JoinAttributeSet jas;
  std::vector<Peer> peers;  ///< parallel to jas positions

  /// Access-pattern mask available when probing from a partial result that
  /// has joined the streams in `done_mask` (bit i = stream i present).
  AttrMask pattern_for(std::uint32_t done_mask) const {
    AttrMask ap = 0;
    for (std::size_t p = 0; p < peers.size(); ++p) {
      if ((done_mask >> peers[p].stream) & 1u) {
        ap |= (AttrMask{1} << p);
      }
    }
    return ap;
  }
};

/// The query: schemas (one per stream, StreamId = index) + join predicates
/// + a single sliding window length applied to every stream (the paper's
/// default-window-length template).
class QuerySpec {
 public:
  /// Throws std::invalid_argument unless 1 <= schemas.size() <= 31 (the
  /// done-mask is a uint32), when a predicate names an unknown stream, or
  /// when one attribute joins two different peers.
  QuerySpec(std::vector<Schema> schemas, std::vector<JoinPredicate> predicates,
            TimeMicros window);

  std::size_t num_streams() const { return schemas_.size(); }
  const Schema& schema(StreamId s) const { return schemas_[s]; }
  const std::vector<JoinPredicate>& predicates() const { return predicates_; }
  TimeMicros window() const { return window_; }

  /// Layout of the state for stream `s`.
  const StateLayout& layout(StreamId s) const { return layouts_[s]; }

  /// Bitmask with one bit per stream, all set.
  std::uint32_t all_streams_mask() const {
    return (std::uint32_t{1} << schemas_.size()) - 1;
  }

  /// WHERE-clause constant filters for stream `s` (empty by default).
  const Selection& selection(StreamId s) const { return selections_[s]; }
  void set_selection(StreamId s, Selection sel) {
    selections_[s] = std::move(sel);
  }

  /// SELECT-clause projection (SELECT * by default).
  const Projection& projection() const { return projection_; }
  void set_projection(Projection p) { projection_ = std::move(p); }

 private:
  std::vector<Schema> schemas_;
  std::vector<JoinPredicate> predicates_;
  TimeMicros window_;
  std::vector<StateLayout> layouts_;
  std::vector<Selection> selections_;
  Projection projection_;
};

/// Convenience builder for the paper's evaluation query: `k` streams, every
/// pair joined on a dedicated attribute (complete join graph). Each stream
/// has k-1 join attributes; attribute j of stream i joins stream j (skipping
/// self). Attribute naming: "j<i><j>" on both sides.
QuerySpec make_complete_join_query(std::size_t k, TimeMicros window);

}  // namespace amri::engine
