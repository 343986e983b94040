#include "engine/query.hpp"

#include <cassert>
#include <stdexcept>

namespace amri::engine {

QuerySpec::QuerySpec(std::vector<Schema> schemas,
                     std::vector<JoinPredicate> predicates, TimeMicros window)
    : schemas_(std::move(schemas)),
      predicates_(std::move(predicates)),
      window_(window) {
  // The done-mask (all_streams_mask) is a uint32 with one bit per stream.
  if (schemas_.empty() || schemas_.size() > 31) {
    throw std::invalid_argument("a query joins 1 to 31 streams (got " +
                                std::to_string(schemas_.size()) + ")");
  }
  // Derive each state's JAS: the attributes referenced by predicates, in
  // predicate order, deduplicated.
  layouts_.resize(schemas_.size());
  std::vector<std::vector<AttrId>> jas_attrs(schemas_.size());
  for (const JoinPredicate& p : predicates_) {
    if (p.left_stream >= schemas_.size() || p.right_stream >= schemas_.size()) {
      throw std::invalid_argument("predicate references unknown stream");
    }
    auto add_side = [&](StreamId s, AttrId a, StreamId peer_s, AttrId peer_a) {
      auto& attrs = jas_attrs[s];
      for (std::size_t i = 0; i < attrs.size(); ++i) {
        if (attrs[i] == a) {
          // A join attribute may appear in only one predicate per state;
          // multiple peers for one attribute would make pattern_for
          // ambiguous. The paper's workloads satisfy this.
          if (layouts_[s].peers[i].stream != peer_s ||
              layouts_[s].peers[i].attr != peer_a) {
            throw std::invalid_argument(
                "attribute participates in multiple predicates");
          }
          return;
        }
      }
      attrs.push_back(a);
      layouts_[s].peers.push_back(StateLayout::Peer{peer_s, peer_a});
    };
    add_side(p.left_stream, p.left_attr, p.right_stream, p.right_attr);
    add_side(p.right_stream, p.right_attr, p.left_stream, p.left_attr);
  }
  for (StreamId s = 0; s < schemas_.size(); ++s) {
    layouts_[s].jas = index::JoinAttributeSet(std::move(jas_attrs[s]));
  }
  selections_.resize(schemas_.size());
}

QuerySpec make_complete_join_query(std::size_t k, TimeMicros window) {
  assert(k >= 2);
  // Stream i's attributes: one join attribute per other stream, in order of
  // the peer's id. Attribute index of peer j within stream i:
  // j < i ? j : j - 1.
  auto attr_of = [&](StreamId i, StreamId j) -> AttrId {
    return j < i ? j : j - 1;
  };
  std::vector<Schema> schemas;
  schemas.reserve(k);
  for (StreamId i = 0; i < k; ++i) {
    std::vector<std::string> names;
    for (StreamId j = 0; j < k; ++j) {
      if (j == i) continue;
      names.push_back("j" + std::to_string(std::min(i, j)) +
                      std::to_string(std::max(i, j)));
    }
    schemas.emplace_back("Stream" + std::string(1, static_cast<char>('A' + i)),
                         std::move(names));
  }
  std::vector<JoinPredicate> preds;
  for (StreamId i = 0; i < k; ++i) {
    for (StreamId j = i + 1; j < k; ++j) {
      preds.push_back(JoinPredicate{i, attr_of(i, j), j, attr_of(j, i)});
    }
  }
  return QuerySpec(std::move(schemas), std::move(preds), window);
}

}  // namespace amri::engine
