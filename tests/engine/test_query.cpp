#include "engine/query.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace amri::engine {
namespace {

TEST(QuerySpec, CompleteJoinQueryShape) {
  const QuerySpec q = make_complete_join_query(4, seconds_to_micros(10));
  EXPECT_EQ(q.num_streams(), 4u);
  EXPECT_EQ(q.predicates().size(), 6u);  // K4: C(4,2)
  EXPECT_EQ(q.window(), seconds_to_micros(10));
  EXPECT_EQ(q.all_streams_mask(), 0b1111u);
  for (StreamId s = 0; s < 4; ++s) {
    EXPECT_EQ(q.schema(s).num_attrs(), 3u);
    EXPECT_EQ(q.layout(s).jas.size(), 3u);  // 3 join attrs per state
  }
}

TEST(QuerySpec, PairedAttributeNamesMatch) {
  const QuerySpec q = make_complete_join_query(3, 1000);
  // Predicate between streams i<j uses attribute "jij" on both sides.
  for (const JoinPredicate& p : q.predicates()) {
    EXPECT_EQ(q.schema(p.left_stream).attr_name(p.left_attr),
              q.schema(p.right_stream).attr_name(p.right_attr));
  }
}

TEST(QuerySpec, LayoutPeersPointBack) {
  const QuerySpec q = make_complete_join_query(4, 1000);
  for (StreamId s = 0; s < 4; ++s) {
    const StateLayout& layout = q.layout(s);
    for (std::size_t p = 0; p < layout.peers.size(); ++p) {
      const auto& peer = layout.peers[p];
      EXPECT_NE(peer.stream, s);
      // The peer's layout must reference us symmetrically.
      const StateLayout& peer_layout = q.layout(peer.stream);
      const std::size_t back = peer_layout.jas.position_of(peer.attr);
      ASSERT_LT(back, peer_layout.jas.size());
      EXPECT_EQ(peer_layout.peers[back].stream, s);
      EXPECT_EQ(peer_layout.peers[back].attr, layout.jas.tuple_attr(p));
    }
  }
}

TEST(QuerySpec, PatternForDoneMask) {
  const QuerySpec q = make_complete_join_query(4, 1000);
  // State 3's JAS positions peer with streams 0, 1, 2 in order.
  const StateLayout& l3 = q.layout(3);
  EXPECT_EQ(l3.pattern_for(0b0001), 0b001u);  // only stream 0 joined
  EXPECT_EQ(l3.pattern_for(0b0011), 0b011u);  // streams 0 and 1
  EXPECT_EQ(l3.pattern_for(0b0111), 0b111u);  // all three peers
  EXPECT_EQ(l3.pattern_for(0b1000), 0u);      // only itself: nothing binds
}

TEST(QuerySpec, TwoStreamQuery) {
  const QuerySpec q = make_complete_join_query(2, 500);
  EXPECT_EQ(q.predicates().size(), 1u);
  EXPECT_EQ(q.layout(0).jas.size(), 1u);
  EXPECT_EQ(q.layout(1).pattern_for(0b01), 0b1u);
}

TEST(QuerySpec, CustomPredicates) {
  std::vector<Schema> schemas = {
      Schema("S", {"x", "y"}),
      Schema("T", {"u"}),
  };
  std::vector<JoinPredicate> preds = {{0, 1, 1, 0}};  // S.y == T.u
  const QuerySpec q(std::move(schemas), std::move(preds), 100);
  EXPECT_EQ(q.layout(0).jas.size(), 1u);
  EXPECT_EQ(q.layout(0).jas.tuple_attr(0), 1u);
  EXPECT_EQ(q.layout(1).jas.tuple_attr(0), 0u);
}

TEST(QuerySpec, RejectsUnknownStream) {
  std::vector<Schema> schemas = {Schema("S", {"x"})};
  std::vector<JoinPredicate> preds = {{0, 0, 5, 0}};
  EXPECT_THROW(QuerySpec(std::move(schemas), std::move(preds), 1),
               std::invalid_argument);
}

TEST(QuerySpec, RejectsAttributeInTwoPredicates) {
  std::vector<Schema> schemas = {
      Schema("A", {"x"}), Schema("B", {"y"}), Schema("C", {"z"})};
  // A.x joins both B.y and C.z: ambiguous peer for A's position 0.
  std::vector<JoinPredicate> preds = {{0, 0, 1, 0}, {0, 0, 2, 0}};
  EXPECT_THROW(QuerySpec(std::move(schemas), std::move(preds), 1),
               std::invalid_argument);
}

std::vector<Schema> numbered_schemas(std::size_t n) {
  std::vector<Schema> schemas;
  for (std::size_t i = 0; i < n; ++i) {
    schemas.emplace_back("S" + std::to_string(i),
                         std::vector<std::string>{"x"});
  }
  return schemas;
}

TEST(QuerySpec, StreamCountIsCheckedInReleaseBuilds) {
  // The done-mask is a uint32: 31 streams is the widest query, and the
  // check must hold with NDEBUG too (32 would shift a uint32 by 32).
  const QuerySpec widest(numbered_schemas(31), {}, 1);
  EXPECT_EQ(widest.num_streams(), 31u);
  EXPECT_EQ(widest.all_streams_mask(), 0x7fffffffu);
  EXPECT_THROW(QuerySpec(numbered_schemas(32), {}, 1), std::invalid_argument);
  EXPECT_THROW(QuerySpec(numbered_schemas(0), {}, 1), std::invalid_argument);
}

TEST(QuerySpec, DuplicatePredicateIsIdempotent) {
  std::vector<Schema> schemas = {Schema("A", {"x"}), Schema("B", {"y"})};
  std::vector<JoinPredicate> preds = {{0, 0, 1, 0}, {0, 0, 1, 0}};
  const QuerySpec q(std::move(schemas), std::move(preds), 1);
  EXPECT_EQ(q.layout(0).jas.size(), 1u);
}

}  // namespace
}  // namespace amri::engine
