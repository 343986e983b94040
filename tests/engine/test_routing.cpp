#include "engine/routing_policy.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>

namespace amri::engine {
namespace {

RoutingContext two_candidates() {
  RoutingContext ctx;
  ctx.done_mask = 0b0001;
  ctx.candidates.push_back({1, 0b001});
  ctx.candidates.push_back({2, 0b001});
  return ctx;
}

TEST(RoutingStatistics, RecordAndFind) {
  RoutingStatistics stats;
  EXPECT_EQ(stats.find(1, 0b01), nullptr);
  stats.record(1, 0b01, 3.0, 50.0);
  const RouteStats* rs = stats.find(1, 0b01);
  ASSERT_NE(rs, nullptr);
  EXPECT_DOUBLE_EQ(rs->matches.value(), 3.0);
  EXPECT_DOUBLE_EQ(rs->compares.value(), 50.0);
  EXPECT_EQ(stats.size(), 1u);
}

TEST(RoutingStatistics, KeysSeparateStateAndPattern) {
  RoutingStatistics stats;
  stats.record(1, 0b01, 1.0, 1.0);
  stats.record(1, 0b10, 2.0, 2.0);
  stats.record(2, 0b01, 3.0, 3.0);
  EXPECT_EQ(stats.size(), 3u);
  EXPECT_DOUBLE_EQ(stats.find(2, 0b01)->matches.value(), 3.0);
}

TEST(FixedPolicy, AlwaysLowestStreamId) {
  RoutingOptions opts;
  opts.kind = RoutingPolicyKind::kFixed;
  const auto policy = make_routing_policy(opts);
  RoutingContext ctx;
  ctx.candidates.push_back({3, 0});
  ctx.candidates.push_back({1, 0});
  ctx.candidates.push_back({2, 0});
  RoutingStatistics stats;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(policy->choose(ctx, stats), 1u);  // stream 1 at index 1
  }
}

TEST(CostBasedPolicy, PrefersCheaperOperator) {
  RoutingOptions opts;
  opts.kind = RoutingPolicyKind::kCostBased;
  opts.exploration_rate = 0.0;
  const auto policy = make_routing_policy(opts);
  RoutingStatistics stats;
  stats.record(1, 0b001, 10.0, 500.0);  // expensive, high fanout
  stats.record(2, 0b001, 0.5, 20.0);    // cheap, selective
  const RoutingContext ctx = two_candidates();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(ctx.candidates[policy->choose(ctx, stats)].state, 2u);
  }
}

TEST(CostBasedPolicy, ExplorationVisitsSuboptimal) {
  RoutingOptions opts;
  opts.kind = RoutingPolicyKind::kCostBased;
  opts.exploration_rate = 0.3;
  opts.seed = 11;
  const auto policy = make_routing_policy(opts);
  RoutingStatistics stats;
  stats.record(1, 0b001, 10.0, 500.0);
  stats.record(2, 0b001, 0.5, 20.0);
  const RoutingContext ctx = two_candidates();
  std::map<StreamId, int> picks;
  for (int i = 0; i < 2000; ++i) {
    ++picks[ctx.candidates[policy->choose(ctx, stats)].state];
  }
  EXPECT_GT(picks[1], 100);   // suboptimal still visited (stat refresh)
  EXPECT_GT(picks[2], 1500);  // optimal dominates
}

TEST(CostBasedPolicy, UnknownPatternsPreferMoreBoundAttrs) {
  RoutingOptions opts;
  opts.kind = RoutingPolicyKind::kCostBased;
  opts.exploration_rate = 0.0;
  const auto policy = make_routing_policy(opts);
  RoutingStatistics stats;  // empty: no observations at all
  RoutingContext ctx;
  ctx.candidates.push_back({1, 0b001});   // binds 1 attr
  ctx.candidates.push_back({2, 0b011});   // binds 2 attrs
  EXPECT_EQ(ctx.candidates[policy->choose(ctx, stats)].state, 2u);
}

TEST(LotteryPolicy, FavorsSelectiveOperatorsStatistically) {
  RoutingOptions opts;
  opts.kind = RoutingPolicyKind::kLottery;
  opts.exploration_rate = 0.0;
  opts.seed = 17;
  const auto policy = make_routing_policy(opts);
  RoutingStatistics stats;
  stats.record(1, 0b001, 9.9, 100.0);  // fanout ~10
  stats.record(2, 0b001, 0.1, 100.0);  // fanout ~0.1
  const RoutingContext ctx = two_candidates();
  std::map<StreamId, int> picks;
  for (int i = 0; i < 5000; ++i) {
    ++picks[ctx.candidates[policy->choose(ctx, stats)].state];
  }
  // Ticket ratio = (1/0.2) : (1/10) = 25 : 0.5 -> state 2 overwhelmingly.
  EXPECT_GT(picks[2], picks[1] * 5);
  EXPECT_GT(picks[1], 0);  // but state 1 still drawn sometimes
}

// Pins the exact choice sequence of a seeded lottery policy over fixed
// statistics, covering both its exploration draw and its ticket draw. How
// choose() stores its tickets may change; every draw must stay
// bit-identical.
TEST(LotteryPolicy, SeededChoiceSequenceIsPinned) {
  RoutingOptions opts;
  opts.kind = RoutingPolicyKind::kLottery;
  opts.exploration_rate = 0.1;
  opts.seed = 23;
  const auto policy = make_routing_policy(opts);
  RoutingStatistics stats;
  stats.record(1, 0b001, 3.0, 40.0);
  stats.record(2, 0b011, 0.25, 10.0);
  stats.record(3, 0b001, 12.0, 90.0);
  RoutingContext ctx;
  ctx.candidates.push_back({1, 0b001});
  ctx.candidates.push_back({2, 0b011});
  ctx.candidates.push_back({3, 0b001});
  ctx.candidates.push_back({4, 0b101});  // no statistics: fan-out 1
  std::map<std::size_t, int> picks;
  std::uint64_t hash = 14695981039346656037ULL;  // FNV-1a over the choices
  for (int i = 0; i < 1000; ++i) {
    const std::size_t c = policy->choose(ctx, stats);
    ++picks[c];
    hash = (hash ^ c) * 1099511628211ULL;
  }
  EXPECT_EQ(picks.size(), 4u);  // every candidate drawn at least once
  EXPECT_EQ(hash, 11575528671549758783ULL);
}

TEST(Policies, SingleCandidateAlwaysChosen) {
  for (const auto kind : {RoutingPolicyKind::kFixed,
                          RoutingPolicyKind::kCostBased,
                          RoutingPolicyKind::kLottery}) {
    RoutingOptions opts;
    opts.kind = kind;
    const auto policy = make_routing_policy(opts);
    RoutingContext ctx;
    ctx.candidates.push_back({7, 0b11});
    RoutingStatistics stats;
    EXPECT_EQ(policy->choose(ctx, stats), 0u) << policy->name();
  }
}

TEST(Policies, Names) {
  RoutingOptions opts;
  opts.kind = RoutingPolicyKind::kFixed;
  EXPECT_EQ(make_routing_policy(opts)->name(), "fixed");
  opts.kind = RoutingPolicyKind::kCostBased;
  EXPECT_EQ(make_routing_policy(opts)->name(), "cost_based");
  opts.kind = RoutingPolicyKind::kLottery;
  EXPECT_EQ(make_routing_policy(opts)->name(), "lottery");
}

}  // namespace
}  // namespace amri::engine
