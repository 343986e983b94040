#include "engine/aggregate.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"

namespace amri::engine {
namespace {

JoinResult make_result(const Tuple* a, const Tuple* b) {
  JoinResult r;
  r.members.push_back(a);
  r.members.push_back(b);
  return r;
}

TEST(AggregateSink, CountGlobal) {
  const Tuple a = testutil::make_tuple({1});
  const Tuple b = testutil::make_tuple({2});
  AggregateSink sink(AggFunc::kCount, {0, 0});
  for (int i = 0; i < 5; ++i) sink.consume(make_result(&a, &b));
  EXPECT_EQ(sink.consumed(), 5u);
  EXPECT_EQ(sink.group_count(), 1u);
  EXPECT_DOUBLE_EQ(sink.total(), 5.0);
}

TEST(AggregateSink, SumMinMaxAvgOverValueColumn) {
  const Tuple a1 = testutil::make_tuple({10});
  const Tuple a2 = testutil::make_tuple({30});
  const Tuple b = testutil::make_tuple({0});
  for (const auto& [func, expected] :
       {std::pair{AggFunc::kSum, 40.0}, std::pair{AggFunc::kMin, 10.0},
        std::pair{AggFunc::kMax, 30.0}, std::pair{AggFunc::kAvg, 20.0}}) {
    AggregateSink sink(func, {0, 0});
    sink.consume(make_result(&a1, &b));
    sink.consume(make_result(&a2, &b));
    EXPECT_DOUBLE_EQ(sink.total(), expected) << agg_func_name(func);
  }
}

TEST(AggregateSink, GroupByColumn) {
  // Group by stream 1's attribute 0; sum stream 0's attribute 0.
  const Tuple a1 = testutil::make_tuple({5});
  const Tuple a2 = testutil::make_tuple({7});
  const Tuple g1 = testutil::make_tuple({100});
  const Tuple g2 = testutil::make_tuple({200});
  AggregateSink sink(AggFunc::kSum, {0, 0}, OutputColumn{1, 0});
  sink.consume(make_result(&a1, &g1));
  sink.consume(make_result(&a2, &g1));
  sink.consume(make_result(&a1, &g2));
  EXPECT_EQ(sink.group_count(), 2u);
  EXPECT_DOUBLE_EQ(sink.value_of(100), 12.0);
  EXPECT_DOUBLE_EQ(sink.value_of(200), 5.0);
  EXPECT_DOUBLE_EQ(sink.value_of(999), 0.0);
}

TEST(AggregateSink, AvgIsCountWeightedAcrossGroups) {
  const Tuple a1 = testutil::make_tuple({0});
  const Tuple a2 = testutil::make_tuple({10});
  const Tuple g1 = testutil::make_tuple({1});
  const Tuple g2 = testutil::make_tuple({2});
  AggregateSink sink(AggFunc::kAvg, {0, 0}, OutputColumn{1, 0});
  sink.consume(make_result(&a1, &g1));
  sink.consume(make_result(&a2, &g2));
  sink.consume(make_result(&a2, &g2));
  // Global avg over 3 results: (0 + 10 + 10) / 3.
  EXPECT_NEAR(sink.total(), 20.0 / 3.0, 1e-9);
}

TEST(AggregateSink, ConsumeAllAndReset) {
  const Tuple a = testutil::make_tuple({3});
  const Tuple b = testutil::make_tuple({0});
  std::vector<JoinResult> results = {make_result(&a, &b),
                                     make_result(&a, &b)};
  AggregateSink sink(AggFunc::kCount, {0, 0});
  for (const JoinResult& r : results) sink.consume(r);
  EXPECT_EQ(sink.consumed(), 2u);
  sink.reset();
  EXPECT_EQ(sink.consumed(), 0u);
  EXPECT_EQ(sink.group_count(), 0u);
  EXPECT_DOUBLE_EQ(sink.total(), 0.0);
  // Consuming after reset() starts the one global group afresh.
  sink.consume(results.front());
  EXPECT_EQ(sink.consumed(), 1u);
  EXPECT_EQ(sink.group_count(), 1u);
  EXPECT_DOUBLE_EQ(sink.value_of(0), 1.0);
  EXPECT_DOUBLE_EQ(sink.total(), 1.0);
}

TEST(AggregateSink, EmptyStateValues) {
  AggState st;
  EXPECT_DOUBLE_EQ(st.value(AggFunc::kCount), 0.0);
  EXPECT_DOUBLE_EQ(st.value(AggFunc::kMin), 0.0);
  EXPECT_DOUBLE_EQ(st.value(AggFunc::kMax), 0.0);
  EXPECT_DOUBLE_EQ(st.value(AggFunc::kAvg), 0.0);
}

TEST(AggFuncName, AllNamed) {
  EXPECT_EQ(agg_func_name(AggFunc::kCount), "COUNT");
  EXPECT_EQ(agg_func_name(AggFunc::kSum), "SUM");
  EXPECT_EQ(agg_func_name(AggFunc::kMin), "MIN");
  EXPECT_EQ(agg_func_name(AggFunc::kMax), "MAX");
  EXPECT_EQ(agg_func_name(AggFunc::kAvg), "AVG");
}

TEST(AggregateSink, NegativeValues) {
  const Tuple a1 = testutil::make_tuple({-5});
  const Tuple a2 = testutil::make_tuple({3});
  const Tuple b = testutil::make_tuple({0});
  AggregateSink sink(AggFunc::kMin, {0, 0});
  sink.consume(make_result(&a1, &b));
  sink.consume(make_result(&a2, &b));
  EXPECT_DOUBLE_EQ(sink.total(), -5.0);
}

}  // namespace
}  // namespace amri::engine
