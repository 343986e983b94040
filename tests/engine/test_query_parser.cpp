#include "engine/query_parser.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "engine/executor.hpp"

namespace amri::engine {
namespace {

std::vector<Schema> catalog() {
  return {
      Schema("Trades", {"symbol", "venue", "price"}),
      Schema("Quotes", {"symbol", "venue", "spread"}),
      Schema("News", {"symbol", "topic"}),
  };
}

TEST(QueryParser, BasicTwoWayJoin) {
  const auto p = parse_query(
      "SELECT * FROM Trades T, Quotes Q WHERE T.symbol = Q.symbol",
      catalog());
  EXPECT_EQ(p.query.num_streams(), 2u);
  ASSERT_EQ(p.query.predicates().size(), 1u);
  const auto& pred = p.query.predicates()[0];
  EXPECT_EQ(pred.left_stream, 0u);
  EXPECT_EQ(pred.left_attr, 0u);
  EXPECT_EQ(pred.right_stream, 1u);
  EXPECT_EQ(pred.right_attr, 0u);
  EXPECT_EQ(p.catalog_ids, (std::vector<StreamId>{0, 1}));
  EXPECT_FALSE(p.agg.has_value());
  EXPECT_TRUE(p.query.projection().select_star());
}

TEST(QueryParser, CaseInsensitiveKeywordsAndNewlines) {
  const auto p = parse_query(
      "select *\nfrom Trades T, News N\nwhere T.symbol = N.symbol\n"
      "window 30",
      catalog());
  EXPECT_EQ(p.query.window(), seconds_to_micros(30));
  EXPECT_EQ(p.catalog_ids, (std::vector<StreamId>{0, 2}));
}

TEST(QueryParser, DefaultWindowApplies) {
  const auto p = parse_query(
      "SELECT * FROM Trades T, Quotes Q WHERE T.symbol = Q.symbol",
      catalog(), seconds_to_micros(7));
  EXPECT_EQ(p.query.window(), seconds_to_micros(7));
}

TEST(QueryParser, ConstantFiltersBecomeSelections) {
  const auto p = parse_query(
      "SELECT * FROM Trades T, Quotes Q "
      "WHERE T.symbol = Q.symbol AND T.price >= 100 AND Q.spread < 5",
      catalog());
  EXPECT_EQ(p.query.selection(0).size(), 1u);
  EXPECT_EQ(p.query.selection(1).size(), 1u);
  const auto& f = p.query.selection(0).predicates()[0];
  EXPECT_EQ(f.attr, 2u);
  EXPECT_EQ(f.op, CompareOp::kGe);
  EXPECT_EQ(f.constant, 100);
}

TEST(QueryParser, ProjectionColumns) {
  const auto p = parse_query(
      "SELECT T.price, Q.spread FROM Trades T, Quotes Q "
      "WHERE T.symbol = Q.symbol",
      catalog());
  ASSERT_EQ(p.query.projection().columns().size(), 2u);
  EXPECT_EQ(p.query.projection().columns()[0].stream, 0u);
  EXPECT_EQ(p.query.projection().columns()[0].attr, 2u);
  EXPECT_EQ(p.query.projection().columns()[1].stream, 1u);
  EXPECT_EQ(p.query.projection().columns()[1].attr, 2u);
}

TEST(QueryParser, CountStarAggregate) {
  const auto p = parse_query(
      "SELECT COUNT(*) FROM Trades T, Quotes Q WHERE T.symbol = Q.symbol",
      catalog());
  ASSERT_TRUE(p.agg.has_value());
  EXPECT_EQ(*p.agg, AggFunc::kCount);
  EXPECT_FALSE(p.agg_column.has_value());
}

TEST(QueryParser, SumWithGroupBy) {
  const auto p = parse_query(
      "SELECT SUM(T.price) FROM Trades T, Quotes Q "
      "WHERE T.symbol = Q.symbol GROUP BY Q.venue",
      catalog());
  ASSERT_TRUE(p.agg.has_value());
  EXPECT_EQ(*p.agg, AggFunc::kSum);
  ASSERT_TRUE(p.agg_column.has_value());
  EXPECT_EQ(p.agg_column->stream, 0u);
  EXPECT_EQ(p.agg_column->attr, 2u);
  ASSERT_TRUE(p.group_by.has_value());
  EXPECT_EQ(p.group_by->stream, 1u);
  EXPECT_EQ(p.group_by->attr, 1u);
}

TEST(QueryParser, SelfJoinViaTwoAliases) {
  const auto p = parse_query(
      "SELECT * FROM Trades A, Trades B WHERE A.symbol = B.symbol",
      catalog());
  EXPECT_EQ(p.query.num_streams(), 2u);
  EXPECT_EQ(p.catalog_ids, (std::vector<StreamId>{0, 0}));
  EXPECT_EQ(p.query.predicates()[0].left_stream, 0u);
  EXPECT_EQ(p.query.predicates()[0].right_stream, 1u);
}

TEST(QueryParser, SelfJoinStreamLimitIsChecked) {
  // A self-join lists one catalog stream under many aliases, so the
  // parser alone does not bound the stream count: QuerySpec rejects the
  // 32nd stream.
  auto self_join = [](int aliases) {
    std::string q = "SELECT * FROM ";
    for (int i = 0; i < aliases; ++i) {
      if (i != 0) q += ", ";
      q += "Trades T" + std::to_string(i);
    }
    return q + " WHERE T0.symbol = T1.symbol";
  };
  EXPECT_EQ(parse_query(self_join(31), catalog()).query.num_streams(), 31u);
  EXPECT_THROW(parse_query(self_join(32), catalog()), std::invalid_argument);
}

TEST(QueryParser, ThreeWayJoinChain) {
  const auto p = parse_query(
      "SELECT * FROM Trades T, Quotes Q, News N "
      "WHERE T.symbol = Q.symbol AND Q.venue = N.topic",
      catalog());
  EXPECT_EQ(p.query.num_streams(), 3u);
  EXPECT_EQ(p.query.predicates().size(), 2u);
  EXPECT_EQ(p.query.layout(1).jas.size(), 2u);  // Quotes joins both peers
}

TEST(QueryParser, RejectsAttributeInTwoJoinPredicates) {
  // Chain joins reusing the same attribute (Q.symbol twice) are rejected:
  // the engine requires one predicate per state attribute.
  EXPECT_THROW(parse_query("SELECT * FROM Trades T, Quotes Q, News N "
                           "WHERE T.symbol = Q.symbol AND "
                           "Q.symbol = N.symbol",
                           catalog()),
               std::invalid_argument);
}

TEST(QueryParser, Errors) {
  const auto cat = catalog();
  EXPECT_THROW(parse_query("FROM Trades T", cat), std::invalid_argument);
  EXPECT_THROW(parse_query("SELECT *", cat), std::invalid_argument);
  EXPECT_THROW(parse_query("SELECT * FROM Missing M", cat),
               std::invalid_argument);
  EXPECT_THROW(parse_query("SELECT * FROM Trades T, Trades T", cat),
               std::invalid_argument);  // duplicate alias
  EXPECT_THROW(
      parse_query("SELECT * FROM Trades T, Quotes Q WHERE T.nope = Q.symbol",
                  cat),
      std::invalid_argument);  // unknown attribute
  EXPECT_THROW(
      parse_query("SELECT * FROM Trades T, Quotes Q WHERE T.price < Q.spread",
                  cat),
      std::invalid_argument);  // non-equi join
  EXPECT_THROW(
      parse_query("SELECT * FROM Trades T, Quotes Q WHERE T.price = T.venue",
                  cat),
      std::invalid_argument);  // join within one stream
  EXPECT_THROW(parse_query("SELECT SUM(*) FROM Trades T", cat),
               std::invalid_argument);  // only COUNT takes '*'
  EXPECT_THROW(
      parse_query("SELECT * FROM Trades T WHERE T.price > 1 garbage", cat),
      std::invalid_argument);  // trailing token
}

TEST(QueryParser, ParsedQueryRunsEndToEnd) {
  const auto p = parse_query(
      "SELECT T.price FROM Trades T, Quotes Q "
      "WHERE T.symbol = Q.symbol AND T.price >= 50 WINDOW 100",
      catalog());
  // Drive the executor directly with the parsed spec.
  struct OneShot final : TupleSource {
    std::vector<Tuple> tuples;
    std::size_t pos = 0;
    std::optional<Tuple> next() override {
      if (pos >= tuples.size()) return std::nullopt;
      return tuples[pos++];
    }
  } src;
  Tuple trade;
  trade.stream = 0;
  trade.ts = 1;
  trade.values = {7, 1, 120};  // symbol=7, venue=1, price=120
  Tuple quote;
  quote.stream = 1;
  quote.ts = 2;
  quote.values = {7, 1, 3};  // symbol=7, spread=3
  src.tuples = {trade, quote};

  ExecutorOptions opts;
  opts.duration = seconds_to_micros(10);
  opts.stem.backend = IndexBackend::kScan;
  opts.collect_rows = true;
  Executor ex(p.query, opts);
  const auto r = ex.run(src);
  EXPECT_EQ(r.outputs, 1u);
  ASSERT_EQ(r.rows.size(), 1u);
  ASSERT_EQ(r.rows[0].size(), 1u);
  EXPECT_EQ(r.rows[0][0], 120);  // projected T.price
}

}  // namespace
}  // namespace amri::engine
