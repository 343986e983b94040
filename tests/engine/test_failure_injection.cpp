// Failure injection and degenerate-configuration coverage (DESIGN §6):
// memory exhaustion mid-run, zero-bit ICs, empty sources, saturating
// costs, truncation limits, and row-collection edge cases.
#include <gtest/gtest.h>

#include <deque>

#include "../test_util.hpp"
#include "engine/executor.hpp"

namespace amri::engine {
namespace {

class ScriptedSource final : public TupleSource {
 public:
  explicit ScriptedSource(std::vector<Tuple> tuples)
      : tuples_(tuples.begin(), tuples.end()) {}
  std::optional<Tuple> next() override {
    if (tuples_.empty()) return std::nullopt;
    Tuple t = tuples_.front();
    tuples_.pop_front();
    return t;
  }

 private:
  std::deque<Tuple> tuples_;
};

Tuple mk(StreamId s, double ts_sec, std::initializer_list<Value> vals) {
  return testutil::make_tuple(vals, 0, seconds_to_micros(ts_sec), s);
}

TEST(FailureInjection, EmptySourceCompletesImmediately) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(10));
  ScriptedSource src({});
  ExecutorOptions o;
  o.duration = seconds_to_micros(60);
  o.stem.backend = IndexBackend::kScan;
  Executor ex(q, o);
  const auto r = ex.run(src);
  EXPECT_EQ(r.outputs, 0u);
  EXPECT_EQ(r.arrivals, 0u);
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.died_at.has_value());
}

TEST(FailureInjection, ZeroBitAmriStillCorrect) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(50));
  ScriptedSource src({mk(0, 1, {7}), mk(1, 2, {7})});
  ExecutorOptions o;
  o.duration = seconds_to_micros(60);
  o.stem.backend = IndexBackend::kAmri;
  o.stem.initial_config = index::IndexConfig::zero(1);
  tuner::TunerOptions t;
  t.optimizer.bit_budget = 0;  // the optimizer may never add bits
  t.reassess_every = 1;
  o.stem.amri_tuner = t;
  Executor ex(q, o);
  const auto r = ex.run(src);
  EXPECT_EQ(r.outputs, 1u);
  for (const auto& stem : ex.stems()) {
    ASSERT_NE(stem->current_config(), nullptr);
    EXPECT_EQ(stem->current_config()->total_bits(), 0);
  }
}

TEST(FailureInjection, OomDuringWarmupReportsNegativeDeath) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(1000));
  std::vector<Tuple> tuples;
  for (int i = 0; i < 3000; ++i) tuples.push_back(mk(0, 0.001 * i, {i}));
  ScriptedSource src(std::move(tuples));
  ExecutorOptions o;
  o.warmup = seconds_to_micros(100);
  o.duration = seconds_to_micros(100);
  o.memory_budget = 32 * 1024;
  o.stem.backend = IndexBackend::kScan;
  Executor ex(q, o);
  const auto r = ex.run(src);
  ASSERT_TRUE(r.died_at.has_value());
  EXPECT_LT(*r.died_at, 0);  // died before measurement started
  EXPECT_EQ(r.outputs, 0u);
}

TEST(FailureInjection, ExhaustedTrackerStopsFurtherWork) {
  MemoryTracker mem(100);
  mem.allocate(MemCategory::kQueue, 200);
  ASSERT_TRUE(mem.exhausted());
  // Sticky even after release: the run is dead.
  mem.release(MemCategory::kQueue, 200);
  EXPECT_TRUE(mem.exhausted());
}

TEST(FailureInjection, TruncationLimitsPartialExplosion) {
  const QuerySpec q = make_complete_join_query(3, seconds_to_micros(1000));
  std::vector<Tuple> tuples;
  // All-identical join keys: quadratic partial blow-up on the last state.
  for (int i = 0; i < 60; ++i) {
    tuples.push_back(mk(static_cast<StreamId>(i % 3), 0.1 * i, {1, 1}));
  }
  ScriptedSource src(std::move(tuples));
  ExecutorOptions o;
  o.duration = seconds_to_micros(60);
  o.stem.backend = IndexBackend::kScan;
  o.eddy.max_partials_per_arrival = 16;
  // Member timestamps (ms) of every result, in on_result order.
  std::vector<std::vector<TimeMicros>> seen;
  o.on_result = [&seen](const JoinResult& jr) {
    std::vector<TimeMicros> ts;
    for (const Tuple* m : jr.members) ts.push_back(m->ts / 1000);
    seen.push_back(std::move(ts));
  };
  Executor ex(q, o);
  const auto r = ex.run(src);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.outputs, 696u);
  EXPECT_EQ(ex.eddy().results_produced(), 696u);
  EXPECT_EQ(ex.eddy().partials_truncated(), 49u);
  ASSERT_EQ(seen.size(), r.outputs);
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the sequence
  for (const auto& ts : seen) {
    for (const TimeMicros t : ts) {
      h ^= static_cast<std::uint64_t>(t);
      h *= 1099511628211ULL;
    }
  }
  EXPECT_EQ(h, 4241557260689760299ULL);
  EXPECT_EQ(seen.front(), (std::vector<TimeMicros>{0, 100, 200}));
  EXPECT_EQ(seen.back(), (std::vector<TimeMicros>{1800, 5800, 5900}));
}

TEST(FailureInjection, RowCollectionZeroCapKeepsCounting) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(50));
  ScriptedSource src({mk(0, 1, {3}), mk(1, 2, {3})});
  ExecutorOptions o;
  o.duration = seconds_to_micros(60);
  o.stem.backend = IndexBackend::kScan;
  o.collect_rows = true;
  o.max_collected_rows = 0;
  Executor ex(q, o);
  const auto r = ex.run(src);
  EXPECT_EQ(r.outputs, 1u);
  EXPECT_TRUE(r.rows.empty());
}

TEST(FailureInjection, OnResultCallbackSeesEveryResult) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(500));
  std::vector<Tuple> tuples;
  for (int i = 0; i < 30; ++i) {
    tuples.push_back(mk(i % 2 == 0 ? 0 : 1, 1.0 * i, {i / 2}));
  }
  ScriptedSource src(std::move(tuples));
  ExecutorOptions o;
  o.duration = seconds_to_micros(1000);
  o.stem.backend = IndexBackend::kScan;
  std::uint64_t seen = 0;
  o.on_result = [&seen](const JoinResult& r) {
    ASSERT_EQ(r.members.size(), 2u);
    EXPECT_NE(r.members[0], nullptr);
    EXPECT_NE(r.members[1], nullptr);
    ++seen;
  };
  Executor ex(q, o);
  const auto r = ex.run(src);
  EXPECT_EQ(seen, r.outputs);
  EXPECT_GT(seen, 0u);
}

TEST(FailureInjection, SaturatingCostsStillTerminate) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(10));
  std::vector<Tuple> tuples;
  for (int i = 0; i < 100; ++i) tuples.push_back(mk(0, 0.01 * i, {i}));
  ScriptedSource src(std::move(tuples));
  ExecutorOptions o;
  o.duration = seconds_to_micros(1);
  o.costs.insert_cost_us = 1e6;  // one virtual second per insert
  o.stem.backend = IndexBackend::kScan;
  Executor ex(q, o);
  const auto r = ex.run(src);
  // One insert eats the whole virtual duration: at most a couple of
  // arrivals are ever processed and the run still terminates.
  EXPECT_LE(r.arrivals, 3u);
}

TEST(FailureInjection, TupleArrivingAfterDurationIgnored) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(50));
  ScriptedSource src({mk(0, 1, {5}), mk(1, 200, {5})});
  ExecutorOptions o;
  o.duration = seconds_to_micros(100);
  o.stem.backend = IndexBackend::kScan;
  Executor ex(q, o);
  const auto r = ex.run(src);
  EXPECT_EQ(r.arrivals, 1u);
  EXPECT_EQ(r.outputs, 0u);
}

TEST(FailureInjection, StaticModulesWithNoInitialModulesScansEverything) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(50));
  ScriptedSource src({mk(0, 1, {9}), mk(1, 2, {9})});
  ExecutorOptions o;
  o.duration = seconds_to_micros(60);
  o.stem.backend = IndexBackend::kStaticModules;
  o.stem.initial_modules = {};
  Executor ex(q, o);
  const auto r = ex.run(src);
  EXPECT_EQ(r.outputs, 1u);  // correctness survives zero modules
}

}  // namespace
}  // namespace amri::engine
