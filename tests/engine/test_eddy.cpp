#include "engine/eddy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "../test_util.hpp"

namespace amri::engine {
namespace {

index::CostModel model() {
  return index::CostModel(index::WorkloadParams{});
}

StemOptions scan_backend() {
  StemOptions o;
  o.backend = IndexBackend::kScan;
  return o;
}

/// A result callback that keeps a copy of every result in `out`.
ResultCallback collect_into(std::vector<JoinResult>& out) {
  return [&out](const JoinResult& jr) { out.push_back(jr); };
}

struct Rig {
  QuerySpec query;
  std::vector<std::unique_ptr<StemOperator>> stems;
  std::unique_ptr<EddyRouter> eddy;

  Rig(std::size_t k, StemOptions stem_opts, EddyOptions eddy_opts = {})
      : query(make_complete_join_query(k, seconds_to_micros(1000))) {
    std::vector<StemOperator*> ptrs;
    for (StreamId s = 0; s < k; ++s) {
      stems.push_back(std::make_unique<StemOperator>(
          s, query.layout(s), query.window(), stem_opts, model()));
      ptrs.push_back(stems.back().get());
    }
    eddy = std::make_unique<EddyRouter>(query, std::move(ptrs), eddy_opts);
  }

  std::uint64_t arrive(StreamId s, TimeMicros ts,
                       std::initializer_list<Value> vals,
                       std::vector<JoinResult>* sink = nullptr) {
    Tuple t = testutil::make_tuple(vals, 0, ts, s);
    const Tuple* stored = stems[s]->insert(t);
    if (sink == nullptr) return eddy->route(stored);
    const ResultCallback keep = collect_into(*sink);
    return eddy->route(stored, &keep);
  }
};

TEST(EddyRouter, TwoWayJoinProducesPairExactlyOnce) {
  Rig rig(2, scan_backend());
  EXPECT_EQ(rig.arrive(0, 1, {42}), 0u);  // nothing to join yet
  EXPECT_EQ(rig.arrive(1, 2, {42}), 1u);  // matches the stored tuple
  EXPECT_EQ(rig.arrive(1, 3, {41}), 0u);  // no match
  EXPECT_EQ(rig.eddy->results_produced(), 1u);
  EXPECT_EQ(rig.eddy->arrivals_routed(), 3u);
}

TEST(EddyRouter, ThreeWayJoinRequiresAllPredicates) {
  // K3: streams A{j01,j02}, B{j01,j12}, C{j02,j12}.
  Rig rig(3, scan_backend());
  rig.arrive(0, 1, {7, 8});    // A: j01=7, j02=8
  rig.arrive(1, 2, {7, 9});    // B: j01=7, j12=9
  // C must satisfy j02=8 (with A) and j12=9 (with B).
  EXPECT_EQ(rig.arrive(2, 3, {8, 9}), 1u);
  EXPECT_EQ(rig.arrive(2, 4, {8, 1}), 0u);  // violates B-C predicate
  EXPECT_EQ(rig.arrive(2, 5, {1, 9}), 0u);  // violates A-C predicate
}

TEST(EddyRouter, ResultDeliveredToSink) {
  Rig rig(2, scan_backend());
  rig.arrive(0, 1, {5});
  std::vector<JoinResult> sink;
  rig.arrive(1, 2, {5}, &sink);
  ASSERT_EQ(sink.size(), 1u);
  ASSERT_EQ(sink[0].members.size(), 2u);
  EXPECT_EQ(sink[0].members[0]->at(0), 5);
  EXPECT_EQ(sink[0].members[1]->at(0), 5);
}

TEST(EddyRouter, FanOutCountsAllCombinations) {
  Rig rig(2, scan_backend());
  rig.arrive(0, 1, {3});
  rig.arrive(0, 2, {3});
  rig.arrive(0, 3, {3});
  // One B tuple joins all three stored A tuples.
  EXPECT_EQ(rig.arrive(1, 4, {3}), 3u);
}

TEST(EddyRouter, FourWayCompleteJoin) {
  Rig rig(4, scan_backend());
  // One tuple per stream, all predicate values aligned:
  // A{j01,j02,j03}, B{j01,j12,j13}, C{j02,j12,j23}, D{j03,j13,j23}.
  rig.arrive(0, 1, {1, 2, 3});
  rig.arrive(1, 2, {1, 4, 5});
  rig.arrive(2, 3, {2, 4, 6});
  EXPECT_EQ(rig.arrive(3, 4, {3, 5, 6}), 1u);
}

TEST(EddyRouter, RouteOrderDoesNotChangeResults) {
  // Same arrivals under different policies must produce identical counts.
  for (const auto kind : {RoutingPolicyKind::kFixed,
                          RoutingPolicyKind::kCostBased,
                          RoutingPolicyKind::kLottery}) {
    EddyOptions eo;
    eo.routing.kind = kind;
    eo.routing.seed = 99;
    Rig rig(3, scan_backend(), eo);
    Rng rng(1234);
    std::uint64_t results = 0;
    for (int i = 0; i < 300; ++i) {
      const auto s = static_cast<StreamId>(rng.below(3));
      const Value v1 = static_cast<Value>(rng.below(4));
      const Value v2 = static_cast<Value>(rng.below(4));
      results += rig.arrive(s, i, {v1, v2});
    }
    // Reference: recompute with fixed policy on identical input.
    EddyOptions ref_eo;
    ref_eo.routing.kind = RoutingPolicyKind::kFixed;
    Rig ref(3, scan_backend(), ref_eo);
    Rng rng2(1234);
    std::uint64_t ref_results = 0;
    for (int i = 0; i < 300; ++i) {
      const auto s = static_cast<StreamId>(rng2.below(3));
      const Value v1 = static_cast<Value>(rng2.below(4));
      const Value v2 = static_cast<Value>(rng2.below(4));
      ref_results += ref.arrive(s, i, {v1, v2});
    }
    EXPECT_EQ(results, ref_results) << "policy kind "
                                    << static_cast<int>(kind);
  }
}

TEST(EddyRouter, StatisticsRecordedPerStatePattern) {
  Rig rig(3, scan_backend());
  rig.arrive(0, 1, {1, 1});
  rig.arrive(1, 2, {1, 1});
  rig.arrive(2, 3, {1, 1});
  EXPECT_GT(rig.eddy->statistics().size(), 0u);
}

/// Member timestamps of each result, in emission order.
std::vector<std::vector<TimeMicros>> member_ts(
    const std::vector<JoinResult>& sink) {
  std::vector<std::vector<TimeMicros>> out;
  for (const JoinResult& jr : sink) {
    std::vector<TimeMicros> ts;
    for (const Tuple* m : jr.members) ts.push_back(m->ts);
    out.push_back(std::move(ts));
  }
  return out;
}

/// FNV-1a over the member timestamps of every result, in emission order.
std::uint64_t sequence_hash(const std::vector<JoinResult>& sink) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& ts : member_ts(sink)) {
    for (const TimeMicros t : ts) {
      h ^= static_cast<std::uint64_t>(t);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

TEST(EddyRouter, TruncationGuardStopsExplosion) {
  // One B arrival fans out to 100 stored A tuples. The valve admits 10
  // partials per arrival: the root, then 9 final-hop matches in the
  // depth-first stack's pop order (latest match first); the 10th match
  // trips it.
  EddyOptions eo;
  eo.max_partials_per_arrival = 10;
  Rig rig(2, scan_backend(), eo);
  for (int i = 0; i < 100; ++i) rig.arrive(0, i, {1});
  std::vector<JoinResult> sink;
  EXPECT_EQ(rig.arrive(1, 200, {1}, &sink), 9u);
  EXPECT_EQ(rig.eddy->results_produced(), 9u);
  EXPECT_EQ(rig.eddy->partials_truncated(), 1u);
  const std::vector<std::vector<TimeMicros>> expected = {
      {99, 200}, {98, 200}, {97, 200}, {96, 200}, {95, 200},
      {94, 200}, {93, 200}, {92, 200}, {91, 200}};
  EXPECT_EQ(member_ts(sink), expected);
}

TEST(EddyRouter, TruncationGuardCutsMidFinalHop) {
  // 3-way join over identical keys: 10 stored A and 10 stored B tuples,
  // then three C arrivals under a 50-partial valve. Depth-first, each C
  // arrival spends 1 + 11 * 4 partials on four full A-then-B subtrees and
  // trips the valve inside the fifth one's final hop. Level-order, each
  // root spends 1 + 10 partials on the first two levels and 39 on its
  // final level's complete results.
  EddyOptions eo;
  eo.max_partials_per_arrival = 50;
  Rig single(3, scan_backend(), eo);
  Rig batched(3, scan_backend(), eo);
  for (Rig* rig : {&single, &batched}) {
    for (int i = 0; i < 10; ++i) rig->arrive(0, i, {1, 1});
    for (int i = 0; i < 10; ++i) rig->arrive(1, 10 + i, {1, 1});
    ASSERT_EQ(rig->eddy->results_produced(), 0u);
    ASSERT_EQ(rig->eddy->partials_truncated(), 0u);
  }

  std::vector<JoinResult> single_sink;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(single.arrive(2, 100 + i, {1, 1}, &single_sink), 44u);
  }
  EXPECT_EQ(single.eddy->results_produced(), 132u);
  EXPECT_EQ(single.eddy->partials_truncated(), 3u);
  ASSERT_EQ(single_sink.size(), 132u);
  EXPECT_EQ(member_ts(single_sink).front(),
            (std::vector<TimeMicros>{9, 19, 100}));
  EXPECT_EQ(member_ts(single_sink).back(),
            (std::vector<TimeMicros>{6, 15, 102}));
  EXPECT_EQ(sequence_hash(single_sink), 17419558370426825267ULL);

  std::vector<Tuple> arrivals;
  for (int i = 0; i < 3; ++i) {
    arrivals.push_back(testutil::make_tuple({1, 1}, 0, 100 + i, 2));
  }
  std::vector<const Tuple*> stored;
  batched.stems[2]->insert_batch(arrivals.data(), arrivals.size(), stored);
  const std::vector<std::uint32_t> done(3, std::uint32_t{1} << 2);
  std::vector<JoinResult> batched_sink;
  const ResultCallback keep = collect_into(batched_sink);
  EXPECT_EQ(batched.eddy->route_batch(stored.data(), done.data(), 3, &keep),
            117u);
  EXPECT_EQ(batched.eddy->results_produced(), 117u);
  EXPECT_EQ(batched.eddy->partials_truncated(), 3u);
  ASSERT_EQ(batched_sink.size(), 117u);
  EXPECT_EQ(member_ts(batched_sink).front(),
            (std::vector<TimeMicros>{0, 10, 100}));
  EXPECT_EQ(member_ts(batched_sink).back(),
            (std::vector<TimeMicros>{3, 18, 102}));
  EXPECT_EQ(sequence_hash(batched_sink), 2438128081087355342ULL);
}

TEST(EddyRouter, BatchRoutingPreservesResults) {
  auto run = [](std::size_t batch) {
    EddyOptions eo;
    eo.decision_reuse = batch;
    Rig rig(3, scan_backend(), eo);
    Rng rng(4321);
    std::uint64_t results = 0;
    for (int i = 0; i < 400; ++i) {
      const auto s = static_cast<StreamId>(rng.below(3));
      const Value v1 = static_cast<Value>(rng.below(5));
      const Value v2 = static_cast<Value>(rng.below(5));
      results += rig.arrive(s, i, {v1, v2});
    }
    return results;
  };
  const auto single = run(1);
  EXPECT_EQ(run(8), single);
  EXPECT_EQ(run(64), single);
}

TEST(EddyRouter, BatchRoutingAmortisesDecisionCost) {
  const QuerySpec q = make_complete_join_query(3, seconds_to_micros(1000));
  auto routes_with_batch = [&](std::size_t batch) {
    CostMeter meter;
    StemOptions so;
    so.backend = IndexBackend::kScan;
    std::vector<std::unique_ptr<StemOperator>> stems;
    std::vector<StemOperator*> ptrs;
    for (StreamId s = 0; s < 3; ++s) {
      stems.push_back(std::make_unique<StemOperator>(
          s, q.layout(s), q.window(), so, model()));
      ptrs.push_back(stems.back().get());
    }
    EddyOptions eo;
    eo.decision_reuse = batch;
    EddyRouter eddy(q, std::move(ptrs), eo, &meter);
    for (int i = 0; i < 300; ++i) {
      Tuple t = testutil::make_tuple({1, 1}, 0, i, 0);
      eddy.route(stems[0]->insert(t));
    }
    return meter.routes();
  };
  const auto unbatched = routes_with_batch(1);
  const auto batched = routes_with_batch(10);
  EXPECT_GT(unbatched, 0u);
  EXPECT_LT(batched, unbatched / 4);
}

// Drives one rig tuple-at-a-time and a twin rig through
// insert_batch/route_batch with identical same-stream runs; results and
// (when metered) route charges must agree exactly.
struct BatchRun {
  StreamId stream;
  std::vector<Tuple> tuples;
};

std::vector<BatchRun> make_batch_runs(std::size_t streams, std::size_t rounds,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<BatchRun> runs;
  TimeMicros ts = 0;
  TupleSeq seq = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    BatchRun run;
    run.stream = static_cast<StreamId>(rng.below(streams));
    const std::size_t k = 1 + rng.below(6);
    for (std::size_t i = 0; i < k; ++i) {
      Tuple t = testutil::make_tuple(
          {static_cast<Value>(rng.below(4)), static_cast<Value>(rng.below(4))},
          seq++, ++ts, run.stream);
      run.tuples.push_back(t);
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

TEST(EddyRouter, RouteBatchMatchesSequentialRouting) {
  for (const std::size_t reuse : {std::size_t{1}, std::size_t{8}}) {
    EddyOptions eo;
    eo.decision_reuse = reuse;
    Rig single(3, scan_backend(), eo);
    Rig batched(3, scan_backend(), eo);
    std::vector<JoinResult> single_sink, batched_sink;
    const ResultCallback keep_single = collect_into(single_sink);
    const ResultCallback keep_batched = collect_into(batched_sink);
    std::uint64_t single_results = 0;
    std::uint64_t batched_results = 0;
    for (const BatchRun& run : make_batch_runs(3, 120, 777)) {
      for (const Tuple& t : run.tuples) {
        single_results += single.eddy->route(
            single.stems[run.stream]->insert(t), &keep_single);
      }
      std::vector<const Tuple*> stored;
      std::vector<std::uint32_t> done(run.tuples.size(),
                                      std::uint32_t{1} << run.stream);
      batched.stems[run.stream]->insert_batch(run.tuples.data(),
                                              run.tuples.size(), stored);
      batched_results += batched.eddy->route_batch(
          stored.data(), done.data(), run.tuples.size(), &keep_batched);
    }
    EXPECT_EQ(batched_results, single_results) << "reuse " << reuse;
    EXPECT_EQ(batched_sink.size(), single_sink.size()) << "reuse " << reuse;
    // Same result multiset, keyed on member seqs (emission order within a
    // batch is level-order, not depth-first).
    auto canon = [](const std::vector<JoinResult>& sink) {
      std::vector<std::vector<TupleSeq>> keys;
      for (const JoinResult& jr : sink) {
        std::vector<TupleSeq> key;
        for (const Tuple* m : jr.members) key.push_back(m->seq);
        keys.push_back(std::move(key));
      }
      std::sort(keys.begin(), keys.end());
      return keys;
    };
    EXPECT_EQ(canon(batched_sink), canon(single_sink)) << "reuse " << reuse;
  }
}

TEST(EddyRouter, RouteBatchChargesSameRoutingCost) {
  const QuerySpec q = make_complete_join_query(3, seconds_to_micros(1000));
  auto routes_charged = [&](bool use_batch, std::size_t reuse) {
    CostMeter meter;
    StemOptions so;
    so.backend = IndexBackend::kScan;
    std::vector<std::unique_ptr<StemOperator>> stems;
    std::vector<StemOperator*> ptrs;
    for (StreamId s = 0; s < 3; ++s) {
      stems.push_back(std::make_unique<StemOperator>(
          s, q.layout(s), q.window(), so, model()));
      ptrs.push_back(stems.back().get());
    }
    EddyOptions eo;
    eo.decision_reuse = reuse;
    // Charge parity holds for deterministic policies; stats-driven ones
    // may legitimately pick different routes under the batch's level-order
    // probe sequence (documented caveat).
    eo.routing.kind = RoutingPolicyKind::kFixed;
    EddyRouter eddy(q, std::move(ptrs), eo, &meter);
    for (const BatchRun& run : make_batch_runs(3, 80, 4242)) {
      std::vector<const Tuple*> stored;
      std::vector<std::uint32_t> done(run.tuples.size(),
                                      std::uint32_t{1} << run.stream);
      stems[run.stream]->insert_batch(run.tuples.data(), run.tuples.size(),
                                      stored);
      if (use_batch) {
        eddy.route_batch(stored.data(), done.data(), run.tuples.size());
      } else {
        for (const Tuple* t : stored) eddy.route(t);
      }
    }
    return meter.routes();
  };
  for (const std::size_t reuse : {std::size_t{1}, std::size_t{10}}) {
    const auto sequential = routes_charged(false, reuse);
    EXPECT_GT(sequential, 0u);
    EXPECT_EQ(routes_charged(true, reuse), sequential) << "reuse " << reuse;
  }
}

TEST(EddyRouter, ChargesRoutingDecisions) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(10));
  CostMeter meter;
  StemOperator s0(0, q.layout(0), q.window(), scan_backend(), model());
  StemOperator s1(1, q.layout(1), q.window(), scan_backend(), model());
  EddyRouter eddy(q, {&s0, &s1}, {}, &meter);
  Tuple t = testutil::make_tuple({1}, 0, 1, 0);
  eddy.route(s0.insert(t));
  EXPECT_EQ(meter.routes(), 1u);
}

}  // namespace
}  // namespace amri::engine
