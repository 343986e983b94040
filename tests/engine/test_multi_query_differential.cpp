// Differential equivalence for multi-query shared execution on the unified
// run-loop core (engine/run_loop.hpp):
//
//   * one query must reproduce the numbers the dedicated single-query
//     executor produced before it became the one-query case of the shared
//     engine (outputs, cost charges, routing decisions, per-state
//     migrations and final configs), on a query whose JAS order and
//     initial config exercise the one-query rules;
//   * attribute-disjoint queries through the shared states must produce
//     exactly the per-query outputs of N independent single-query runs, on
//     every grid point (sub-array carving and per-query assessor
//     attribution must not leak results across queries);
//   * overlapping-JAS queries must produce the same per-query outputs on
//     every grid point as at batch size 1 (batched multi-query routing is
//     level-order; the depth-first tuple-at-a-time schedule is the
//     reference);
//   * the per-query assessors must merge into exactly the
//     unpartitioned assessment for the exact kinds (SRIA/DIA) and stay
//     within the documented epsilon for the compressing kinds, and the
//     merged answer must be invariant to how the queries' request
//     substreams interleave — the fixed-merged-assessment decision
//     invariance the shared tuner relies on.
//
// The grid comparisons run with zero modelled costs so the virtual clock
// tracks arrival timestamps only and every grid point sees identical
// window contents (the established differential-suite technique); the
// one-query golden charges the default costs.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "../test_util.hpp"
#include "assessment/snapshot.hpp"
#include "common/rng.hpp"
#include "engine/executor.hpp"
#include "engine/query_parser.hpp"
#include "telemetry/telemetry.hpp"

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

/// The batch sizes (grid points) the unified core must serve.
constexpr std::size_t kBatchGrid[] = {1, 4};

std::string label(std::size_t batch) {
  return "batch=" + std::to_string(batch);
}

/// Zero modelled costs + deterministic routing + an always-on AMRI tuner:
/// the adaptive machinery runs (assessment, epochs, migrations) without
/// cost-dependent divergence between grid points.
ExecutorOptions grid_options(std::size_t batch, std::size_t num_attrs) {
  ExecutorOptions o;
  o.duration = seconds_to_micros(200);
  o.sample_every = seconds_to_micros(50);
  o.costs = CostParams{0, 0, 0, 0, 0, 0};
  o.stem.backend = IndexBackend::kAmri;
  o.batch_size = batch;
  o.eddy.routing.kind = RoutingPolicyKind::kFixed;
  tuner::TunerOptions topts;
  topts.reassess_every = 120;
  topts.theta = 0.1;
  topts.optimizer.bit_budget = static_cast<int>(2 * num_attrs);
  topts.optimizer.max_bits_per_attr = 2;
  o.stem.amri_tuner = topts;
  return o;
}

/// `n_queries` two-stream queries over `n_attrs`-wide schemas; query i
/// joins L.a<i> == R.a<i> (disjoint == true) or L.a<i> == R.a<i> plus
/// L.a<i+1> == R.a<i+1> (overlapping JAS between neighbouring queries).
std::vector<QuerySpec> make_queries(std::size_t n_queries, std::size_t n_attrs,
                                    bool disjoint, TimeMicros window) {
  std::vector<std::string> names;
  for (std::size_t a = 0; a < n_attrs; ++a) {
    names.push_back("a" + std::to_string(a));
  }
  const std::vector<Schema> schemas = {Schema("L", names), Schema("R", names)};
  std::vector<QuerySpec> queries;
  for (std::size_t qi = 0; qi < n_queries; ++qi) {
    std::vector<JoinPredicate> preds;
    const auto a0 = static_cast<AttrId>(qi % n_attrs);
    preds.push_back({0, a0, 1, a0});
    if (!disjoint) {
      const auto a1 = static_cast<AttrId>((qi + 1) % n_attrs);
      if (a1 != a0) preds.push_back({0, a1, 1, a1});
    }
    queries.emplace_back(schemas, std::move(preds), window);
  }
  // Distinct per-query selections so admission masks differ per arrival.
  queries[0].set_selection(0, Selection({{0, CompareOp::kGe, 1}}));
  return queries;
}

std::vector<Tuple> make_arrivals(std::size_t count, std::size_t n_attrs,
                                 Value domain, std::uint64_t seed) {
  std::vector<Tuple> arrivals;
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    Tuple t;
    t.stream = static_cast<StreamId>(rng.below(2));
    // 50 ms apart — the zero-cost clock idles to each arrival, so window
    // contents are identical on every grid point.
    t.ts = seconds_to_micros(0.05 * static_cast<double>(i));
    t.seq = static_cast<TupleSeq>(i);
    for (std::size_t a = 0; a < n_attrs; ++a) {
      t.values.push_back(
          static_cast<Value>(rng.below(static_cast<std::uint64_t>(domain))));
    }
    arrivals.push_back(std::move(t));
  }
  return arrivals;
}

// ---------------------------------------------------------------------------
// One query is the single-query engine: a golden recorded from the
// dedicated single-query executor the engine replaced.
// ---------------------------------------------------------------------------

/// One query whose predicate order puts a higher attribute id first in
/// Gateways' JAS (zone, then device), run with a one-attribute initial
/// config: narrower than Gateways' two-attribute JAS.
RunResult one_query_golden_run() {
  const std::vector<Schema> catalog = {
      Schema("Sensors", {"device", "battery", "reading"}),
      Schema("Gateways", {"device", "zone", "load"}),
      Schema("Alerts", {"zone", "severity"}),
  };
  const ParsedQuery parsed = parse_query(
      "SELECT COUNT(*) FROM Sensors S, Gateways G, Alerts A "
      "WHERE G.zone = A.zone AND S.device = G.device WINDOW 5",
      catalog);
  std::vector<Tuple> arrivals;
  Rng rng(23);
  for (std::size_t i = 0; i < 6000; ++i) {
    const auto stream = static_cast<StreamId>(rng.below(3));
    const TimeMicros ts = static_cast<TimeMicros>(i) * 5000;  // 200/s
    const auto seq = static_cast<TupleSeq>(i);
    // Half the device ids come from a small hot set.
    const auto device =
        static_cast<Value>(rng.below(rng.chance(0.5) ? 8 : 120));
    const auto zone = static_cast<Value>(rng.below(40));
    const auto other = static_cast<Value>(rng.below(100));
    if (stream == 0) {
      arrivals.push_back(testutil::make_tuple({device, other, other}, seq,
                                              ts, stream));
    } else if (stream == 1) {
      arrivals.push_back(
          testutil::make_tuple({device, zone, other}, seq, ts, stream));
    } else {
      arrivals.push_back(testutil::make_tuple({zone, other}, seq, ts, stream));
    }
  }
  ExecutorOptions o;
  o.duration = seconds_to_micros(30);
  o.sample_every = seconds_to_micros(10);
  o.stem.backend = IndexBackend::kAmri;
  o.stem.initial_config = index::IndexConfig({2});
  tuner::TunerOptions topts;
  topts.reassess_every = 150;
  topts.theta = 0.1;
  topts.optimizer.bit_budget = 6;
  o.stem.amri_tuner = topts;
  ScriptedSource src(std::move(arrivals));
  Executor ex(parsed.query, std::move(o));
  return ex.run(src);
}

// A one-query run keeps the query's own JAS order (Gateways: zone, device)
// and the STeM's rule for a too-narrow initial config (start Gateways from
// zero bits); spreading the bit budget over the JAS, or sorting it, changes
// every number below.
TEST(MultiQueryDifferential, OneQueryMatchesSingleQueryGolden) {
  const RunResult r = one_query_golden_run();
  EXPECT_EQ(r.outputs, 547479u);
  EXPECT_DOUBLE_EQ(r.charged_us, 129445.89000404639);
  EXPECT_EQ(r.routing_decisions, 91447u);
  ASSERT_EQ(r.states.size(), 3u);
  const std::uint64_t migrations[] = {1, 76, 1};
  const char* final_index[] = {"bit_address[A:6]", "bit_address[A:6 B:0]",
                               "bit_address[A:6]"};
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(r.states[s].migrations, migrations[s]) << "stream " << s;
    EXPECT_EQ(r.states[s].final_index, final_index[s]) << "stream " << s;
  }
}

// ---------------------------------------------------------------------------
// Attribute-disjoint queries ≡ N independent single-query runs, per grid
// point.
// ---------------------------------------------------------------------------

TEST(MultiQueryDifferential, DisjointQueriesEqualIndependentRuns) {
  const std::size_t n_attrs = 3;
  const auto queries =
      make_queries(3, n_attrs, /*disjoint=*/true, seconds_to_micros(20.025));
  const auto arrivals = make_arrivals(900, n_attrs, 5, 29);

  for (const std::size_t batch : kBatchGrid) {
    std::vector<std::uint64_t> alone;
    for (const QuerySpec& q : queries) {
      ScriptedSource src(arrivals);
      Executor ex(q, grid_options(batch, n_attrs));
      alone.push_back(ex.run(src).outputs);
    }

    ScriptedSource src(arrivals);
    MultiQueryExecutor multi(queries, grid_options(batch, n_attrs));
    const MultiRunResult r = multi.run(src);
    ASSERT_EQ(r.per_query_outputs.size(), alone.size()) << label(batch);
    std::uint64_t sum = 0;
    for (std::size_t qi = 0; qi < alone.size(); ++qi) {
      EXPECT_EQ(r.per_query_outputs[qi], alone[qi])
          << label(batch) << " query " << qi;
      sum += r.per_query_outputs[qi];
    }
    EXPECT_EQ(r.combined.outputs, sum) << label(batch);
    // Every sample carries the per-query attribution, and the final one is
    // the run total.
    ASSERT_FALSE(r.combined.samples.empty()) << label(batch);
    for (const Sample& s : r.combined.samples) {
      ASSERT_EQ(s.per_query_outputs.size(), alone.size()) << label(batch);
    }
    EXPECT_EQ(r.combined.samples.back().per_query_outputs,
              r.per_query_outputs)
        << label(batch);
  }
}

// ---------------------------------------------------------------------------
// Overlapping-JAS queries: every grid point matches the tuple-at-a-time
// reference.
// ---------------------------------------------------------------------------

TEST(MultiQueryDifferential, OverlappingQueriesGridMatchesTupleAtATime) {
  const std::size_t n_attrs = 3;
  const auto queries =
      make_queries(3, n_attrs, /*disjoint=*/false, seconds_to_micros(15.025));
  const auto arrivals = make_arrivals(900, n_attrs, 4, 41);

  ScriptedSource ref_src(arrivals);
  MultiQueryExecutor ref_ex(queries, grid_options(/*batch=*/1, n_attrs));
  const MultiRunResult ref = ref_ex.run(ref_src);

  for (const std::size_t batch : kBatchGrid) {
    ScriptedSource src(arrivals);
    MultiQueryExecutor ex(queries, grid_options(batch, n_attrs));
    const MultiRunResult r = ex.run(src);
    EXPECT_EQ(r.per_query_outputs, ref.per_query_outputs) << label(batch);
    EXPECT_EQ(r.combined.outputs, ref.combined.outputs) << label(batch);
  }
}

// ---------------------------------------------------------------------------
// Tuner decisions on the shared state carry per-query attribution, and the
// per-sample per-query deltas reach the telemetry sample events.
// ---------------------------------------------------------------------------

TEST(MultiQueryDifferential, TunerDecisionsCarryPerQueryShares) {
  const std::size_t n_attrs = 3;
  const auto queries =
      make_queries(2, n_attrs, /*disjoint=*/true, seconds_to_micros(30));
  const auto arrivals = make_arrivals(1500, n_attrs, 6, 7);

  telemetry::Telemetry tel;
  ExecutorOptions o = grid_options(/*batch=*/1, n_attrs);
  o.telemetry = &tel;
  MultiQueryExecutor ex(queries, o);
  ScriptedSource src(arrivals);
  const MultiRunResult r = ex.run(src);
  EXPECT_GT(r.combined.outputs, 0u);

  std::size_t decisions_with_shares = 0;
  std::size_t samples_with_per_query = 0;
  for (const telemetry::Event& e : tel.events().snapshot()) {
    if (e.kind == telemetry::EventKind::kTunerDecision &&
        e.payload.find("\"per_query\":[") != std::string::npos &&
        e.payload.find("\"query\":1") != std::string::npos) {
      ++decisions_with_shares;
    }
    if (e.kind == telemetry::EventKind::kSample &&
        e.payload.find("\"per_query\":[") != std::string::npos) {
      ++samples_with_per_query;
    }
  }
  EXPECT_GT(decisions_with_shares, 0u)
      << "no tuner decision carried per-query request shares";
  EXPECT_GT(samples_with_per_query, 0u)
      << "no sample event carried per-query output deltas";
}

// ---------------------------------------------------------------------------
// Per-query assessment-grid merging: the merged answer equals the
// unpartitioned assessment (exact kinds), and is invariant to how the
// queries' substreams interleave (all kinds) — the property behind
// "epoch decisions are identical for a fixed merged assessment".
// ---------------------------------------------------------------------------

struct QueryStream {
  AttrMask universe = 0;
  std::size_t queries = 2;
  std::vector<AttrMask> requests;     ///< in arrival (interleaved) order
  std::vector<std::size_t> owner;     ///< query attribution per request
};

QueryStream make_query_stream(Rng& rng) {
  QueryStream qs;
  const std::size_t attrs = 2 + rng.below(3);
  qs.universe = static_cast<AttrMask>((1u << attrs) - 1);
  qs.queries = 2 + rng.below(3);  // 2..4
  const std::size_t n = 2000 + rng.below(4000);
  // Each query favours its own hot pattern — the multi-query shape: the
  // union workload is diverse even though each substream is skewed.
  std::vector<AttrMask> hot;
  for (std::size_t q = 0; q < qs.queries; ++q) {
    hot.push_back(static_cast<AttrMask>(1 + rng.below(qs.universe)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t q = rng.below(qs.queries);
    qs.owner.push_back(q);
    qs.requests.push_back(
        rng.chance(0.75) ? hot[q]
                         : static_cast<AttrMask>(1 + rng.below(qs.universe)));
  }
  return qs;
}

/// Feed the interleaved stream into per-query assessors and merge.
assessment::AssessmentSnapshot merged_by_query(
    const QueryStream& qs, assessment::AssessorKind kind,
    const assessment::AssessorParams& params,
    const std::vector<std::size_t>& order) {
  std::vector<std::unique_ptr<assessment::Assessor>> parts;
  for (std::size_t q = 0; q < qs.queries; ++q) {
    parts.push_back(assessment::make_assessor(kind, qs.universe, params));
  }
  for (const std::size_t i : order) {
    parts[qs.owner[i]]->observe(qs.requests[i]);
  }
  std::vector<assessment::AssessmentSnapshot> snaps;
  snaps.reserve(parts.size());
  for (const auto& p : parts) snaps.push_back(p->snapshot());
  return assessment::merge_snapshots(snaps);
}

void expect_identical(const std::vector<assessment::AssessedPattern>& got,
                      const std::vector<assessment::AssessedPattern>& want,
                      std::size_t round, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what << " round " << round;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].mask, want[i].mask) << what << " round " << round;
    EXPECT_EQ(got[i].count, want[i].count) << what << " round " << round;
    EXPECT_DOUBLE_EQ(got[i].frequency, want[i].frequency)
        << what << " round " << round;
  }
}

TEST(MultiQueryAssessmentMerge, ExactKindsEqualUnpartitioned) {
  for (const auto kind :
       {assessment::AssessorKind::kSria, assessment::AssessorKind::kDia}) {
    Rng rng(kind == assessment::AssessorKind::kSria ? 61 : 62);
    for (std::size_t round = 0; round < 20; ++round) {
      const QueryStream qs = make_query_stream(rng);
      auto whole =
          assessment::make_assessor(kind, qs.universe, {});
      for (const AttrMask ap : qs.requests) whole->observe(ap);
      std::vector<std::size_t> order(qs.requests.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      const auto merged = merged_by_query(qs, kind, {}, order);
      EXPECT_EQ(merged.observed, whole->observed()) << "round " << round;
      for (const double theta : {0.05, 0.15, 0.3}) {
        expect_identical(assessment::snapshot_results(merged, theta),
                         whole->results(theta), round, "exact-vs-whole");
      }
    }
  }
}

TEST(MultiQueryAssessmentMerge, MergedAnswerInvariantToInterleaving) {
  // Every kind — including the compressing, order-sensitive CSRIA/CDIA:
  // each query's substream keeps ITS internal order, so the per-query
  // tables (and hence the merged assessment and the tuner decision it
  // feeds) cannot depend on how the queries' requests interleave.
  using assessment::AssessorKind;
  for (const auto kind : {AssessorKind::kSria, AssessorKind::kCsria,
                          AssessorKind::kDia, AssessorKind::kCdiaRandom}) {
    Rng rng(100 + static_cast<std::uint64_t>(kind));
    assessment::AssessorParams params;
    params.epsilon = 0.02;
    for (std::size_t round = 0; round < 10; ++round) {
      const QueryStream qs = make_query_stream(rng);
      // Order A: arrival order. Order B: a different interleaving that
      // preserves each query's substream order — process queries
      // round-robin from per-query FIFO lists.
      std::vector<std::size_t> order_a(qs.requests.size());
      for (std::size_t i = 0; i < order_a.size(); ++i) order_a[i] = i;
      std::vector<std::deque<std::size_t>> fifo(qs.queries);
      for (std::size_t i = 0; i < qs.requests.size(); ++i) {
        fifo[qs.owner[i]].push_back(i);
      }
      std::vector<std::size_t> order_b;
      order_b.reserve(qs.requests.size());
      bool any = true;
      while (any) {
        any = false;
        for (auto& f : fifo) {
          if (f.empty()) continue;
          order_b.push_back(f.front());
          f.pop_front();
          any = true;
        }
      }
      const auto merged_a = merged_by_query(qs, kind, params, order_a);
      const auto merged_b = merged_by_query(qs, kind, params, order_b);
      EXPECT_EQ(merged_a.observed, merged_b.observed) << "round " << round;
      for (const double theta : {0.05, 0.15}) {
        expect_identical(assessment::snapshot_results(merged_a, theta),
                         assessment::snapshot_results(merged_b, theta), round,
                         "interleaving");
      }
    }
  }
}

}  // namespace
}  // namespace amri::engine
