// End-to-end differential equivalence for the batched execution pipeline:
// a run with --batch-size > 1 must be observationally identical to the
// tuple-at-a-time run (batch size 1) — same join-result multiset, same
// collected rows, same WHERE-filtered count, same final tuner IC per
// state, same migration counts, the same warm-up boundary sample, and the
// same *modelled cost* down to the meter's exact operation counters —
// across batch {1, 16, 256} and shard {1, 4} combinations.
//
// Divergence channels are pinned the same way as the sharded differential
// harness (kFixed routing, SRIA/DIA assessors, window off the arrival
// grid), with one addition: arrivals come in *bursts* of ~25 tuples that
// share a timestamp, 1.25 s apart. Bursts are what make batches actually
// form (the executor only drains arrivals that are already due), and the
// 25 ms slack between the expiry horizon and the burst grid dwarfs the
// sub-millisecond virtual-time skew from expiring once per batch instead
// of once per tuple, so both runs expire identical tuple sets.
// charged_us is compared with a tolerance: the per-operation charge
// *counts* are exactly equal (asserted), but summing the same charges in a
// different order rounds differently in floating point.
//
// One deliberate exception: >= 3-stream scenarios whose tuner migrates
// mid-batch compare the probe-work counters with a 0.1 % tolerance instead
// of equality — see Scenario::exact_probe_work for why that channel is
// inherent to level-order batching rather than a bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "../test_util.hpp"
#include "common/rng.hpp"
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

struct Observed {
  std::uint64_t outputs = 0;
  std::uint64_t arrivals_filtered = 0;
  std::vector<std::vector<TupleSeq>> results;  ///< sorted member-seq lists
  std::vector<std::vector<Value>> rows;        ///< sorted collected rows
  /// The first sample; with a warm-up it is the boundary's t = 0 sample
  /// (without one it is a mid-run sample, whose backlog depends on how
  /// the schedule batches).
  Sample first_sample;
  std::vector<std::string> final_ics;
  std::vector<std::uint64_t> migrations;
  std::uint64_t total_migrations = 0;
  // The six exact meter counters plus the (order-sensitive) charged total.
  std::uint64_t hashes = 0, compares = 0, routes = 0;
  std::uint64_t inserts = 0, deletes = 0, bucket_visits = 0;
  double charged_us = 0.0;
};

struct Scenario {
  std::string name;
  std::size_t streams = 3;
  std::size_t num_attrs = 2;
  std::size_t tuples = 1600;
  std::size_t burst = 25;  ///< arrivals sharing each timestamp
  std::uint64_t seed = 1;
  Value domain = 6;
  bool with_selection = false;  ///< WHERE filter on stream 0
  double warmup_s = 0.0;        ///< training prefix before measurement
  assessment::AssessorKind assessor = assessment::AssessorKind::kSria;
  tuner::StatsRetention retention = tuner::StatsRetention::kReset;
  std::uint64_t reassess_every = 150;
  double first_half_s0 = 0.8;
  double second_half_s0 = 0.2;
  /// When true, the probe-work counters (hashes, compares, bucket visits)
  /// must be bit-identical across batch sizes. This holds unconditionally
  /// for 2-stream joins: every routing tree has depth 1, so each STeM sees
  /// its probe requests in exactly arrival order under both the sequential
  /// and the level-order batched schedule. For >= 3-stream joins the two
  /// schedules permute each STeM's request stream (level-order partitions
  /// vs depth-first descent), and when a tuner migration fires *mid-batch*
  /// — after the same per-STeM request count in both runs, so cadence, IC
  /// choices, and migration counts still match — a handful of probes swap
  /// sides of the migration boundary and execute under the other IC. Set
  /// false for such scenarios: probe-work counters then get a tight
  /// relative tolerance instead of equality (see docs/architecture.md).
  bool exact_probe_work = true;
};

std::vector<Tuple> make_bursty_arrivals(const Scenario& sc) {
  std::vector<Tuple> tuples;
  Rng rng(sc.seed);
  for (std::size_t i = 0; i < sc.tuples; ++i) {
    Tuple t;
    const double s0_share =
        i < sc.tuples / 2 ? sc.first_half_s0 : sc.second_half_s0;
    t.stream = rng.chance(s0_share)
                   ? 0
                   : static_cast<StreamId>(1 + rng.below(sc.streams - 1));
    // Whole bursts share a timestamp 1.25 s apart: every burst is fully
    // due the moment the executor reaches it, so batch-size > 1 drains
    // real multi-tuple batches (and skewed stream shares give the
    // same-stream runs that insert_batch/route_batch vectorise over).
    t.ts = seconds_to_micros(1.25 * static_cast<double>(i / sc.burst));
    t.seq = static_cast<TupleSeq>(i);
    for (std::size_t a = 0; a < sc.num_attrs; ++a) {
      t.values.push_back(
          static_cast<Value>(rng.below(static_cast<std::uint64_t>(sc.domain))));
    }
    tuples.push_back(t);
  }
  return tuples;
}

Observed run_scenario(const Scenario& sc, std::size_t batch,
                      std::size_t shards) {
  // 30.025 s: 25 ms past a burst timestamp, so the expiry horizon never
  // sits within the batch's virtual-time cost jitter of an arrival.
  QuerySpec q =
      make_complete_join_query(sc.streams, seconds_to_micros(30.025));
  if (sc.with_selection) {
    // Reject one domain value on stream 0 so the drain does real
    // selection work and some arrivals are filtered.
    q.set_selection(0, Selection({FilterPredicate{0, CompareOp::kNe, 2}}));
  }
  ExecutorOptions o;
  const double span = 1.25 * static_cast<double>(sc.tuples / sc.burst);
  o.warmup = seconds_to_micros(sc.warmup_s);
  o.duration = seconds_to_micros(span + 10 - sc.warmup_s);
  o.sample_every = seconds_to_micros(20);
  // Collect every measured row: a cap would cut the differently ordered
  // result streams of the two schedules at different results.
  o.collect_rows = true;
  o.max_collected_rows = std::size_t{1} << 30;
  o.batch_size = batch;
  o.stem.backend = IndexBackend::kAmri;
  o.stem.shards = shards;
  o.eddy.routing.kind = RoutingPolicyKind::kFixed;
  tuner::TunerOptions topts;
  topts.assessor = sc.assessor;
  topts.retention = sc.retention;
  topts.theta = 0.1;
  topts.reassess_every = sc.reassess_every;
  topts.optimizer.bit_budget = 4;
  topts.optimizer.max_bits_per_attr = 3;
  o.stem.amri_tuner = topts;

  Observed obs;
  o.on_result = [&obs](const JoinResult& jr) {
    std::vector<TupleSeq> key;
    key.reserve(jr.members.size());
    for (const Tuple* m : jr.members) key.push_back(m->seq);
    obs.results.push_back(std::move(key));
  };

  Executor ex(q, o);
  ScriptedSource src(make_bursty_arrivals(sc));
  const RunResult r = ex.run(src);

  obs.outputs = r.outputs;
  obs.arrivals_filtered = r.arrivals_filtered;
  std::sort(obs.results.begin(), obs.results.end());
  for (const auto& row : r.rows) {
    obs.rows.emplace_back(row.begin(), row.end());
  }
  std::sort(obs.rows.begin(), obs.rows.end());
  EXPECT_EQ(obs.rows.size(), r.outputs)
      << "rows are collected for measured results only";
  EXPECT_FALSE(r.samples.empty());
  if (!r.samples.empty()) obs.first_sample = r.samples.front();
  for (const StateSummary& s : r.states) {
    obs.migrations.push_back(s.migrations);
    obs.total_migrations += s.migrations;
  }
  for (const auto& stem : ex.stems()) {
    const index::IndexConfig* ic = stem->current_config();
    EXPECT_NE(ic, nullptr);
    obs.final_ics.push_back(ic ? ic->to_string() : "<none>");
    stem->check_invariants();
  }
  const CostMeter& m = ex.meter();
  obs.hashes = m.hashes();
  obs.compares = m.compares();
  obs.routes = m.routes();
  obs.inserts = m.inserts();
  obs.deletes = m.deletes();
  obs.bucket_visits = m.bucket_visits();
  obs.charged_us = m.charged_us();
  return obs;
}

void expect_equivalent(const Scenario& sc) {
  const Observed base = run_scenario(sc, /*batch=*/1, /*shards=*/1);
  // The scenario must exercise the interesting machinery, not hold
  // vacuously: results, mid-run migrations, and real routing work.
  EXPECT_GT(base.outputs, 0u) << sc.name;
  EXPECT_GT(base.total_migrations, 0u) << sc.name;
  EXPECT_GT(base.routes, 0u) << sc.name;
  if (sc.with_selection) {
    EXPECT_GT(base.arrivals_filtered, 0u) << sc.name;
  }
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    // Cost counters are compared within one shard count: a targeted probe
    // of a sharded state legitimately compares fewer co-residents than the
    // unpartitioned index (the sharded differential harness documents
    // this), so the batch-vs-tuple-at-a-time cost baseline is the batch=1
    // run at the SAME shard count.
    const Observed& shard_base =
        shards == 1 ? base : run_scenario(sc, /*batch=*/1, shards);
    if (sc.warmup_s > 0.0) {
      // The warm-up boundary's baseline sample: its backlog and memory
      // must not depend on how the measured phase batches. The boundary
      // must fall mid-burst, or draining ahead of it would go unnoticed.
      EXPECT_EQ(shard_base.first_sample.t, 0) << sc.name;
      EXPECT_GT(shard_base.first_sample.backlog, 0u) << sc.name;
      EXPECT_LT(shard_base.first_sample.backlog, sc.burst - 1) << sc.name;
    }
    if (shards != 1) {
      // Logical observables still match across shard counts. With a
      // warm-up, the measured phase starts at whichever arrival the
      // (cost-driven) clock reaches the boundary on, so the measured-phase
      // counts are compared within one shard count only.
      if (sc.warmup_s == 0.0) {
        EXPECT_EQ(shard_base.outputs, base.outputs) << sc.name;
      }
      EXPECT_EQ(shard_base.results, base.results) << sc.name;
      EXPECT_EQ(shard_base.final_ics, base.final_ics) << sc.name;
      EXPECT_EQ(shard_base.migrations, base.migrations) << sc.name;
    }
    for (const std::size_t batch : {std::size_t{16}, std::size_t{256}}) {
      const Observed got = run_scenario(sc, batch, shards);
      const std::string tag =
          sc.name + " batch=" + std::to_string(batch) + " shards=" +
          std::to_string(shards);
      EXPECT_EQ(got.outputs, shard_base.outputs) << tag;
      EXPECT_EQ(got.results, base.results) << tag;
      EXPECT_EQ(got.rows, shard_base.rows) << tag;
      EXPECT_EQ(got.arrivals_filtered, shard_base.arrivals_filtered) << tag;
      EXPECT_EQ(got.final_ics, base.final_ics) << tag;
      EXPECT_EQ(got.migrations, base.migrations) << tag;
      if (sc.warmup_s > 0.0) {
        EXPECT_EQ(got.first_sample.t, shard_base.first_sample.t) << tag;
        EXPECT_EQ(got.first_sample.backlog, shard_base.first_sample.backlog)
            << tag;
        EXPECT_EQ(got.first_sample.memory_bytes,
                  shard_base.first_sample.memory_bytes)
            << tag;
      }
      EXPECT_EQ(got.routes, shard_base.routes) << tag;
      EXPECT_EQ(got.inserts, shard_base.inserts) << tag;
      EXPECT_EQ(got.deletes, shard_base.deletes) << tag;
      if (sc.exact_probe_work) {
        EXPECT_EQ(got.hashes, shard_base.hashes) << tag;
        EXPECT_EQ(got.compares, shard_base.compares) << tag;
        EXPECT_EQ(got.bucket_visits, shard_base.bucket_visits) << tag;
        EXPECT_NEAR(got.charged_us, shard_base.charged_us,
                    1e-6 * shard_base.charged_us + 1e-6)
            << tag;
      } else {
        // Mid-batch migration boundaries reassign a few probes to the
        // other IC (see Scenario::exact_probe_work); observed drift is
        // a handful of compares out of hundreds of thousands, so 0.1 %
        // is a tight bound that still fails on any real regression.
        const auto near_count = [&](std::uint64_t got_v, std::uint64_t want_v,
                                    const char* what) {
          EXPECT_NEAR(static_cast<double>(got_v), static_cast<double>(want_v),
                      1e-3 * static_cast<double>(want_v) + 1.0)
              << tag << " " << what;
        };
        near_count(got.hashes, shard_base.hashes, "hashes");
        near_count(got.compares, shard_base.compares, "compares");
        near_count(got.bucket_visits, shard_base.bucket_visits,
                   "bucket_visits");
        EXPECT_NEAR(got.charged_us, shard_base.charged_us,
                    1e-3 * shard_base.charged_us + 1e-6)
            << tag;
      }
    }
  }
}

TEST(BatchDifferential, ThreeStreamDriftSria) {
  Scenario sc;
  sc.name = "batch-three-stream-sria";
  sc.seed = 404;
  sc.retention = tuner::StatsRetention::kKeep;
  expect_equivalent(sc);
}

// Two streams: every routing tree has depth 1, so the batched schedule is
// provably a per-STeM order-preserving permutation of the sequential one
// and even mid-batch migrations cannot move probes across an IC boundary —
// all cost counters must be bit-identical (Scenario::exact_probe_work).
TEST(BatchDifferential, TwoStreamDiaDrift) {
  Scenario sc;
  sc.name = "batch-two-stream-dia";
  sc.streams = 2;
  sc.tuples = 1500;
  sc.seed = 505;
  sc.domain = 7;
  sc.assessor = assessment::AssessorKind::kDia;
  sc.retention = tuner::StatsRetention::kReset;
  sc.first_half_s0 = 0.7;
  sc.second_half_s0 = 0.15;
  expect_equivalent(sc);
}

// A WHERE selection and a warm-up prefix: filtered counts and collected
// rows must match, and the boundary's t = 0 sample must not move — before
// the boundary every batch size drains one arrival at a time, and the
// boundary arrival is popped (and the queue memory synced) before the
// baseline sample is taken. The warm-up ends 30 us of modelled work into
// the burst due at t = 10 s, so the boundary falls after a few of its
// arrivals were processed; a schedule that drained a batch ahead of the
// boundary would find it later, with a different backlog.
TEST(BatchDifferential, TwoStreamDiaDriftWithSelectionAndWarmup) {
  Scenario sc;
  sc.name = "batch-two-stream-dia-selection";
  sc.streams = 2;
  sc.tuples = 1500;
  sc.seed = 505;
  sc.domain = 7;
  sc.with_selection = true;
  sc.warmup_s = 10.00003;
  sc.assessor = assessment::AssessorKind::kDia;
  sc.retention = tuner::StatsRetention::kReset;
  sc.first_half_s0 = 0.7;
  sc.second_half_s0 = 0.15;
  expect_equivalent(sc);
}

// kReset / kKeep retention only: kDecay is excluded for the same reason as
// in the sharded harness (per-entry truncation is not batching-invariant —
// see docs/architecture.md). Three streams with DIA drift reliably lands a
// migration mid-batch, so this is the scenario that exercises the
// probe-reorder tolerance path.
TEST(BatchDifferential, ThreeStreamDiaDrift) {
  Scenario sc;
  sc.name = "batch-three-stream-dia";
  sc.tuples = 1500;
  sc.seed = 505;
  sc.domain = 7;
  sc.assessor = assessment::AssessorKind::kDia;
  sc.retention = tuner::StatsRetention::kReset;
  sc.first_half_s0 = 0.7;
  sc.second_half_s0 = 0.15;
  sc.exact_probe_work = false;
  expect_equivalent(sc);
}

}  // namespace
}  // namespace amri::engine
