// The batched probe contract (TupleIndex::probe_batch): both
// implementations — the default per-key loop (which BitAddressIndex
// inherits, reached here through virtual dispatch and through an explicit
// base call) and ShardedBitIndex's per-shard dispatch — must reproduce N
// single probe() calls exactly: same per-key match vectors (same order),
// same per-key ProbeStats, same summed ProbeStats, and the same cost-meter
// counters. Exercised under random index configurations and random access
// patterns, including the empty mask (full fan-out) and fully-bound keys.
#include <gtest/gtest.h>

#include <vector>

#include "../test_util.hpp"
#include "common/cost_meter.hpp"
#include "common/rng.hpp"
#include "index/bit_address_index.hpp"
#include "index/sharded_bit_index.hpp"

namespace amri::index {
namespace {

TEST(ProbeStats, AccumulatesComponentwise) {
  ProbeStats a{1, 2, 3};
  const ProbeStats b{10, 20, 30};
  a += b;
  EXPECT_EQ(a.buckets_visited, 11u);
  EXPECT_EQ(a.tuples_compared, 22u);
  EXPECT_EQ(a.matches, 33u);
  (a += b) += b;  // returns *this, so accumulation chains
  EXPECT_EQ(a.matches, 93u);
}

IndexConfig random_config(Rng& rng) {
  std::vector<std::uint8_t> bits(3);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.below(4));
  return IndexConfig(bits);
}

std::vector<ProbeKey> random_keys(Rng& rng, std::size_t n,
                                  const std::vector<const Tuple*>& live,
                                  const JoinAttributeSet& jas, Value domain) {
  std::vector<ProbeKey> keys(n);
  for (auto& key : keys) {
    key.mask = static_cast<AttrMask>(rng.below(8));  // includes 0 (fan-out)
    for (std::size_t pos = 0; pos < 3; ++pos) {
      const Value v =
          (!live.empty() && rng.chance(0.6))
              ? live[rng.below(live.size())]->at(jas.tuple_attr(pos))
              : static_cast<Value>(rng.below(static_cast<std::uint64_t>(domain)));
      key.values.push_back(v);
    }
  }
  return keys;
}

struct MeterSnapshot {
  std::uint64_t hashes, compares, bucket_visits;
  explicit MeterSnapshot(const CostMeter& m)
      : hashes(m.hashes()),
        compares(m.compares()),
        bucket_visits(m.bucket_visits()) {}
  bool operator==(const MeterSnapshot& o) const {
    return hashes == o.hashes && compares == o.compares &&
           bucket_visits == o.bucket_visits;
  }
};

/// One round: same tuples into four identically-configured indexes, one
/// random key batch, all probe paths compared key-by-key and on meters.
void run_round(std::uint64_t seed, std::size_t shards) {
  const Value kDomain = 24;
  Rng rng(seed);
  const JoinAttributeSet jas({0, 1, 2});
  const IndexConfig config = random_config(rng);
  const BitMapper mapper = BitMapper::hashing(3);

  CostMeter ref_meter, batched_meter, default_meter, sharded_meter;
  BitAddressIndex ref(jas, config, mapper, &ref_meter);
  BitAddressIndex batched(jas, config, mapper, &batched_meter);
  BitAddressIndex defaulted(jas, config, mapper, &default_meter);
  ShardedBitIndex sharded(jas, config, mapper, shards, /*shard_pos=*/1,
                          /*pool=*/nullptr, &sharded_meter);
  CostMeter sharded_ref_meter;
  ShardedBitIndex sharded_ref(jas, config, mapper, shards, /*shard_pos=*/1,
                              /*pool=*/nullptr, &sharded_ref_meter);

  testutil::TuplePool pool(600, 3, static_cast<int>(kDomain), seed + 1);
  const auto live = pool.pointers();
  for (const Tuple* t : live) {
    ref.insert(t);
    batched.insert(t);
    defaulted.insert(t);
    sharded.insert(t);
    sharded_ref.insert(t);
  }
  // Insertion charges differ between wrapper and plain index; probes are
  // what this test compares, so zero everything here.
  ref_meter.reset_counts();
  batched_meter.reset_counts();
  default_meter.reset_counts();
  sharded_meter.reset_counts();
  sharded_ref_meter.reset_counts();

  const std::size_t n = 64 + rng.below(64);
  const auto keys = random_keys(rng, n, live, jas, kDomain);

  std::vector<std::vector<const Tuple*>> want(n);
  std::vector<ProbeStats> want_stats(n);
  for (std::size_t i = 0; i < n; ++i) {
    want_stats[i] = ref.probe(keys[i], want[i]);
  }
  std::vector<std::vector<const Tuple*>> sh_want(n);
  std::vector<ProbeStats> sh_want_stats(n);
  for (std::size_t i = 0; i < n; ++i) {
    sh_want_stats[i] = sharded_ref.probe(keys[i], sh_want[i]);
  }

  std::vector<std::vector<const Tuple*>> got_batched(n), got_default(n),
      got_sharded(n);
  std::vector<ProbeStats> batched_stats(n), default_stats(n), sharded_stats(n);
  batched.probe_batch(keys.data(), n, got_batched.data(), batched_stats.data());
  defaulted.TupleIndex::probe_batch(keys.data(), n, got_default.data(),
                                    default_stats.data());
  sharded.probe_batch(keys.data(), n, got_sharded.data(), sharded_stats.data());

  ProbeStats want_sum, batched_sum, default_sum, sharded_sum;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got_batched[i], want[i]) << "batched matches, key " << i;
    EXPECT_EQ(got_default[i], want[i]) << "default matches, key " << i;
    EXPECT_EQ(got_sharded[i], sh_want[i]) << "sharded matches, key " << i;
    EXPECT_EQ(batched_stats[i].buckets_visited, want_stats[i].buckets_visited)
        << "key " << i;
    EXPECT_EQ(batched_stats[i].tuples_compared, want_stats[i].tuples_compared)
        << "key " << i;
    EXPECT_EQ(batched_stats[i].matches, want_stats[i].matches) << "key " << i;
    EXPECT_EQ(default_stats[i].matches, want_stats[i].matches) << "key " << i;
    EXPECT_EQ(sharded_stats[i].buckets_visited,
              sh_want_stats[i].buckets_visited)
        << "key " << i;
    EXPECT_EQ(sharded_stats[i].tuples_compared,
              sh_want_stats[i].tuples_compared)
        << "key " << i;
    EXPECT_EQ(sharded_stats[i].matches, sh_want_stats[i].matches)
        << "key " << i;
    want_sum += want_stats[i];
    batched_sum += batched_stats[i];
    default_sum += default_stats[i];
    sharded_sum += sharded_stats[i];
  }
  EXPECT_EQ(batched_sum.matches, want_sum.matches);
  EXPECT_EQ(batched_sum.tuples_compared, want_sum.tuples_compared);
  EXPECT_EQ(batched_sum.buckets_visited, want_sum.buckets_visited);
  EXPECT_EQ(default_sum.matches, want_sum.matches);
  EXPECT_EQ(sharded_sum.matches, batched_sum.matches)
      << "partitioning must not change the match count";

  // Cost parity: every batch path charges exactly what sequential probes
  // charge, so the meters agree exactly.
  EXPECT_TRUE(MeterSnapshot(batched_meter) == MeterSnapshot(ref_meter))
      << "batched charges diverge from sequential probes";
  EXPECT_TRUE(MeterSnapshot(default_meter) == MeterSnapshot(ref_meter))
      << "default batch loop charges diverge from sequential probes";
  EXPECT_TRUE(MeterSnapshot(sharded_meter) == MeterSnapshot(sharded_ref_meter))
      << "sharded batch charges diverge from sequential sharded probes";
}

TEST(ProbeBatch, MatchesSequentialProbesUnsharded) {
  for (std::uint64_t seed = 40; seed < 48; ++seed) run_round(seed, 1);
}

TEST(ProbeBatch, MatchesSequentialProbesSharded) {
  for (std::uint64_t seed = 50; seed < 56; ++seed) run_round(seed, 4);
  run_round(77, 7);
}

TEST(ProbeBatch, SingleKeyAndEmptyBatchDegenerate) {
  const JoinAttributeSet jas({0, 1, 2});
  BitAddressIndex idx(jas, IndexConfig({2, 1, 1}), BitMapper::hashing(3));
  testutil::TuplePool pool(50, 3, 8, 5);
  for (const Tuple* t : pool.pointers()) idx.insert(t);
  ProbeKey key;
  key.mask = 0b101;
  key.values = {pool.at(0)->at(0), 0, pool.at(0)->at(2)};
  std::vector<const Tuple*> single, batched;
  const ProbeStats want = idx.probe(key, single);
  ProbeStats got{};
  idx.probe_batch(&key, 1, &batched, &got);
  EXPECT_EQ(batched, single);
  EXPECT_EQ(got.matches, want.matches);
  idx.probe_batch(&key, 0, nullptr, nullptr);  // n == 0 is a no-op
}

}  // namespace
}  // namespace amri::index
