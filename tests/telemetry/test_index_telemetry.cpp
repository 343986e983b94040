// The index/state telemetry contract: bulk_load() must feed the same
// instruments insert() feeds (chain-length histogram, occupancy-imbalance
// gauge) instead of leaving them empty/stale, and the probe path must feed
// its own instrument — the per-state batch-size histogram
// (`stem.<s>.probe.batch_size`, one observation per probe call, 1 for a
// single probe).
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "../test_util.hpp"
#include "engine/executor.hpp"
#include "engine/stem.hpp"
#include "index/bit_address_index.hpp"
#include "telemetry/telemetry.hpp"

namespace amri::index {
namespace {

JoinAttributeSet jas3() { return JoinAttributeSet({0, 1, 2}); }

TEST(IndexTelemetry, BulkLoadFeedsChainHistogramAndImbalanceGauge) {
  telemetry::Telemetry tel;
  BitAddressIndex idx(jas3(), IndexConfig({3, 3, 2}), BitMapper::hashing(3));
  idx.bind_telemetry(&tel, "bulk.index");

  testutil::TuplePool pool(2000, 3, 40, 7);
  idx.bulk_load(pool.pointers());

  const auto* hist = tel.metrics().find_histogram("bulk.index.bucket.chain_len");
  ASSERT_NE(hist, nullptr);
  // One observation per occupied bucket, of its final chain length, so the
  // histogram sum is exactly the number of loaded tuples.
  EXPECT_EQ(hist->count(), idx.occupied_buckets());
  EXPECT_DOUBLE_EQ(hist->sum(), 2000.0);

  const auto* gauge = tel.metrics().find_gauge("bulk.index.occupancy.imbalance");
  ASSERT_NE(gauge, nullptr);
  EXPECT_GT(gauge->value(), 0.0);
  EXPECT_DOUBLE_EQ(gauge->value(), idx.occupancy().imbalance);
}

TEST(IndexTelemetry, BulkLoadMatchesInsertLoopGaugeReading) {
  testutil::TuplePool pool(500, 3, 25, 11);

  telemetry::Telemetry bulk_tel;
  BitAddressIndex bulk(jas3(), IndexConfig({2, 2, 2}), BitMapper::hashing(3));
  bulk.bind_telemetry(&bulk_tel, "idx");
  bulk.bulk_load(pool.pointers());

  telemetry::Telemetry loop_tel;
  BitAddressIndex loop(jas3(), IndexConfig({2, 2, 2}), BitMapper::hashing(3));
  loop.bind_telemetry(&loop_tel, "idx");
  for (const Tuple* t : pool.pointers()) loop.insert(t);

  // Same tuples, same IC: the final gauge readings must agree even though
  // insert() refreshes nothing (the gauge is set at structural transitions)
  // — compare against a reconfigure-driven refresh on the loop index.
  loop.reconfigure(IndexConfig({2, 2, 2}));
  const auto* bulk_gauge = bulk_tel.metrics().find_gauge("idx.occupancy.imbalance");
  const auto* loop_gauge = loop_tel.metrics().find_gauge("idx.occupancy.imbalance");
  ASSERT_NE(bulk_gauge, nullptr);
  ASSERT_NE(loop_gauge, nullptr);
  EXPECT_DOUBLE_EQ(bulk_gauge->value(), loop_gauge->value());

  // The bulk chain histogram observes each bucket once; the insert-loop
  // histogram observes every intermediate chain length. Their sums differ,
  // but both must be non-empty and the bulk count must equal the bucket
  // count exactly.
  const auto* bulk_hist = bulk_tel.metrics().find_histogram("idx.bucket.chain_len");
  const auto* loop_hist = loop_tel.metrics().find_histogram("idx.bucket.chain_len");
  ASSERT_NE(bulk_hist, nullptr);
  ASSERT_NE(loop_hist, nullptr);
  EXPECT_EQ(bulk_hist->count(), bulk.occupied_buckets());
  EXPECT_EQ(loop_hist->count(), 500u);
}

TEST(IndexTelemetry, ReconfigureRefreshesImbalanceGauge) {
  telemetry::Telemetry tel;
  BitAddressIndex idx(jas3(), IndexConfig({4, 0, 0}), BitMapper::hashing(3));
  idx.bind_telemetry(&tel, "idx");
  testutil::TuplePool pool(800, 3, 50, 13);
  idx.bulk_load(pool.pointers());
  const auto* gauge = tel.metrics().find_gauge("idx.occupancy.imbalance");
  ASSERT_NE(gauge, nullptr);
  const double before = gauge->value();
  EXPECT_DOUBLE_EQ(before, idx.occupancy().imbalance);

  idx.reconfigure(IndexConfig({2, 2, 2}));
  EXPECT_DOUBLE_EQ(gauge->value(), idx.occupancy().imbalance);
}

TEST(IndexTelemetry, DetachedBulkLoadIsSilentAndSafe) {
  BitAddressIndex idx(jas3(), IndexConfig({3, 2, 1}), BitMapper::hashing(3));
  testutil::TuplePool pool(300, 3, 30, 17);
  idx.bulk_load(pool.pointers());  // no telemetry bound: must not crash
  EXPECT_EQ(idx.size(), 300u);
  idx.check_invariants();
}

TEST(IndexTelemetry, BindNullDetachesInstruments) {
  telemetry::Telemetry tel;
  BitAddressIndex idx(jas3(), IndexConfig({3, 2, 1}), BitMapper::hashing(3));
  idx.bind_telemetry(&tel, "idx");
  idx.bind_telemetry(nullptr, "");
  testutil::TuplePool pool(100, 3, 30, 19);
  idx.bulk_load(pool.pointers());
  // The registry keeps the instruments, but nothing fed them post-detach.
  const auto* hist = tel.metrics().find_histogram("idx.bucket.chain_len");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 0u);
}

TEST(IndexTelemetry, StemBatchSizeHistogramRecordsKeysPerBatch) {
  telemetry::Telemetry tel;
  const engine::QuerySpec q =
      engine::make_complete_join_query(2, seconds_to_micros(1000));
  engine::StemOptions so;
  so.backend = engine::IndexBackend::kAmri;
  so.initial_config = IndexConfig({2});
  engine::StemOperator stem(0, q.layout(0), q.window(), so,
                            CostModel(WorkloadParams{}), nullptr, nullptr,
                            &tel);
  testutil::TuplePool pool(200, 1, 12, 29);
  std::vector<const Tuple*> stored;
  std::vector<Tuple> arrivals;
  for (const Tuple* t : pool.pointers()) arrivals.push_back(*t);
  stem.insert_batch(arrivals.data(), arrivals.size(), stored);

  const std::size_t n = 24;
  std::vector<ProbeKey> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i].mask = 0b1;
    keys[i].values = {static_cast<Value>(i % 12)};
  }
  std::vector<std::vector<const Tuple*>> outs(n);
  std::vector<ProbeStats> stats(n);
  stem.probe_batch(keys.data(), n, outs.data(), stats.data());

  const auto* hist = tel.metrics().find_histogram("stem.0.probe.batch_size");
  ASSERT_NE(hist, nullptr);
  // One observation per probe_batch call, of the whole batch's size (the
  // tuner-boundary chunking underneath does not re-observe).
  EXPECT_EQ(hist->count(), 1u);
  EXPECT_DOUBLE_EQ(hist->sum(), static_cast<double>(n));
  // The per-probe counter still advances once per key.
  const auto* probes = tel.metrics().find_counter("stem.0.probe.count");
  ASSERT_NE(probes, nullptr);
  EXPECT_EQ(probes->value(), n);
}

// At batch size 1 every probe is a single probe() call, and each one is a
// one-key observation of the batch-size histogram.
TEST(IndexTelemetry, StemBatchSizeHistogramCountsSingleProbes) {
  class Arrivals final : public engine::TupleSource {
   public:
    std::optional<Tuple> next() override {
      if (i_ == 400) return std::nullopt;
      const auto i = static_cast<Value>(i_++);
      return testutil::make_tuple({i % 7, i % 5}, static_cast<TupleSeq>(i),
                                  seconds_to_micros(0.05 * i),
                                  static_cast<StreamId>(i % 3));
    }

   private:
    std::size_t i_ = 0;
  };
  telemetry::Telemetry tel;
  engine::ExecutorOptions o;
  o.duration = seconds_to_micros(30);
  o.stem.backend = engine::IndexBackend::kAmri;
  o.telemetry = &tel;
  engine::Executor ex(
      engine::make_complete_join_query(3, seconds_to_micros(5)), o);
  Arrivals source;
  ex.run(source);

  for (std::size_t s = 0; s < 3; ++s) {
    const std::string prefix = "stem." + std::to_string(s) + ".probe.";
    const auto* hist = tel.metrics().find_histogram(prefix + "batch_size");
    const auto* probes = tel.metrics().find_counter(prefix + "count");
    ASSERT_NE(hist, nullptr) << s;
    ASSERT_NE(probes, nullptr) << s;
    EXPECT_GT(probes->value(), 0u) << s;
    EXPECT_EQ(hist->count(), probes->value()) << s;
    EXPECT_DOUBLE_EQ(hist->max_observed(), 1.0) << s;
  }
}

}  // namespace
}  // namespace amri::index
