// MICRO-BATCH-PIPELINE — the batched probe path measured on real hardware
// with google-benchmark, sweeping batch size x shard count over probe
// churn (the steady state: window rotation + probes). Batch = 1 is the
// tuple-at-a-time baseline (single probe() calls); larger batches go
// through probe_batch, which pays the per-probe dispatch work — shard
// fan-out submit/wait and per-shard locking — once per batch instead of
// once per tuple. The modelled cost is identical by construction (the
// differential tests assert it); what this measures is the *wall-clock*
// amortisation.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "index/sharded_bit_index.hpp"

namespace {

using namespace amri;
using namespace amri::index;

constexpr std::size_t kWindow = 100000;  ///< stored tuples per benchmark
constexpr std::int64_t kDomain = 50000;

std::vector<std::unique_ptr<Tuple>> make_tuples(std::size_t n,
                                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::unique_ptr<Tuple>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto t = std::make_unique<Tuple>();
    t->seq = i;
    t->ts = static_cast<TimeMicros>(i);
    for (int a = 0; a < 2; ++a) {
      t->values.push_back(
          static_cast<Value>(rng.below(static_cast<std::uint64_t>(kDomain))));
    }
    out.push_back(std::move(t));
  }
  return out;
}

JoinAttributeSet jas2() { return JoinAttributeSet({0, 1}); }

/// Steady-state probe churn on a full 100k-tuple window: each benchmark
/// iteration rotates the window by `batch` tuples and answers `batch`
/// probes that leave the sharding attribute unbound (the fan-out route —
/// the worst case for per-probe dispatch). All index bits sit on the
/// probed attribute, so the per-key index work is one small bucket and the
/// dispatch overhead dominates; batch = 1 runs the plain probe() loop,
/// batch > 1 runs one probe_batch (one ThreadPool task per shard per
/// batch). items_per_second counts tuples, so runs are comparable across
/// batch sizes.
void BM_BatchPipeline_ProbeChurn(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  const auto tuples = make_tuples(2 * kWindow, 7);
  ThreadPool pool;
  ShardedBitIndex idx(jas2(), IndexConfig({0, 17}), BitMapper::hashing(2),
                      shards, /*shard_pos=*/0,
                      shards > 1 ? &pool : nullptr);
  for (std::size_t i = 0; i < kWindow; ++i) idx.insert(tuples[i].get());

  Rng rng(11);
  std::size_t oldest = 0;
  std::size_t next = kWindow;
  std::vector<ProbeKey> keys(batch);
  std::vector<std::vector<const Tuple*>> outs(batch);
  std::vector<ProbeStats> stats(batch);
  std::uint64_t matches = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      idx.erase(tuples[oldest].get());
      oldest = (oldest + 1) % tuples.size();
      idx.insert(tuples[next].get());
      next = (next + 1) % tuples.size();
      keys[i].mask = 0b10;  // sharding attribute unbound -> fan out
      keys[i].values.clear();
      keys[i].values.push_back(0);
      keys[i].values.push_back(tuples[rng.below(tuples.size())]->at(1));
      outs[i].clear();
      stats[i] = ProbeStats{};
    }
    if (batch == 1) {
      stats[0] = idx.probe(keys[0], outs[0]);
    } else {
      idx.probe_batch(keys.data(), batch, outs.data(), stats.data());
    }
    for (std::size_t i = 0; i < batch; ++i) matches += stats[i].matches;
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
  state.counters["matches_per_probe"] = benchmark::Counter(
      static_cast<double>(matches),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BatchPipeline_ProbeChurn)
    ->ArgNames({"batch", "shards"})
    ->Args({1, 1})
    ->Args({16, 1})
    ->Args({64, 1})
    ->Args({256, 1})
    ->Args({1, 4})
    ->Args({16, 4})
    ->Args({64, 4})
    ->Args({256, 4})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

AMRI_BENCHMARK_MAIN()
