#include "engine/stem.hpp"

#include <cassert>
#include <string>
#include <utility>

#include "assessment/snapshot.hpp"
#include "common/assertions.hpp"
#include "index/access_pattern.hpp"

namespace amri::engine {

StemOperator::StemOperator(StreamId stream, const StateLayout& layout,
                           TimeMicros window, StemOptions options,
                           index::CostModel model, CostMeter* meter,
                           MemoryTracker* memory,
                           telemetry::Telemetry* telemetry)
    : stream_(stream),
      layout_(layout),
      window_(window),
      options_(std::move(options)),
      meter_(meter),
      memory_(memory),
      telemetry_(telemetry) {
  const std::size_t n = layout_.jas.size();
  index::BitMapper mapper = [&] {
    switch (options_.map_strategy) {
      case index::MapStrategy::kRange:
        return index::BitMapper::ranged(options_.domains);
      case index::MapStrategy::kQuantile: {
        auto samples = options_.quantile_samples;
        samples.resize(n);
        return index::BitMapper::quantile(std::move(samples));
      }
      case index::MapStrategy::kHash:
      default:
        return index::BitMapper::hashing(n);
    }
  }();
  switch (options_.backend) {
    case IndexBackend::kAmri:
    case IndexBackend::kStaticBitmap: {
      index::IndexConfig ic = options_.initial_config.num_attrs() == n
                                  ? options_.initial_config
                                  : index::IndexConfig::zero(n);
      const tuner::TunerOptions topts =
          options_.amri_tuner.value_or(tuner::TunerOptions{});
      auto idx = std::make_unique<index::BitAddressIndex>(
          layout_.jas, std::move(ic), std::move(mapper), meter_, memory_);
      bit_index_ = idx.get();
      index_ = std::move(idx);
      if (telemetry_ != nullptr) {
        bit_index_->bind_telemetry(
            telemetry_, "stem." + std::to_string(stream_) + ".index");
      }
      // Multi-query states keep one external assessor per query, merged at
      // tuning epochs so index selection still sees the one logical
      // request stream.
      if (options_.queries > 1) {
        query_assessors_.reserve(options_.queries);
        for (std::size_t q = 0; q < options_.queries; ++q) {
          query_assessors_.push_back(assessment::make_assessor(
              topts.assessor, layout_.jas.universe(), topts.assessor_params));
          if (telemetry_ != nullptr) {
            query_assessors_.back()->bind_telemetry(
                telemetry_, "stem." + std::to_string(stream_) + ".q" +
                                std::to_string(q) + ".assess");
          }
        }
        epoch_query_requests_.assign(options_.queries, 0);
      }
      // Static backends also carry a tuner so the warm-up phase can train
      // their starting configuration; finish_warmup() drops it.
      amri_tuner_ = std::make_unique<tuner::AmriTuner>(
          layout_.jas.universe(), n, model, topts, memory_, telemetry_,
          stream_);
      continuous_tuning_ = options_.backend == IndexBackend::kAmri;
      break;
    }
    case IndexBackend::kAccessModules:
    case IndexBackend::kStaticModules: {
      auto idx = std::make_unique<index::AccessModuleSet>(
          layout_.jas, options_.initial_modules, meter_, memory_);
      module_index_ = idx.get();
      index_ = std::move(idx);
      {
        tuner::HashTunerOptions topts =
            options_.module_tuner.value_or(tuner::HashTunerOptions{});
        module_tuner_ = std::make_unique<tuner::HashModuleTuner>(
            layout_.jas.universe(), topts, memory_);
      }
      continuous_tuning_ = options_.backend == IndexBackend::kAccessModules;
      break;
    }
    case IndexBackend::kScan:
      index_ = std::make_unique<index::ScanIndex>(layout_.jas, meter_, memory_);
      break;
  }
  if (telemetry_ != nullptr) {
    const std::string prefix = "stem." + std::to_string(stream_);
    auto& reg = telemetry_->metrics();
    profiler_ = telemetry_->profiler();
    probe_counter_ = &reg.counter(prefix + ".probe.count");
    probe_cost_hist_ = &reg.histogram(
        prefix + ".probe.cost_us",
        telemetry::Histogram::exponential_bounds(0.05, 2.0, 16));
    batch_size_hist_ = &reg.histogram(
        prefix + ".probe.batch_size",
        telemetry::Histogram::exponential_bounds(1.0, 2.0, 12));
  }
}

StemOperator::~StemOperator() {
  if (memory_ != nullptr && tracked_tuple_bytes_ > 0) {
    memory_->release(MemCategory::kStateTuples, tracked_tuple_bytes_);
  }
  if (memory_ != nullptr && tracked_stats_bytes_ > 0) {
    memory_->release(MemCategory::kStatistics, tracked_stats_bytes_);
  }
}

void StemOperator::sync_stats_memory() {
  if (memory_ == nullptr) return;
  std::size_t now = 0;
  for (const auto& a : query_assessors_) now += a->approx_bytes();
  if (now > tracked_stats_bytes_) {
    memory_->allocate(MemCategory::kStatistics, now - tracked_stats_bytes_);
  } else if (now < tracked_stats_bytes_) {
    memory_->release(MemCategory::kStatistics, tracked_stats_bytes_ - now);
  }
  tracked_stats_bytes_ = now;
}

void StemOperator::sync_tuple_memory() {
  if (memory_ == nullptr) return;
  // deque of tuples: payload plus modest container overhead per element.
  const std::size_t now = window_store_.size() * (sizeof(Tuple) + 8);
  if (now > tracked_tuple_bytes_) {
    memory_->allocate(MemCategory::kStateTuples, now - tracked_tuple_bytes_);
  } else if (now < tracked_tuple_bytes_) {
    memory_->release(MemCategory::kStateTuples, tracked_tuple_bytes_ - now);
  }
  tracked_tuple_bytes_ = now;
}

const Tuple* StemOperator::insert(const Tuple& t) {
  window_store_.push_back(t);
  index_->insert(&window_store_.back());
  sync_tuple_memory();
  return &window_store_.back();
}

void StemOperator::insert_batch(const Tuple* arrivals, std::size_t n,
                                std::vector<const Tuple*>& stored) {
  stored.reserve(stored.size() + n);
  for (std::size_t i = 0; i < n; ++i) {
    // deque::push_back never invalidates references to earlier elements,
    // so each stored pointer is stable for the rest of the batch.
    window_store_.push_back(arrivals[i]);
    index_->insert(&window_store_.back());
    stored.push_back(&window_store_.back());
  }
  sync_tuple_memory();
}

void StemOperator::expire(TimeMicros now) {
  const TimeMicros horizon = now - window_;
  while (!window_store_.empty() && window_store_.front().ts < horizon) {
    index_->erase(&window_store_.front());
    window_store_.pop_front();
  }
  sync_tuple_memory();
  AMRI_CHECK_INVARIANTS(*this);
}

void StemOperator::check_invariants() const {
  for (std::size_t i = 1; i < window_store_.size(); ++i) {
    AMRI_CHECK(window_store_[i - 1].ts <= window_store_[i].ts,
               "window store timestamps must be non-decreasing");
  }
  AMRI_CHECK(index_->size() == window_store_.size(),
             "physical index size disagrees with the window store");
  AMRI_CHECK(memory_ == nullptr ||
                 tracked_tuple_bytes_ ==
                     window_store_.size() * (sizeof(Tuple) + 8),
             "tuple memory accounting is stale");
  if (bit_index_ != nullptr) bit_index_->check_invariants();
}

telemetry::Histogram* StemOperator::pattern_histogram(AttrMask mask) {
  assert(telemetry_ != nullptr);  // only reached from telemetry-guarded code
  const auto it = pattern_hists_.find(mask);
  if (it != pattern_hists_.end()) return it->second;
  const std::string name =
      "stem." + std::to_string(stream_) + ".ap." +
      index::pattern_to_string(mask, layout_.jas.size()) + ".probe_us";
  // Lazy by necessity: the set of access patterns is only known once
  // probes arrive; the per-mask cache above keeps repeat lookups out of
  // the registry.
  auto* hist = &telemetry_->metrics().histogram(  // amri-lint: allow(AMRI006)
      name, telemetry::Histogram::exponential_bounds(0.05, 2.0, 16));
  pattern_hists_.emplace(mask, hist);
  return hist;
}

index::ProbeStats StemOperator::probe(const index::ProbeKey& key,
                                      std::vector<const Tuple*>& out) {
  index::ProbeStats stats;
  probe_batch(&key, 1, &out, &stats);
  return stats;
}

void StemOperator::probe_batch(const index::ProbeKey* keys, std::size_t n,
                               std::vector<const Tuple*>* outs,
                               index::ProbeStats* stats) {
  if (n == 0) return;
  if (batch_size_hist_ != nullptr) {
    batch_size_hist_->observe(static_cast<double>(n));
  }
  std::size_t pos = 0;
  while (pos < n) {
    std::size_t chunk = n - pos;
    if (continuous_tuning_) {
      // Stop the chunk at the tuner's decision boundary so a mid-batch
      // tuning decision fires at exactly the same request index as
      // tuple-at-a-time execution would fire it.
      std::uint64_t until = 0;
      if (amri_tuner_ != nullptr) {
        until = amri_tuner_->requests_until_due();
      } else if (module_tuner_ != nullptr) {
        until = module_tuner_->requests_until_due();
      }
      if (until == 0) until = 1;  // already due: decide after one request
      if (until < chunk) chunk = static_cast<std::size_t>(until);
    }
    probe_chunk(keys + pos, chunk, outs + pos, stats + pos);
    pos += chunk;
  }
}

void StemOperator::probe_chunk(const index::ProbeKey* keys, std::size_t n,
                               std::vector<const Tuple*>* outs,
                               index::ProbeStats* stats) {
  probes_ += n;
  const double charged_before =
      (telemetry_ != nullptr && meter_ != nullptr) ? meter_->charged_us() : 0.0;
  {
    telemetry::ScopedPhase probe_scope(profiler_, telemetry::Phase::kProbe);
    index_->probe_batch(keys, n, outs, stats);
  }
  if (telemetry_ != nullptr) {
    probe_counter_->add(n);
    if (meter_ != nullptr) {
      // Modelled probe latency: the virtual time the chunk charged to the
      // clock (hashes, bucket visits, comparisons), per access pattern. A
      // chunk is charged as one aggregate, so each key's histograms receive
      // the chunk average — one observation per probe.
      const double total = meter_->charged_us() - charged_before;
      const double avg = total / static_cast<double>(n);
      for (std::size_t i = 0; i < n; ++i) {
        probe_cost_hist_->observe(avg);
        pattern_histogram(keys[i].mask)->observe(avg);
      }
      // Feed the tuner's realized-cost accumulator before any decision
      // below closes the epoch.
      if (amri_tuner_ != nullptr) amri_tuner_->note_probe_cost(total, n);
    }
  }
  if (amri_tuner_ == nullptr && module_tuner_ == nullptr) return;
  // One weighted observe per access pattern, in first appearance order,
  // so the assessments match n single probes bit-for-bit for the additive
  // assessors.
  struct Obs {
    AttrMask mask;
    std::uint64_t weight;
  };
  SmallVector<Obs, 16> groups;
  for (std::size_t i = 0; i < n; ++i) {
    bool found = false;
    for (Obs& o : groups) {
      if (o.mask == keys[i].mask) {
        ++o.weight;
        found = true;
        break;
      }
    }
    if (!found) groups.push_back(Obs{keys[i].mask, 1});
  }
  if (amri_tuner_ != nullptr && !query_assessors_.empty()) {
    for (const Obs& o : groups) {
      query_assessors_[active_query_]->observe(o.mask, o.weight);
    }
    epoch_query_requests_[active_query_] += n;
    amri_tuner_->note_request(n);
    sync_stats_memory();
    if (continuous_tuning_ && amri_tuner_->tuning_due()) {
      merged_tune();
    }
  } else if (amri_tuner_ != nullptr) {
    for (const Obs& o : groups) {
      amri_tuner_->observe_request(o.mask, o.weight);
    }
    if (continuous_tuning_ && amri_tuner_->tuning_due()) {
      telemetry::ScopedPhase tune_scope(profiler_,
                                        telemetry::Phase::kTunerEpoch);
      amri_tuner_->maybe_tune(*bit_index_);
    }
  } else {
    for (const Obs& o : groups) {
      module_tuner_->observe_request(o.mask, o.weight);
    }
    if (continuous_tuning_ && module_tuner_->tuning_due()) {
      telemetry::ScopedPhase tune_scope(profiler_,
                                        telemetry::Phase::kTunerEpoch);
      module_tuner_->maybe_tune(*module_index_);
    }
  }
}

void StemOperator::merged_tune() {
  assert(!query_assessors_.empty() && amri_tuner_ != nullptr);
  assert(bit_index_ != nullptr);
  telemetry::ScopedPhase tune_scope(profiler_, telemetry::Phase::kTunerEpoch);
  tuner::ExternalAssessment external;
  {
    telemetry::ScopedPhase merge_scope(profiler_,
                                       telemetry::Phase::kSnapshotMerge);
    std::vector<assessment::AssessmentSnapshot> parts;
    parts.reserve(query_assessors_.size());
    for (const auto& a : query_assessors_) parts.push_back(a->snapshot());
    const auto merged = assessment::merge_snapshots(parts);
    external.frequent =
        assessment::snapshot_results(merged, amri_tuner_->options().theta);
    external.table_size = merged.entries.size();
    for (const auto& a : query_assessors_) {
      external.approx_bytes += a->approx_bytes();
    }
  }
  // Per-query attribution for the decision timeline, then roll the epoch.
  for (std::size_t q = 0; q < epoch_query_requests_.size(); ++q) {
    external.per_query.push_back(
        tuner::QueryShare{q, epoch_query_requests_[q]});
    epoch_query_requests_[q] = 0;
  }
  amri_tuner_->maybe_tune_external(*bit_index_, external);

  // Statistics retention, mirrored from AmriTuner::recommend() onto the
  // per-query assessors this stem owns.
  switch (amri_tuner_->options().retention) {
    case tuner::StatsRetention::kReset:
      for (auto& a : query_assessors_) a->reset();
      break;
    case tuner::StatsRetention::kKeep:
      break;
    case tuner::StatsRetention::kDecay:
      for (auto& a : query_assessors_) {
        a->decay(amri_tuner_->options().decay_factor);
      }
      break;
  }
  sync_stats_memory();
}

const index::IndexConfig* StemOperator::current_config() const {
  return bit_index_ != nullptr ? &bit_index_->config() : nullptr;
}

std::uint64_t StemOperator::migrations() const {
  return warmup_migrations_ +
         (amri_tuner_ != nullptr   ? amri_tuner_->migrations()
          : module_tuner_ != nullptr ? module_tuner_->retunes()
                                     : 0);
}

double StemOperator::migration_pause_us() const {
  return warmup_pause_us_ +
         (amri_tuner_ != nullptr ? amri_tuner_->migration_pause_us() : 0.0);
}

std::uint64_t StemOperator::suppressed() const {
  return warmup_suppressed_ +
         (amri_tuner_ != nullptr ? amri_tuner_->suppressed() : 0);
}

void StemOperator::force_tune() {
  if (amri_tuner_ != nullptr && !query_assessors_.empty()) {
    merged_tune();
  } else if (amri_tuner_ != nullptr && bit_index_ != nullptr) {
    amri_tuner_->maybe_tune(*bit_index_);
  } else if (module_tuner_ != nullptr && module_index_ != nullptr) {
    module_tuner_->maybe_tune(*module_index_);
  }
}

void StemOperator::finish_warmup() {
  force_tune();
  if (!continuous_tuning_) {
    // The non-adapting baselines keep the trained configuration forever.
    if (amri_tuner_ != nullptr) {
      warmup_migrations_ = amri_tuner_->migrations();
      warmup_suppressed_ = amri_tuner_->suppressed();
      warmup_pause_us_ = amri_tuner_->migration_pause_us();
    }
    if (module_tuner_ != nullptr) warmup_migrations_ = module_tuner_->retunes();
    amri_tuner_.reset();
    module_tuner_.reset();
    query_assessors_.clear();
    sync_stats_memory();
  }
}

}  // namespace amri::engine
