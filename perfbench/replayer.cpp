#include "replayer.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

#include "engine/aggregate.hpp"
#include "engine/multi_query.hpp"

namespace perfbench {
namespace {

using namespace amri;
using telemetry::Phase;

// Span sampling in the profiled replay: the engine traces every 97th
// arrival (span.latency_us); the benchmark keeps a span for every 97th
// source pull and every 4099th result delivery (COUNT(*) delivers
// millions). Primes, so the samples do not alias the streams' round robin.
constexpr std::size_t kEngineSpanEvery = 97;
constexpr std::uint64_t kPullSpanEvery = 97;
constexpr std::uint64_t kResultSpanEvery = 4099;

/// The vector-backed TupleSource every replay pulls from. It notes the
/// wall time of the first pull at or past the warm-up boundary, and in a
/// profiled replay records sampled pull spans and snapshots the
/// profiler's scope counts at that boundary.
class ReplaySource final : public engine::TupleSource {
 public:
  ReplaySource(const std::vector<Tuple>& arrivals, TimeMicros warmup)
      : arrivals_(arrivals), warmup_(warmup) {}

  void trace_into(SpanLog* spans, std::uint32_t parent,
                  const telemetry::Profiler* profiler) {
    spans_ = spans;
    parent_ = parent;
    profiler_ = profiler;
  }

  std::optional<Tuple> next() override {
    if (pos_ == arrivals_.size()) {
      exhausted_ = true;
      return std::nullopt;
    }
    const Tuple& t = arrivals_[pos_++];
    if (!boundary_.has_value() && t.ts >= warmup_) {
      boundary_ = Clock::now();
      if (profiler_ != nullptr) {
        for (std::size_t p = 0; p < telemetry::kNumPhases; ++p) {
          boundary_entries_[p] = profiler_->stats(static_cast<Phase>(p)).entries;
        }
      }
    }
    if (spans_ != nullptr && pos_ % kPullSpanEvery == 0) {
      const auto start = Clock::now();
      std::optional<Tuple> copy = t;
      spans_->add("pull", parent_, start, Clock::now());
      return copy;
    }
    return t;
  }

  std::size_t pulled() const { return pos_; }
  bool exhausted() const { return exhausted_; }
  const std::optional<Clock::time_point>& boundary() const { return boundary_; }
  std::uint64_t boundary_entries(Phase p) const {
    return boundary_entries_[static_cast<std::size_t>(p)];
  }

 private:
  const std::vector<Tuple>& arrivals_;
  TimeMicros warmup_;
  std::size_t pos_ = 0;
  bool exhausted_ = false;
  std::optional<Clock::time_point> boundary_;
  SpanLog* spans_ = nullptr;
  std::uint32_t parent_ = 0;
  const telemetry::Profiler* profiler_ = nullptr;
  std::array<std::uint64_t, telemetry::kNumPhases> boundary_entries_{};
};

}  // namespace

Replay replay(const Workload& w, const std::vector<Tuple>& arrivals,
              const engine::ExecutorOptions& options, const Tracing& tracing) {
  engine::ExecutorOptions o = options;
  o.telemetry = tracing.telemetry;
  o.trace_sample = tracing.telemetry != nullptr ? kEngineSpanEvery : 0;
  SpanLog* const spans = tracing.spans;
  const std::uint32_t root = spans != nullptr ? spans->open("replay", 0) : 0;

  std::optional<engine::AggregateSink> agg;
  std::uint64_t callbacks = 0;
  std::uint32_t run_span = 0;
  if (w.count_aggregate) {
    agg.emplace(engine::AggFunc::kCount, engine::OutputColumn{0, 0});
    if (spans == nullptr) {
      o.on_result = [&agg](const engine::JoinResult& r) { agg->consume(r); };
    } else {
      o.on_result = [&agg, &callbacks, &run_span,
                     spans](const engine::JoinResult& r) {
        if (++callbacks % kResultSpanEvery != 0) {
          agg->consume(r);
          return;
        }
        const auto start = Clock::now();
        agg->consume(r);
        spans->add("on_result", run_span, start, Clock::now());
      };
    }
  }

  ReplaySource source(arrivals, o.warmup);
  Replay out;
  engine::RunResult r;
  std::uint64_t truncated = 0;
  CostMeter meter;
  auto timed_run = [&](auto& ex, auto&& run) {
    const auto constructed = Clock::now();
    if (spans != nullptr) {
      run_span = spans->open("run", root);
      source.trace_into(spans, run_span,
                        tracing.telemetry->profiler());
    }
    run(ex);
    const auto end = Clock::now();
    if (spans != nullptr) spans->close(run_span);
    meter = ex.meter();
    out.run_s = seconds_between(constructed, end);
    return end;
  };

  const auto t0 = Clock::now();
  Clock::time_point end;
  if (w.queries.size() == 1) {
    engine::Executor ex(w.queries.front(), o);
    if (spans != nullptr) spans->add("construct", root, t0, Clock::now());
    end = timed_run(ex, [&](engine::Executor& e) { r = e.run(source); });
    truncated = ex.eddy().partials_truncated();
  } else {
    engine::MultiQueryExecutor ex(w.queries, o);
    if (spans != nullptr) spans->add("construct", root, t0, Clock::now());
    end = timed_run(ex, [&](engine::MultiQueryExecutor& e) {
      auto mr = e.run(source);
      r = std::move(mr.combined);
      out.outcome.per_query = std::move(mr.per_query_outputs);
    });
    for (std::size_t q = 0; q < ex.num_queries(); ++q) {
      truncated += ex.eddy(q).partials_truncated();
    }
  }
  if (spans != nullptr) spans->close(root);
  if (!source.boundary().has_value()) {
    throw std::runtime_error("input ends before the warm-up boundary");
  }
  out.setup_s = seconds_between(t0, *source.boundary());
  out.measured_s = seconds_between(*source.boundary(), end);

  Outcome& oc = out.outcome;
  oc.results = r.outputs;
  oc.arrivals = r.arrivals;
  oc.filtered = r.arrivals_filtered;
  oc.dropped = r.arrivals_dropped;
  oc.died = r.died_at.has_value();
  const TimeMicros measure_end = o.warmup + o.duration;
  auto first_at = [&](TimeMicros t) {
    return static_cast<std::size_t>(
        std::lower_bound(arrivals.begin(), arrivals.end(), t,
                         [](const Tuple& a, TimeMicros e) { return a.ts < e; }) -
        arrivals.begin());
  };
  const std::size_t end_idx = first_at(measure_end);
  oc.offered = end_idx - first_at(o.warmup);
  // Until the source is exhausted, the run loop holds the last pulled
  // arrival as its lookahead, never queued. Arrivals from there to the
  // measured end were offered but never processed.
  const std::size_t queued = source.pulled() - (source.exhausted() ? 0 : 1);
  oc.unpushed = end_idx > queued ? end_idx - queued : 0;
  oc.hashes = meter.hashes();
  oc.compares = meter.compares();
  oc.bucket_visits = meter.bucket_visits();
  oc.routing_decisions = r.routing_decisions;
  for (const auto& s : r.states) {
    oc.migrations += s.migrations;
    oc.suppressed += s.suppressed;
    oc.probes += s.probes;
    oc.pause_us += s.migration_pause_us;
  }
  oc.truncated = truncated;
  oc.callbacks = agg.has_value() ? agg->consumed() : 0;
  for (const auto& s : r.samples) {
    oc.backlog_max = std::max<std::uint64_t>(oc.backlog_max, s.backlog);
  }
  oc.charged_us = r.charged_us;
  oc.peak_memory = r.peak_memory;

  if (tracing.telemetry != nullptr) {
    const telemetry::Telemetry& tel = *tracing.telemetry;
    const telemetry::Profiler& prof = *tel.profiler();
    auto& L = out.layers;
    auto self_ms = [&](Phase p) { return prof.stats(p).exclusive_us / 1000.0; };
    auto calls = [&](Phase p) {
      return static_cast<double>(prof.stats(p).entries);
    };
    auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    L["engine.route.self_ms"] = self_ms(Phase::kRoute);
    L["engine.route.calls"] = calls(Phase::kRoute);
    L["index.probe.self_ms"] = self_ms(Phase::kProbe);
    L["index.probe.calls"] = calls(Phase::kProbe);
    L["index.probe.p50_us"] = prof.scope_histogram(Phase::kProbe).percentile(0.50);
    L["index.probe.p99_us"] = prof.scope_histogram(Phase::kProbe).percentile(0.99);
    L["index.compares_per_probe"] =
        per(static_cast<double>(oc.compares), static_cast<double>(oc.probes));
    L["index.bucket_visits_per_probe"] = per(
        static_cast<double>(oc.bucket_visits), static_cast<double>(oc.probes));
    L["index.hashes_per_arrival"] = per(static_cast<double>(oc.hashes),
                                        static_cast<double>(source.pulled()));
    L["engine.drain.self_ms"] = self_ms(Phase::kDrain);
    L["engine.expiry.self_ms"] = self_ms(Phase::kExpiry);
    L["engine.insert.self_ms"] = self_ms(Phase::kInsert);
    L["tuner.epoch.self_ms"] = self_ms(Phase::kTunerEpoch);
    L["tuner.epochs"] = calls(Phase::kTunerEpoch);
    L["tuner.migration.self_ms"] = self_ms(Phase::kMigration);
    L["tuner.migrations"] = static_cast<double>(oc.migrations);
    L["tuner.suppressed"] = static_cast<double>(oc.suppressed);
    L["tuner.pause_ms"] = oc.pause_us / 1000.0;
    L["assessment.merge.self_ms"] = self_ms(Phase::kSnapshotMerge);
    L["engine.backlog_max"] = static_cast<double>(oc.backlog_max);
    L["engine.charged_s"] = oc.charged_us / 1e6;
    L["engine.routing_decisions"] = static_cast<double>(oc.routing_decisions);
    L["engine.truncated_partials"] = static_cast<double>(oc.truncated);
    L["engine.model_peak_kib"] = static_cast<double>(oc.peak_memory) / 1024.0;
    // Measured-phase expiry sweeps: one per batch on the batched path,
    // one per admitted arrival tuple-at-a-time.
    L["engine.arrivals_per_batch"] = per(
        static_cast<double>(oc.arrivals),
        calls(Phase::kExpiry) -
            static_cast<double>(source.boundary_entries(Phase::kExpiry)));
    const telemetry::Histogram* lat =
        tel.metrics().find_histogram("span.latency_us");
    L["trace.arrival_us.p50"] = lat != nullptr ? lat->percentile(0.50) : 0.0;
    L["trace.arrival_us.p99"] = lat != nullptr ? lat->percentile(0.99) : 0.0;
    L["trace.arrival_samples"] =
        lat != nullptr ? static_cast<double>(lat->count()) : 0.0;
    const telemetry::Gauge* wall = tel.metrics().find_gauge("profile.run.wall_us");
    L["trace.coverage_frac"] =
        wall != nullptr ? per(prof.total_exclusive_us(), wall->value()) : 0.0;
    L["workload.pulls"] = static_cast<double>(source.pulled());
    L["workload.gen_s"] = w.gen_s;
    L["bench.result_callbacks"] = static_cast<double>(callbacks);
  }
  return out;
}

std::vector<std::uint64_t> gate_engine_counts(const Workload& w,
                                              std::vector<std::string>& errors) {
  const Input& in = w.inputs.front();
  engine::ExecutorOptions o = in.options;
  o.costs = CostParams{0, 0, 0, 0, 0, 0};
  o.warmup = 0;
  o.duration = w.gate_prefix;
  const Outcome oc = replay(w, in.arrivals, o, Tracing{}).outcome;
  if (oc.died) errors.push_back("gate run stopped out of memory");
  if (w.count_aggregate && oc.callbacks != oc.results) {
    errors.push_back("gate: COUNT(*) aggregate saw " +
                     std::to_string(oc.callbacks) + " results, engine " +
                     std::to_string(oc.results));
  }
  if (w.queries.size() == 1) return {oc.results};
  return oc.per_query;
}

}  // namespace perfbench
