#include "engine/run_loop.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>
#include <utility>

#include "common/tuple_batch.hpp"
#include "engine/tuple_source.hpp"
#include "telemetry/json.hpp"

namespace amri::engine {

namespace {

// The query half of the run loop: WHERE admission and eddy routing.
// Admission evaluates EVERY query's selection in query order (each one
// charged — every query logically inspects every arrival on its streams)
// and records the accept set as a per-slot bitmask; an arrival enters the
// shared state if any query accepts it. Routing walks the queries in
// order: each query's accepted sub-array is carved out of the run's
// admitted slots and routed as one call (a one-arrival run routes
// depth-first). Before a query routes, its index is installed as the
// active attribution target on every shared STeM so probe statistics land
// in that query's assessor cells. on_result fires for every complete join
// result (warm-up included); rows are collected after the warm-up only.
class QuerySink {
 public:
  QuerySink(const std::vector<QuerySpec>& queries,
            const std::vector<std::unique_ptr<EddyRouter>>& eddies,
            const std::vector<std::unique_ptr<StemOperator>>& stems,
            const ExecutorOptions& options)
      : queries_(queries),
        eddies_(eddies),
        stems_(stems),
        options_(options),
        per_query_(queries.size(), 0) {}

  /// WHERE admission for `arrival`, charging selection comparisons to
  /// `meter`. Returns true when any query accepts it; the accept set is
  /// recorded for the live batch slot.
  bool admit(const Tuple& arrival, CostMeter& meter) {
    std::uint64_t mask = 0;
    for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
      if (queries_[qi].selection(arrival.stream).matches(arrival, &meter)) {
        mask |= std::uint64_t{1} << qi;
      }
    }
    if (mask == 0) return false;
    accepts_.push_back(mask);
    return true;
  }

  /// A new admission batch starts: forget the previous batch's accepts.
  void begin_batch() { accepts_.clear(); }

  /// Route the admitted same-stream batch slots [first, first + n):
  /// `stored[j]` / `done[j]` describe slot first + j. `span_root`, when
  /// not EddyRouter::kNoSpanRoot, is the index in [0, n) carrying the
  /// active trace span. `measured` is true after the warm-up boundary
  /// (row collection). Returns complete results produced.
  std::uint64_t route_batch(const Tuple* const* stored,
                            const std::uint32_t* done, std::size_t first,
                            std::size_t n, std::size_t span_root,
                            bool measured) {
    std::uint64_t total = 0;
    for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
      // Carve query qi's sub-array out of the admitted slots; matches held
      // for other queries only are rejected by qi's selection
      // re-verification.
      sub_stored_.clear();
      sub_done_.clear();
      std::size_t sub_root = EddyRouter::kNoSpanRoot;
      for (std::size_t j = 0; j < n; ++j) {
        if ((accepts_[first + j] >> qi & 1) == 0) continue;
        if (j == span_root) sub_root = sub_stored_.size();
        sub_stored_.push_back(stored[j]);
        sub_done_.push_back(done[j]);
      }
      if (sub_stored_.empty()) continue;
      for (const auto& stem : stems_) stem->set_active_query(qi);
      // Results go straight to on_result; measured row collection wraps it.
      const ResultCallback* sink =
          options_.on_result ? &options_.on_result : nullptr;
      ResultCallback collect;
      if (options_.collect_rows && measured &&
          rows_.size() < options_.max_collected_rows) {
        collect = [this, qi](const JoinResult& jr) {
          if (options_.on_result) options_.on_result(jr);
          if (rows_.size() < options_.max_collected_rows) {
            rows_.push_back(queries_[qi].projection().apply(jr.members));
          }
        };
        sink = &collect;
      }
      const std::uint64_t produced = eddies_[qi]->route_batch(
          sub_stored_.data(), sub_done_.data(), sub_stored_.size(), sink,
          sub_root);
      total += produced;
      per_query_[qi] += produced;
    }
    return total;
  }

  /// Cumulative outputs by query.
  const std::vector<std::uint64_t>& per_query_outputs() const {
    return per_query_;
  }

  std::vector<SmallVector<Value, kInlineAttrs>> take_rows() {
    return std::move(rows_);
  }

 private:
  const std::vector<QuerySpec>& queries_;
  const std::vector<std::unique_ptr<EddyRouter>>& eddies_;
  const std::vector<std::unique_ptr<StemOperator>>& stems_;
  const ExecutorOptions& options_;
  /// Accept bitmask per admitted slot of the live batch (bit qi = query qi
  /// accepted); parallel to the run loop's TupleBatch.
  std::vector<std::uint64_t> accepts_;
  std::vector<std::uint64_t> per_query_;  ///< cumulative outputs by query
  // Reusable per-call arenas (capacity persists across batches).
  std::vector<const Tuple*> sub_stored_;
  std::vector<std::uint32_t> sub_done_;
  std::vector<SmallVector<Value, kInlineAttrs>> rows_;
};

}  // namespace

PipelineRuntime::PipelineRuntime(ExecutorOptions& options)
    : meter(&clock, options.costs), memory(options.memory_budget) {
  if (options.telemetry != nullptr) {
    options.telemetry->attach_clock(&clock);
  }
  if (options.stem.shards > 1) {
    pool = std::make_unique<ThreadPool>(options.fanout_threads);
    options.stem.pool = pool.get();
  }
  if (options.telemetry != nullptr) {
    auto& reg = options.telemetry->metrics();
    profiler = options.telemetry->profiler();
    if (profiler != nullptr) {
      run_wall_gauge = &reg.gauge("profile.run.wall_us");
    }
    if (options.trace_sample > 0) {
      span_latency_hist = &reg.histogram(
          "span.latency_us",
          telemetry::Histogram::exponential_bounds(0.5, 2.0, 22));
    }
    if (pool != nullptr) {
      // The pool lives in the common layer and cannot depend on telemetry,
      // so its generic hooks are bound to registry instruments here.
      auto* wait_hist = &reg.histogram(
          "pool.queue_wait_us",
          telemetry::Histogram::exponential_bounds(0.1, 2.0, 20));
      auto* contention = &reg.counter("pool.contention");
      ThreadPool::Hooks hooks;
      hooks.on_dequeue = [wait_hist](double us) { wait_hist->observe(us); };
      hooks.on_contention = [contention] { contention->add(); };
      pool->set_hooks(std::move(hooks));
    }
  }
}

void PipelineRuntime::sync_queue_memory(std::size_t backlog) {
  const std::size_t now = backlog * kQueueBytesPerTuple;
  if (now > tracked_queue_bytes_) {
    memory.allocate(MemCategory::kQueue, now - tracked_queue_bytes_);
  } else if (now < tracked_queue_bytes_) {
    memory.release(MemCategory::kQueue, tracked_queue_bytes_ - now);
  }
  tracked_queue_bytes_ = now;
}

void PipelineRuntime::emit_oom_event(telemetry::Telemetry* tel) {
  if (tel == nullptr) return;
  telemetry::JsonWriter w;
  w.begin_object();
  w.field("total_bytes", static_cast<std::uint64_t>(memory.total()));
  w.field("budget_bytes", static_cast<std::uint64_t>(memory.budget()));
  w.begin_array("by_category");
  for (std::size_t c = 0; c < static_cast<std::size_t>(MemCategory::kCount);
       ++c) {
    const auto cat = static_cast<MemCategory>(c);
    telemetry::JsonWriter cw;
    cw.begin_object();
    cw.field("category", mem_category_name(cat));
    cw.field("bytes", static_cast<std::uint64_t>(memory.category(cat)));
    cw.end_object();
    w.value_raw(std::move(cw).take());
  }
  w.end_array();
  w.end_object();
  tel->emit(telemetry::EventKind::kOom, 0, std::move(w).take());
}

RunResult run_pipeline(const ExecutorOptions& options, PipelineRuntime& rt,
                       const std::vector<std::unique_ptr<StemOperator>>& stems,
                       const std::vector<QuerySpec>& queries,
                       const std::vector<std::unique_ptr<EddyRouter>>& eddies,
                       TupleSource& source) {
  QuerySink sink(queries, eddies, stems, options);
  RunResult result;
  const TimeMicros warmup_end = options.warmup;
  const TimeMicros measure_end = options.warmup + options.duration;
  telemetry::Telemetry* const tel = options.telemetry;
  const auto run_wall_t0 = std::chrono::steady_clock::now();

  // Span sampling: every trace_sample-th drained arrival gets a span id
  // that downstream producers (eddy hops, sharded fan-out) pick up via
  // Telemetry::active_span().
  const std::size_t trace_sample = tel != nullptr ? options.trace_sample : 0;
  std::uint64_t drained_arrivals = 0;
  auto emit_span_stage = [&](std::uint64_t id, StreamId stream,
                             const char* stage, auto&& extra) {
    telemetry::JsonWriter w;
    w.begin_object();
    w.field("span", id);
    w.field("stage", stage);
    w.field("wall_ns", tel->wall_ns());
    extra(w);
    w.end_object();
    tel->emit(telemetry::EventKind::kSpan, stream, std::move(w).take());
  };
  auto no_extra = [](telemetry::JsonWriter&) {};

  std::deque<Tuple> pending;
  TupleBatch batch;                   // drain arenas; capacity
  std::vector<const Tuple*> stored_run;  // persists across batches
  // A sampled arrival awaiting its batch's routing: its span was begun (and
  // the "arrival" stage emitted) at drain time, then suspended. Every
  // sampled arrival of a batch is tracked, so every batch size traces the
  // same Nth drained arrivals.
  struct PendingSpan {
    std::size_t index = 0;  ///< arrival's index within the batch
    std::uint64_t id = 0;
    std::chrono::steady_clock::time_point start{};
  };
  std::vector<PendingSpan> batch_spans;
  std::optional<Tuple> lookahead = source.next();
  bool warmup_done = (options.warmup == 0);
  std::uint64_t outputs_total = 0;
  std::uint64_t outputs_offset = 0;
  std::uint64_t arrivals_measured = 0;
  TimeMicros next_sample = warmup_end + options.sample_every;
  bool backpressure_armed = true;
  // Per-query output attribution (more than one query only): cumulative
  // counts pulled from the sink, reported as deltas past the warm-up
  // offsets — the same convention as `outputs`.
  const bool per_query = queries.size() > 1;
  std::vector<std::uint64_t> pq_offsets(queries.size(), 0);

  if (tel != nullptr) {
    telemetry::JsonWriter w;
    w.begin_object();
    w.field("warmup_us", static_cast<std::uint64_t>(options.warmup));
    w.field("duration_us", static_cast<std::uint64_t>(options.duration));
    w.field("streams", static_cast<std::uint64_t>(stems.size()));
    w.field("memory_budget",
            static_cast<std::uint64_t>(options.memory_budget));
    w.end_object();
    tel->emit(telemetry::EventKind::kRunStart, 0, std::move(w).take());
  }

  auto take_sample = [&](TimeMicros at) {
    telemetry::ScopedPhase sample_scope(rt.profiler, telemetry::Phase::kSample);
    Sample s;
    s.t = at - warmup_end;
    s.outputs = outputs_total - outputs_offset;
    s.memory_bytes = rt.memory.total();
    s.backlog = pending.size();
    if (per_query) {
      const std::vector<std::uint64_t>& cumulative = sink.per_query_outputs();
      s.per_query_outputs.resize(cumulative.size());
      for (std::size_t q = 0; q < cumulative.size(); ++q) {
        s.per_query_outputs[q] = cumulative[q] - pq_offsets[q];
      }
    }
    if (tel != nullptr) {
      for (const auto& stem : stems) {
        StateSample ss;
        ss.stream = stem->stream();
        ss.stored_tuples = stem->stored_tuples();
        ss.probes = stem->probes_served();
        ss.migrations = stem->migrations();
        const index::IndexConfig* ic = stem->current_config();
        ss.index_config =
            ic != nullptr ? ic->to_string() : stem->physical_index().name();
        s.states.push_back(std::move(ss));
      }
      telemetry::JsonWriter w;
      w.begin_object();
      w.field("t", static_cast<std::int64_t>(s.t));
      w.field("outputs", s.outputs);
      w.field("memory_bytes", static_cast<std::uint64_t>(s.memory_bytes));
      w.field("backlog", static_cast<std::uint64_t>(s.backlog));
      if (per_query) {
        w.begin_array("per_query");
        for (const std::uint64_t q : s.per_query_outputs) w.value(q);
        w.end_array();
      }
      w.begin_array("states");
      for (const StateSample& ss : s.states) {
        telemetry::JsonWriter sw;
        sw.begin_object();
        sw.field("stream", static_cast<std::uint64_t>(ss.stream));
        sw.field("tuples", static_cast<std::uint64_t>(ss.stored_tuples));
        sw.field("probes", ss.probes);
        sw.field("migrations", ss.migrations);
        sw.field("ic", ss.index_config);
        sw.end_object();
        w.value_raw(std::move(sw).take());
      }
      w.end_array();
      w.end_object();
      tel->emit(telemetry::EventKind::kSample, 0, std::move(w).take());
    }
    result.samples.push_back(std::move(s));
  };

  auto check_backpressure = [&] {
    if (tel == nullptr || options.backpressure_threshold == 0) return;
    if (backpressure_armed &&
        pending.size() >= options.backpressure_threshold) {
      backpressure_armed = false;
      telemetry::JsonWriter w;
      w.begin_object();
      w.field("backlog", static_cast<std::uint64_t>(pending.size()));
      w.field("threshold",
              static_cast<std::uint64_t>(options.backpressure_threshold));
      w.end_object();
      tel->emit(telemetry::EventKind::kBackpressure, 0, std::move(w).take());
    } else if (!backpressure_armed &&
               pending.size() <= options.backpressure_threshold / 2) {
      backpressure_armed = true;
    }
  };

  auto finish_warmup = [&] {
    for (auto& stem : stems) stem->finish_warmup();
    outputs_offset = outputs_total;
    pq_offsets = sink.per_query_outputs();
    warmup_done = true;
    take_sample(warmup_end);  // measurement-start baseline (t = 0)
  };

  const std::size_t batch_size = std::max<std::size_t>(options.batch_size, 1);
  while (rt.clock.now() < measure_end) {
    {
      telemetry::ScopedPhase drain_scope(rt.profiler, telemetry::Phase::kDrain);
      // Pull every arrival whose timestamp has passed into the backlog.
      while (lookahead.has_value() && lookahead->ts <= rt.clock.now()) {
        pending.push_back(*lookahead);
        lookahead = source.next();
      }
      rt.sync_queue_memory(pending.size());
      check_backpressure();
      if (rt.memory.exhausted()) break;

      if (pending.empty()) {
        if (!lookahead.has_value()) break;  // source exhausted, system idle
        if (lookahead->ts >= measure_end) {
          rt.clock.advance_to(measure_end);
          break;
        }
        rt.clock.advance_to(lookahead->ts);  // idle until the next arrival
        continue;
      }
    }

    // Pull up to batch_size ready arrivals (one before the warm-up
    // boundary), expire every window once, then batch-insert and
    // batch-route each consecutive same-stream run. Batch size 1 is the
    // tuple-at-a-time schedule: the eddy routes a one-arrival run
    // depth-first.
    //
    // A sampled arrival's span opens ("arrival") before sink admission
    // (WHERE selection); filtered arrivals are counted and close their
    // span, and every sampled surviving arrival records a PendingSpan so
    // its span can resume when its run routes. Before the warm-up boundary
    // the boundary is checked after the pop, with the queue memory already
    // synced, so the t = 0 sample sees the backlog without the boundary
    // arrival.
    batch.clear();
    batch_spans.clear();
    sink.begin_batch();
    {
      telemetry::ScopedPhase drain_scope(rt.profiler, telemetry::Phase::kDrain);
      const std::size_t want =
          warmup_done ? std::min(batch_size, pending.size()) : 1;
      for (std::size_t i = 0; i < want; ++i) {
        const Tuple arrival = pending.front();
        pending.pop_front();
        if (!warmup_done) {
          rt.sync_queue_memory(pending.size());
          // Warm-up boundary: apply trained configurations exactly once.
          if (rt.clock.now() >= warmup_end) finish_warmup();
        }
        const bool sampled =
            trace_sample != 0 && (++drained_arrivals % trace_sample) == 0;
        PendingSpan ps;
        if (sampled) {
          ps.index = batch.size();
          ps.start = std::chrono::steady_clock::now();
          ps.id = tel->begin_span();
          emit_span_stage(ps.id, arrival.stream, "arrival",
                          [&](telemetry::JsonWriter& w) {
                            w.field("backlog",
                                    static_cast<std::uint64_t>(pending.size()));
                          });
        }
        if (!sink.admit(arrival, rt.meter)) {
          if (warmup_done) ++result.arrivals_filtered;
          if (sampled) {
            emit_span_stage(ps.id, arrival.stream, "filtered", no_extra);
            tel->end_span();
          }
          continue;
        }
        if (sampled) {
          tel->end_span();  // suspended until the owning batch routes
          batch_spans.push_back(ps);
        }
        batch.push(arrival);
      }
      rt.sync_queue_memory(pending.size());
    }
    if (batch.empty()) continue;  // whole drain was filtered out

    {
      telemetry::ScopedPhase expiry_scope(rt.profiler,
                                          telemetry::Phase::kExpiry);
      for (auto& stem : stems) stem->expire(rt.clock.now());
    }
    {
      telemetry::ScopedPhase route_scope(rt.profiler, telemetry::Phase::kRoute);
      // Spans are listed in batch-index order; walk them run by run.
      std::size_t span_cursor = 0;
      for (std::size_t a = 0; a < batch.size();) {
        const std::size_t b = batch.run_end(a);
        const StreamId s = batch.tuples[a].stream;
        stored_run.clear();
        const std::size_t span_lo = span_cursor;
        while (span_cursor < batch_spans.size() &&
               batch_spans[span_cursor].index < b) {
          ++span_cursor;
        }
        const bool run_has_span = span_lo < span_cursor;
        // The eddy attaches hop events to one active span per call; the
        // run's first sampled arrival carries it. Every sampled arrival
        // still gets its own insert/done stages and latency observation.
        if (run_has_span) tel->resume_span(batch_spans[span_lo].id);
        {
          telemetry::ScopedPhase insert_scope(rt.profiler,
                                              telemetry::Phase::kInsert);
          stems[s]->insert_batch(batch.tuples.data() + a, b - a, stored_run);
        }
        for (std::size_t k = span_lo; k < span_cursor; ++k) {
          emit_span_stage(batch_spans[k].id, s, "insert",
                          [&](telemetry::JsonWriter& w) {
                            w.field("batch",
                                    static_cast<std::uint64_t>(b - a));
                          });
        }
        const std::uint64_t produced = sink.route_batch(
            stored_run.data(), batch.done.data() + a, a, b - a,
            run_has_span ? batch_spans[span_lo].index - a
                         : EddyRouter::kNoSpanRoot,
            warmup_done);
        outputs_total += produced;
        for (std::size_t k = span_lo; k < span_cursor; ++k) {
          const auto latency_ns =
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - batch_spans[k].start)
                  .count();
          emit_span_stage(batch_spans[k].id, s, "done",
                          [&](telemetry::JsonWriter& w) {
                            w.field("latency_ns",
                                    static_cast<std::uint64_t>(latency_ns));
                            w.field("run_results", produced);
                          });
          rt.span_latency_hist->observe(static_cast<double>(latency_ns) /
                                        1000.0);
        }
        if (run_has_span) tel->end_span();
        a = b;
      }
    }
    if (warmup_done) arrivals_measured += batch.size();

    if (rt.memory.exhausted()) break;
    while (warmup_done && rt.clock.now() >= next_sample &&
           next_sample <= measure_end) {
      take_sample(next_sample);
      next_sample += options.sample_every;
    }
  }

  if (!warmup_done) finish_warmup();

  const TimeMicros end_now = std::min(rt.clock.now(), measure_end);
  if (rt.memory.exhausted()) {
    result.died_at = end_now - warmup_end;
    rt.emit_oom_event(tel);
  } else {
    result.completed = rt.clock.now() >= measure_end || !lookahead.has_value();
  }
  take_sample(end_now >= warmup_end ? end_now : warmup_end);

  result.outputs = outputs_total - outputs_offset;
  result.arrivals = arrivals_measured;
  result.arrivals_dropped = pending.size();
  result.peak_memory = rt.memory.peak();
  result.charged_us = rt.meter.charged_us();
  result.routing_decisions = rt.meter.routes();
  result.rows = sink.take_rows();
  for (const auto& stem : stems) {
    StateSummary s;
    s.stream = stem->stream();
    s.stored_tuples = stem->stored_tuples();
    s.probes = stem->probes_served();
    s.migrations = stem->migrations();
    s.suppressed = stem->suppressed();
    s.migration_pause_us = stem->migration_pause_us();
    s.state_bytes = stem->state_bytes();
    s.shards = stem->shard_count();
    s.shard_imbalance = stem->shard_imbalance();
    s.final_index = stem->physical_index().name();
    result.states.push_back(std::move(s));
  }
  if (tel != nullptr) {
    telemetry::JsonWriter w;
    w.begin_object();
    w.field("outputs", result.outputs);
    w.field("arrivals", result.arrivals);
    w.field("dropped", result.arrivals_dropped);
    w.field("completed", result.completed);
    w.field("died", result.died_at.has_value());
    w.field("peak_memory", static_cast<std::uint64_t>(result.peak_memory));
    w.field("charged_us", result.charged_us);
    w.end_object();
    tel->emit(telemetry::EventKind::kRunEnd, 0, std::move(w).take());
  }
  if (rt.run_wall_gauge != nullptr) {
    rt.run_wall_gauge->set(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - run_wall_t0)
                               .count());
  }
  return result;
}

}  // namespace amri::engine
