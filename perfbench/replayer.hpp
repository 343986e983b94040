// Replays one input of a workload through the public executors, with or
// without tracing, and reads back its timings, its deterministic outcome
// and, when profiled, its per-layer figures. The timed replays and the
// correctness gate's zero-cost run both go through replay().
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/tuple.hpp"
#include "engine/executor.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The benchmark's own spans: name, parent, start and end, kept in memory
/// and written with the artefact when the process ends.
class SpanLog {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    const char* name = "";
    double start_us = 0.0;  ///< since the log was created
    double end_us = 0.0;
  };

  std::uint32_t add(const char* name, std::uint32_t parent,
                    Clock::time_point start, Clock::time_point end) {
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.name = name;
    s.start_us = us_since_epoch(start);
    s.end_us = us_since_epoch(end);
    spans_.push_back(s);
    return s.id;
  }
  /// Opens a span whose end is set later by close(); children may name it.
  std::uint32_t open(const char* name, std::uint32_t parent) {
    const auto now = Clock::now();
    return add(name, parent, now, now);
  }
  void close(std::uint32_t id) { spans_[id - 1].end_us = us_since_epoch(Clock::now()); }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double us_since_epoch(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// The deterministic outcome of one replay: the virtual-time model's
/// results and charged work. Identical across every replay of one input.
struct Outcome {
  std::uint64_t results = 0;
  std::vector<std::uint64_t> per_query;
  std::uint64_t arrivals = 0;
  std::uint64_t filtered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t unpushed = 0;  ///< offered before the end, never queued
  std::uint64_t offered = 0;   ///< input arrivals in the measured window
  bool died = false;
  std::uint64_t hashes = 0;
  std::uint64_t compares = 0;
  std::uint64_t bucket_visits = 0;
  std::uint64_t routing_decisions = 0;
  std::uint64_t migrations = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t probes = 0;
  std::uint64_t truncated = 0;
  std::uint64_t callbacks = 0;  ///< on_result deliveries (COUNT(*) only)
  std::uint64_t backlog_max = 0;
  double charged_us = 0.0;
  double pause_us = 0.0;
  std::size_t peak_memory = 0;

  bool operator==(const Outcome&) const = default;

  /// Offered measured-phase arrivals the model never processed: dropped
  /// in the backlog, or never reached after an out-of-memory stop.
  std::uint64_t failed() const {
    return std::min<std::uint64_t>(dropped + unpushed, offered);
  }

  std::string json() const {
    amri::telemetry::JsonWriter w;
    w.begin_object();
    w.field("results", results);
    w.begin_array("per_query");
    for (const std::uint64_t q : per_query) w.value(q);
    w.end_array();
    w.field("arrivals", arrivals);
    w.field("filtered", filtered);
    w.field("dropped", dropped);
    w.field("unpushed", unpushed);
    w.field("offered", offered);
    w.field("died", died);
    w.field("hashes", hashes);
    w.field("compares", compares);
    w.field("bucket_visits", bucket_visits);
    w.field("routing_decisions", routing_decisions);
    w.field("migrations", migrations);
    w.field("suppressed", suppressed);
    w.field("probes", probes);
    w.field("truncated", truncated);
    w.field("callbacks", callbacks);
    w.field("backlog_max", backlog_max);
    w.field("charged_us", charged_us);
    w.field("pause_us", pause_us);
    w.field("peak_memory", static_cast<std::uint64_t>(peak_memory));
    w.end_object();
    return std::move(w).take();
  }
};

struct Replay {
  Outcome outcome;
  double setup_s = 0.0;     ///< construction + warm-up prefix
  double measured_s = 0.0;  ///< warm-up boundary to the return of run()
  double run_s = 0.0;       ///< the run() call alone
  std::map<std::string, double> layers;  ///< profiled replays only
};

/// Everything a profiled replay attaches; null members in a plain replay.
struct Tracing {
  SpanLog* spans = nullptr;
  amri::telemetry::Telemetry* telemetry = nullptr;
};

/// Replays `arrivals` under `options` (plus the tracing attachments). The
/// warm-up boundary is the first pull of an arrival at or past
/// `options.warmup`; throws std::runtime_error when the input ends before it.
Replay replay(const Workload& w, const std::vector<amri::Tuple>& arrivals,
              const amri::engine::ExecutorOptions& options,
              const Tracing& tracing);

/// Replays the first input's gate prefix with every CostParams cost at
/// zero, no warm-up, and the input's other options unchanged. Returns the
/// result count per query. For COUNT(*) workloads the aggregate's count
/// must agree with the engine's; a disagreement is added to `errors`, as
/// is an out-of-memory stop.
std::vector<std::uint64_t> gate_engine_counts(const Workload& w,
                                              std::vector<std::string>& errors);

}  // namespace perfbench
