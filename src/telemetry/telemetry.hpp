// The telemetry facade handed (as a nullable pointer) through the engine,
// index, assessment, and tuner layers. One instance per experiment run
// bundles the metric registry and the event log, and stamps events with
// the owning executor's virtual clock. The disabled path everywhere is a
// null-pointer check — no Telemetry object, no cost.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "common/types.hpp"
#include "common/virtual_clock.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"

namespace amri::telemetry {

struct TelemetryOptions {
  std::size_t event_capacity = 8192;  ///< ring-buffer slots
  /// Construct the wall-clock phase profiler (amri_sim --profile). Off by
  /// default: profiler scopes then reduce to null checks at every site.
  bool enable_profiler = false;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryOptions options = {})
      : options_(options),
        events_(options.event_capacity),
        dropped_events_(&metrics_.counter("telemetry.events.dropped")),
        wall_epoch_(std::chrono::steady_clock::now()) {
    if (options.enable_profiler) {
      profiler_ = std::make_unique<Profiler>(metrics_);
    }
  }

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  EventLog& events() { return events_; }
  const EventLog& events() const { return events_; }

  /// The executor attaches its virtual clock so events carry run time.
  /// Unattached (unit tests), events are stamped 0.
  void attach_clock(const VirtualClock* clock) { clock_ = clock; }
  TimeMicros now() const { return clock_ != nullptr ? clock_->now() : 0; }

  /// Steady-clock nanoseconds since this Telemetry was constructed; span
  /// events carry both this and the virtual `t` so wall latency and
  /// simulated time can be correlated.
  std::uint64_t wall_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_epoch_)
            .count());
  }

  /// The phase profiler, or null unless TelemetryOptions::enable_profiler.
  Profiler* profiler() { return profiler_.get(); }
  const Profiler* profiler() const { return profiler_.get(); }

  // Sampled per-tuple spans. The executor opens a span for every Nth
  // arrival; downstream producers (eddy, STeM) emit span stage events only
  // while `active_span() != 0`. Single active span at a time, engine-thread
  // only — like the profiler, span state is not synchronized.
  std::uint64_t begin_span() { return active_span_ = ++next_span_id_; }
  /// Re-activate a span id returned by begin_span(). The batched executor
  /// allocates the span when the arrival is drained, suspends it while the
  /// rest of the batch is assembled, and resumes it around the run that
  /// routes the sampled tuple.
  void resume_span(std::uint64_t id) { active_span_ = id; }
  void end_span() { active_span_ = 0; }
  std::uint64_t active_span() const { return active_span_; }

  /// Emit an event stamped with the current virtual time. `payload` is a
  /// JSON object fragment (see JsonWriter); empty means no payload.
  /// Counts ring overwrites in `telemetry.events.dropped`.
  std::uint64_t emit(EventKind kind, StreamId stream,
                     std::string payload = {}) {
    Event e;
    e.kind = kind;
    e.t = now();
    e.stream = stream;
    e.payload = std::move(payload);
    const std::uint64_t seq = events_.emit(std::move(e));
    if (seq >= events_.capacity()) dropped_events_->add();
    return seq;
  }

 private:
  TelemetryOptions options_;
  MetricsRegistry metrics_;
  EventLog events_;
  Counter* dropped_events_;  ///< resolved once; ring-overwrite count
  std::chrono::steady_clock::time_point wall_epoch_;
  std::unique_ptr<Profiler> profiler_;
  const VirtualClock* clock_ = nullptr;
  std::uint64_t next_span_id_ = 0;
  std::uint64_t active_span_ = 0;
};

}  // namespace amri::telemetry
