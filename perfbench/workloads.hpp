// The benchmark's workloads: each one is a fixed query set, fixed executor
// options and an input materialised in memory from the seed before any
// timing starts, so timed runs measure the engine and not the generator.
// Why each workload exists is in README.md next to this file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/tuple.hpp"
#include "engine/executor.hpp"
#include "engine/query.hpp"

namespace perfbench {

/// One input of a workload: its arrivals and the executor options that go
/// with them (the tuner's and router's seeds follow the input's seed).
struct Input {
  /// Every arrival, timestamp-ordered, up to warmup + duration.
  std::vector<amri::Tuple> arrivals;
  amri::engine::ExecutorOptions options;  ///< no telemetry, no on_result
};

struct Workload {
  std::string name;
  /// One query runs on engine::Executor; several share one
  /// engine::MultiQueryExecutor.
  std::vector<amri::engine::QuerySpec> queries;
  /// COUNT(*) queries stream every result into an AggregateSink through
  /// ExecutorOptions::on_result, as a user of the aggregate query would.
  bool count_aggregate = false;
  /// The correctness gate replays the first input's arrivals before this
  /// time.
  amri::TimeMicros gate_prefix = 0;
  /// Several independent inputs drawn from the run's seed. The tuner's
  /// choices, and with them the work per arrival, vary a lot from one
  /// input to the next; a run measures all of them so that its figures
  /// vary little from one seed to the next.
  std::vector<Input> inputs;
  /// Host-speed calibration. Other tenants of a shared host slow the whole
  /// process down for seconds to minutes at a time.
  /// Around every timed replay the benchmark times its own reference join
  /// (reference.hpp, which no change to the engine touches) over
  /// `calibration`: the arrivals before `calibration_prefix` of an input
  /// drawn from a fixed seed, so the same work in every run. Its time over
  /// `calibration_nominal_s`, the time it takes on an undisturbed core
  /// (an Intel Xeon at 2.0 GHz in a 4-vCPU VM, GCC 12, RelWithDebInfo),
  /// is how much slower than that the host runs at the moment.
  std::vector<amri::Tuple> calibration;
  amri::TimeMicros calibration_prefix = 0;
  double calibration_nominal_s = 0.0;
  double gen_s = 0.0;  ///< wall seconds spent generating the inputs
};

/// Names of all workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Build workload `name` with its input generated from `seed`. Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// The first input's arrivals with timestamp before `end`.
std::vector<amri::Tuple> prefix_before(const Workload& w, amri::TimeMicros end);

}  // namespace perfbench
