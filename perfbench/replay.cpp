// perfbench_replay — replays one benchmark workload through the public
// executors and prints one JSON object on stdout (run.py turns it into the
// benchmark's result line).
//
//   perfbench_replay --workload count3 --seed 1 --seconds 30 --trace 0
//       [--artefact out.json]
//
// --trace 0: untraced replays of the whole input for --seconds, then the
// correctness gate; end-to-end times are medians over every timed replay.
// --trace 1: alternating plain and profiled replays for --seconds, then
// the gate; per-layer metrics come from the profiled replay of median
// wall time, and --artefact receives the benchmark's spans plus the
// program's phase profile. Every replay of one invocation must produce the
// same deterministic outcome.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "reference.hpp"
#include "replayer.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

namespace {

using namespace amri;
using perfbench::Clock;
using perfbench::Outcome;
using perfbench::Replay;
using perfbench::SpanLog;
using perfbench::Tracing;
using perfbench::Workload;
using perfbench::seconds_between;
using telemetry::Phase;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// A /proc/self/status memory field (VmRSS, VmHWM) in MiB. (getrusage's
/// ru_maxrss would give the peak too, but Linux carries it over from the
/// parent across exec, so under a large parent it reports the parent's
/// peak.)
double status_mib(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;  // in kB
    }
  }
  throw std::runtime_error("no " + field + " in /proc/self/status");
}

/// Restarts VmHWM from the current resident set, where the kernel allows
/// it (/proc/self/clear_refs); elsewhere VmHWM keeps the process's peak.
void restart_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Hands heap memory freed by earlier work back to the system, so that
/// later work that reuses it raises the resident set again.
void trim_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// Resident set once the inputs are built, with the heap memory the
/// generators freed handed back to the system first, so that replays that
/// reuse it still raise the peak.
double input_rss_mib() {
  trim_heap();
  return status_mib("VmRSS");
}

void write_artefact(const std::string& path, const Workload& w,
                    std::uint64_t seed, const SpanLog& spans,
                    const telemetry::Telemetry& tel, const Replay& chosen) {
  telemetry::JsonWriter j;
  j.begin_object();
  j.field("workload", w.name);
  j.field("seed", seed);
  j.begin_array("spans");
  for (const auto& s : spans.spans()) {
    telemetry::JsonWriter sw;
    sw.begin_object();
    sw.field("id", static_cast<std::uint64_t>(s.id));
    sw.field("parent", static_cast<std::uint64_t>(s.parent));
    sw.field("name", s.name);
    sw.field("start_us", s.start_us);
    sw.field("end_us", s.end_us);
    sw.end_object();
    j.value_raw(std::move(sw).take());
  }
  j.end_array();
  j.begin_array("phases");
  const telemetry::Profiler& prof = *tel.profiler();
  for (std::size_t p = 0; p < telemetry::kNumPhases; ++p) {
    const auto phase = static_cast<Phase>(p);
    const auto st = prof.stats(phase);
    if (st.entries == 0) continue;
    telemetry::JsonWriter pw;
    pw.begin_object();
    pw.field("phase", telemetry::phase_name(phase));
    pw.field("entries", st.entries);
    pw.field("exclusive_us", st.exclusive_us);
    pw.field("scope_p50_us", prof.scope_histogram(phase).percentile(0.50));
    pw.field("scope_p99_us", prof.scope_histogram(phase).percentile(0.99));
    pw.end_object();
    j.value_raw(std::move(pw).take());
  }
  j.end_array();
  j.begin_object("layers");
  for (const auto& [k, v] : chosen.layers) j.field(k, v);
  j.end_object();
  j.end_object();
  std::ofstream f(path);
  f << std::move(j).take() << "\n";
  if (!f) throw std::runtime_error("cannot write artefact " + path);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string artefact;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--artefact") {
      a.artefact = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_replay: " << e.what() << "\n";
    return 2;
  }

  std::vector<std::string> errors;
  std::uint64_t replays = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, double> wall;  ///< uncalibrated medians, untraced
  std::string outcome_json = "[]";
  double input_rss = 0.0;
  try {
    const Workload w = perfbench::make_workload(args.workload, args.seed);
    const auto prefix = perfbench::prefix_before(w, w.gate_prefix);
    // The inputs and the gate prefix stay resident for the whole process;
    // peak_rss_mib counts only what the replays add on top of them.
    input_rss = input_rss_mib();

    // Correctness, part 1: every replay of an input must reproduce that
    // input's first outcome, traced or not.
    std::vector<std::optional<Outcome>> first(w.inputs.size());
    auto run_checked = [&](std::size_t i, const Tracing& tracing,
                           const char* kind) {
      const perfbench::Input& in = w.inputs[i];
      Replay r = perfbench::replay(w, in.arrivals, in.options, tracing);
      ++replays;
      if (!first[i].has_value()) {
        first[i] = r.outcome;
      } else if (!(r.outcome == *first[i])) {
        ++failed;
        errors.push_back(std::string(kind) + " replay of input " +
                         std::to_string(i) + " diverged: " + r.outcome.json() +
                         " vs " + first[i]->json());
      }
      return r;
    };

    const auto start = Clock::now();
    auto elapsed = [&] { return seconds_between(start, Clock::now()); };
    if (!args.trace) {
      // An untimed replay first: it fills caches and the allocator, and
      // gives input 0 a repetition even when one round fills --seconds.
      run_checked(0, Tracing{}, "plain");
      // Host-speed readings: the fastest of three runs of the reference
      // join over the calibration input, which must count the same results
      // every time.
      std::optional<std::uint64_t> calibration_count;
      auto calibrate = [&] {
        double best = 0.0;
        for (int i = 0; i < 3; ++i) {
          const auto t0 = Clock::now();
          std::uint64_t count = 0;
          for (const auto& q : w.queries) {
            count += perfbench::reference_join_count(q, w.calibration);
          }
          const double s = seconds_between(t0, Clock::now());
          best = i == 0 ? s : std::min(best, s);
          if (!calibration_count.has_value()) calibration_count = count;
          if (count != *calibration_count) {
            errors.push_back("calibration join counted " +
                             std::to_string(count) + ", first " +
                             std::to_string(*calibration_count));
          }
        }
        return best;
      };
      // Every input once, then more replays in input order while the next
      // one fits in --seconds, judging by the last. A host reading is taken
      // before the first replay and after each one; a replay's times are
      // scaled by the mean of the readings around it over the nominal one,
      // to what they would be on an undisturbed core. Rates and set-up
      // times are medians over every timed replay, so a rare input on
      // which the tuner settles on a costly index does not swing them.
      // The calibration join's memory is kept out of peak_rss_mib: the
      // heap is trimmed and the peak restarted before each replay, and
      // the peak is read after it.
      std::vector<double> setup, rate, raw_setup, raw_rate, host;
      double reading = calibrate();
      double peak_mib = 0.0;
      double last_s = 0.0;
      for (std::size_t n = 0;
           n < w.inputs.size() || elapsed() + last_s <= args.seconds; ++n) {
        const auto replay_start = Clock::now();
        trim_heap();
        restart_peak_rss();
        const Replay r = run_checked(n % w.inputs.size(), Tracing{}, "plain");
        peak_mib = std::max(peak_mib, status_mib("VmHWM"));
        const double next = calibrate();
        last_s = seconds_between(replay_start, Clock::now());
        const double slowdown = (reading + next) / 2.0 / w.calibration_nominal_s;
        reading = next;
        raw_rate.push_back(static_cast<double>(r.outcome.arrivals) /
                           r.measured_s);
        raw_setup.push_back(r.setup_s);
        rate.push_back(raw_rate.back() * slowdown);
        setup.push_back(r.setup_s / slowdown);
        host.push_back(slowdown);
      }
      wall = {{"arrivals_per_s_uncalibrated", median(raw_rate)},
              {"setup_s_uncalibrated", median(raw_setup)},
              {"host_slowdown", median(host)}};
      double results = 0.0, offered = 0.0, failed_arrivals = 0.0;
      for (const auto& oc : first) {
        results += static_cast<double>(oc->results);
        offered += static_cast<double>(oc->offered);
        failed_arrivals += static_cast<double>(oc->failed());
      }
      metrics["arrivals_per_s"] = median(rate);
      metrics["setup_s"] = median(setup);
      metrics["peak_rss_mib"] = peak_mib - input_rss;
      metrics["model_results"] = results;
      metrics["model_done_frac"] =
          offered > 0 ? 1.0 - failed_arrivals / offered : 1.0;
    } else {
      // Per-layer figures come from input 0: alternating plain and
      // profiled replays, so the pair gives the tracing overhead.
      SpanLog spans;
      std::vector<double> plain_run_s;
      std::vector<Replay> profiled;
      std::vector<std::unique_ptr<telemetry::Telemetry>> tels;
      double pair_s = 0.0;
      do {
        const auto pair_start = Clock::now();
        plain_run_s.push_back(run_checked(0, Tracing{}, "plain").run_s);
        telemetry::TelemetryOptions topts;
        topts.enable_profiler = true;
        topts.event_capacity = 4096;
        tels.push_back(std::make_unique<telemetry::Telemetry>(topts));
        profiled.push_back(
            run_checked(0, Tracing{&spans, tels.back().get()}, "profiled"));
        pair_s = seconds_between(pair_start, Clock::now());
      } while (elapsed() + pair_s <= args.seconds);
      std::vector<std::size_t> idx(profiled.size());
      for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
      std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        return profiled[a].run_s < profiled[b].run_s;
      });
      const std::size_t mid = idx[(idx.size() - 1) / 2];
      metrics = profiled[mid].layers;
      metrics["trace.overhead_frac"] =
          profiled[mid].run_s / median(plain_run_s) - 1.0;
      if (!args.artefact.empty()) {
        write_artefact(args.artefact, w, args.seed, spans, *tels[mid],
                       profiled[mid]);
      }
    }

    // Part 2, after the timed replays: a zero-cost prefix against the
    // reference.
    std::vector<std::string> gate_errors;
    const auto counts = perfbench::gate_engine_counts(w, gate_errors);
    for (auto& m : perfbench::gate_mismatches(w.queries, counts, prefix)) {
      gate_errors.push_back("gate: " + m);
    }
    ++replays;
    if (!gate_errors.empty()) ++failed;
    errors.insert(errors.end(), gate_errors.begin(), gate_errors.end());

    outcome_json = "[";
    for (std::size_t i = 0; i < first.size(); ++i) {
      if (!first[i].has_value()) continue;
      outcome_json += (outcome_json.size() > 1 ? "," : "") + first[i]->json();
    }
    outcome_json += "]";
  } catch (const std::exception& e) {
    errors.push_back(std::string("error: ") + e.what());
    ++failed;
  }

  telemetry::JsonWriter j;
  j.begin_object();
  j.field("workload", args.workload);
  j.field("seed", args.seed);
  j.field("correct", errors.empty());
  j.field("replays", replays);
  j.field("failed_replays", failed);
  j.begin_array("errors");
  for (const auto& e : errors) j.value(e);
  j.end_array();
  j.begin_object("metrics");
  for (const auto& [k, v] : metrics) j.field(k, v);
  j.end_object();
  j.field("input_rss_mib", input_rss);
  j.begin_object("wall");
  for (const auto& [k, v] : wall) j.field(k, v);
  j.end_object();
  j.raw_field("outcome", outcome_json);
  j.begin_object("build");
  j.field("compiler", std::string(PERFBENCH_COMPILER));
  j.field("build_type", std::string(PERFBENCH_BUILD_TYPE));
  j.end_object();
  j.end_object();
  std::cout << std::move(j).take() << std::endl;
  return errors.empty() ? 0 : 1;
}
