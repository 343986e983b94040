// amri_sim — run an SPJ query (the paper's Figure 2 template) over
// synthetic drifting streams with the full AMRI stack, from the command
// line.
//
//   ./amri_sim                                   # default demo query
//   ./amri_sim 'query=SELECT COUNT(*) FROM Sensors S, Gateways G
//               WHERE S.region = G.region WINDOW 20' sim_seconds=60
//
// Knobs (key=value): sim_seconds, rate, seed, backend=amri|bitmap|modules|
// scan, bits, epsilon, theta, batch_size, decision_reuse. Each state holds
// one index and the engine runs on one thread. `--batch-size N` moves up
// to N arrivals through the pipeline together (1, the default, is
// tuple-at-a-time). `--decision-reuse N` reuses one routing decision
// per done-mask N times.
// `--trace-out run.jsonl` attaches telemetry and
// writes the full run trace (events + final metrics) as JSON lines.
// `--trace-sample N` additionally traces every Nth arrival end-to-end as
// span events; `--profile` turns on the wall-clock phase profiler and
// prints the per-phase table after the run; `--event-capacity N` sizes
// the trace ring (oldest events drop past it).
// `--scenario <name>` swaps the parsed query for a named adversarial
// workload (src/workload/adversarial.hpp): rotating_hot_set,
// bursty_diurnal, correlated_join, out_of_order, many_way, oom_cliff,
// multi_query. `--queries N` runs N overlapping SPJ templates through ONE
// set of shared per-stream states (MultiQueryExecutor over the
// multi_query scenario, implied when no scenario is named): the shared
// index serves the union workload, the tuner merges per-query
// assessments, and the report adds a per-query output table. All engine
// knobs (`--batch-size`, `--guardrails`, …) apply unchanged
// in multi-query mode.
// `--guardrails 1` enables the tuner's production guardrails;
// `--tuner-deadband`, `--tuner-hysteresis-epochs`, `--tuner-horizon`,
// `--tuner-budget-time-us` and `--tuner-budget-mem-bytes` tune them (see
// docs/architecture.md, "Tuner guardrails").
// A flag the run never reads (a typo, or a knob that does not apply, such
// as `--tuner-deadband` without `--guardrails`) is an error: the simulator
// names it and exits 2 before running.
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/table_printer.hpp"
#include "engine/aggregate.hpp"
#include "engine/multi_query.hpp"
#include "engine/query_parser.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/adversarial.hpp"
#include "workload/synthetic_generator.hpp"

using namespace amri;

namespace {

/// Generates arrivals for the *parsed* query's streams: each catalog
/// stream referenced by the query emits tuples at `rate`, join attributes
/// drawn from per-predicate domains.
class QuerySource final : public engine::TupleSource {
 public:
  QuerySource(const engine::QuerySpec& query, double rate, TimeMicros end,
              std::uint64_t seed)
      : query_(query),
        schedule_(workload::PhaseSchedule::rotating(
            std::max<std::size_t>(query.predicates().size(), 1), 8,
            end > 0 ? std::max<TimeMicros>(end / 8, 1) : seconds_to_micros(30),
            12, 48)) {
    workload::GeneratorOptions gopts;
    gopts.rates_per_sec.assign(query.num_streams(), rate);
    gopts.end = end;
    gopts.seed = seed;
    gen_ = std::make_unique<workload::SyntheticGenerator>(query_, schedule_,
                                                          gopts);
  }

  std::optional<Tuple> next() override { return gen_->next(); }

 private:
  const engine::QuerySpec& query_;
  workload::PhaseSchedule schedule_;
  std::unique_ptr<workload::SyntheticGenerator> gen_;
};

engine::IndexBackend backend_from(const std::string& name) {
  if (name == "amri") return engine::IndexBackend::kAmri;
  if (name == "bitmap") return engine::IndexBackend::kStaticBitmap;
  if (name == "modules") return engine::IndexBackend::kAccessModules;
  if (name == "scan") return engine::IndexBackend::kScan;
  throw std::invalid_argument("unknown backend '" + name +
                              "' (amri|bitmap|modules|scan)");
}

/// `--guardrails 1` plus the `--tuner-*` knobs → the tuner's guardrail
/// options. Unset (the default) keeps the legacy always-migrate rule.
void apply_guardrail_flags(const Config& cfg, tuner::TunerOptions& topts) {
  if (!cfg.bool_or("guardrails", false)) return;
  tuner::GuardrailOptions g;
  g.enabled = true;
  g.benefit_deadband = cfg.double_or("tuner_deadband", g.benefit_deadband);
  g.min_epochs_between_migrations = cfg.size_or(
      "tuner_hysteresis_epochs", g.min_epochs_between_migrations);
  g.amortize_horizon_units =
      cfg.double_or("tuner_horizon", g.amortize_horizon_units);
  g.epoch_time_budget_us =
      cfg.double_or("tuner_budget_time_us", g.epoch_time_budget_us);
  g.burst_epochs = cfg.double_or("tuner_budget_burst_epochs", g.burst_epochs);
  if (cfg.get_string("tuner_budget_mem_bytes").has_value()) {
    g.state_memory_budget_bytes = cfg.size_or("tuner_budget_mem_bytes", 0);
  }
  topts.guardrails = g;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const double rate = cfg.double_or("rate", 80.0);
  const double sim_seconds = cfg.double_or("sim_seconds", 60.0);
  const std::size_t num_queries =
      std::max<std::size_t>(cfg.size_or("queries", 1), 1);

  // `--scenario <name>` bypasses the query parser: the adversarial
  // library supplies the query, the drift schedule, and the source.
  // `--queries N` (N > 1) implies the multi_query scenario — the only
  // bundle that carries several templates over one stream set.
  std::unique_ptr<workload::AdversarialScenario> scenario;
  std::optional<engine::ParsedQuery> maybe_parsed;
  std::string run_label;
  std::optional<std::string> scenario_name = cfg.get_string("scenario");
  if (num_queries > 1) {
    if (scenario_name.has_value() && *scenario_name != "multi_query") {
      std::cerr << "--queries " << num_queries
                << " requires the multi_query scenario (got '"
                << *scenario_name << "')\n";
      return 1;
    }
    scenario_name = "multi_query";
  }
  if (scenario_name.has_value()) {
    workload::AdversarialOptions aopts;
    aopts.rate_per_sec = rate;
    aopts.seed = static_cast<std::uint64_t>(cfg.int_or("seed", 1));
    aopts.generate_seconds = sim_seconds;
    aopts.rotate_seconds =
        cfg.double_or("rotate_seconds", aopts.rotate_seconds);
    aopts.zipf_exponent = cfg.double_or("zipf", aopts.zipf_exponent);
    aopts.num_queries = num_queries > 1 ? num_queries : aopts.num_queries;
    try {
      scenario = workload::AdversarialScenario::make(*scenario_name, aopts);
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "; known scenarios:";
      for (const auto& n : workload::AdversarialScenario::names()) {
        std::cerr << " " << n;
      }
      std::cerr << "\n";
      return 1;
    }
    run_label = "scenario " + scenario->name();
  } else {
    const std::string query_text = cfg.string_or(
        "query",
        "SELECT COUNT(*) FROM Sensors S, Gateways G, Alerts A "
        "WHERE S.device = G.device AND G.zone = A.zone AND S.battery >= 10 "
        "WINDOW 20");

    // Catalog of available streams for the demo.
    const std::vector<Schema> catalog = {
        Schema("Sensors", {"device", "battery", "reading"}),
        Schema("Gateways", {"device", "zone", "load"}),
        Schema("Alerts", {"zone", "severity"}),
    };

    try {
      maybe_parsed = engine::parse_query(query_text, catalog);
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";
      return 1;
    }
    run_label = query_text;
  }
  const engine::QuerySpec& query =
      scenario != nullptr ? scenario->query() : maybe_parsed->query;

  engine::ExecutorOptions opts = scenario != nullptr
                                     ? scenario->executor_options()
                                     : engine::ExecutorOptions{};
  opts.duration = seconds_to_micros(sim_seconds);
  opts.sample_every = seconds_to_micros(sim_seconds / 6);
  try {
    opts.stem.backend = backend_from(cfg.string_or("backend", "amri"));
  } catch (const std::invalid_argument& e) {
    std::cerr << "amri_sim: " << e.what() << "\n";
    return 1;
  }
  const std::size_t n_attrs = query.layout(0).jas.size();
  const int bits = static_cast<int>(cfg.int_or("bits", 8));
  std::vector<std::uint8_t> alloc(std::max<std::size_t>(n_attrs, 1), 0);
  for (int b = 0; b < bits; ++b) {
    ++alloc[static_cast<std::size_t>(b) % alloc.size()];
  }
  try {
    opts.stem.initial_config = index::IndexConfig(alloc);
  } catch (const std::invalid_argument& e) {
    std::cerr << "amri_sim: bits=" << bits << ": " << e.what() << "\n";
    return 1;
  }
  tuner::TunerOptions topts;
  topts.assessor_params.epsilon = cfg.double_or("epsilon", 0.05);
  topts.theta = cfg.double_or("theta", 0.1);
  topts.reassess_every = cfg.size_or("reassess_every", 2000);
  topts.optimizer.bit_budget = bits;
  apply_guardrail_flags(cfg, topts);
  opts.stem.amri_tuner = topts;
  opts.memory_budget = cfg.size_or("memory_budget", opts.memory_budget);
  opts.batch_size = std::max<std::size_t>(cfg.size_or("batch_size", 1), 1);
  opts.eddy.decision_reuse =
      std::max<std::size_t>(cfg.size_or("decision_reuse", 1), 1);
  if (scenario == nullptr) {
    opts.model_params.lambda_d = rate;
    opts.model_params.lambda_r = rate * query.num_streams();
    opts.model_params.window_units = micros_to_seconds(query.window());
  }
  opts.collect_rows = maybe_parsed.has_value() && !maybe_parsed->agg;

  // Aggregate queries stream every result through an AggregateSink.
  std::optional<engine::AggregateSink> agg_sink;
  if (maybe_parsed.has_value() && maybe_parsed->agg) {
    const engine::ParsedQuery& parsed = *maybe_parsed;
    agg_sink.emplace(*parsed.agg,
                     parsed.agg_column.value_or(engine::OutputColumn{0, 0}),
                     parsed.group_by);
    opts.on_result = [&agg_sink](const engine::JoinResult& r) {
      agg_sink->consume(r);
    };
  }

  // Telemetry attaches only when a trace, span sampling, or profiling is
  // requested: the default run carries no instrumentation cost beyond
  // null-pointer checks.
  const std::optional<std::string> trace_out = cfg.get_string("trace_out");
  const std::size_t trace_sample = cfg.size_or("trace_sample", 0);
  const bool profile = cfg.bool_or("profile", false);
  std::optional<telemetry::Telemetry> telemetry;
  if (trace_out.has_value() || trace_sample > 0 || profile) {
    telemetry::TelemetryOptions tel_opts;
    tel_opts.event_capacity = cfg.size_or("event_capacity", 8192);
    tel_opts.enable_profiler = profile;
    telemetry.emplace(tel_opts);
    opts.telemetry = &*telemetry;
    opts.trace_sample = trace_sample;
  }

  std::unique_ptr<engine::TupleSource> source;
  if (scenario != nullptr) {
    source = scenario->make_source();
  } else {
    source = std::make_unique<QuerySource>(
        query, rate, seconds_to_micros(sim_seconds),
        static_cast<std::uint64_t>(cfg.int_or("seed", 1)));
  }

  const std::vector<std::string> unread = cfg.unread_keys();
  if (!unread.empty()) {
    std::cerr << "amri_sim: unknown or unused flag(s):";
    for (const std::string& key : unread) std::cerr << " " << key;
    std::cerr << "\n";
    return 2;
  }

  // The executor outlives the whole report tail: telemetry keeps a pointer
  // to the executor-owned virtual clock (trace export stamps the write
  // time), so destroying the executor before write_trace_file would
  // dangle it.
  std::optional<engine::MultiQueryExecutor> executor;
  try {
    executor.emplace(num_queries > 1 ? scenario->queries()
                                     : std::vector<engine::QuerySpec>{query},
                     opts);
  } catch (const std::invalid_argument& e) {
    std::cerr << "amri_sim: " << e.what() << "\n";
    return 1;
  }

  std::cout << "running: " << run_label;
  if (num_queries > 1) std::cout << " (" << num_queries << " queries)";
  std::cout << "\n\n";

  engine::MultiRunResult run = executor->run(*source);
  const engine::RunResult& result = run.combined;
  const std::vector<std::uint64_t>& per_query_outputs = run.per_query_outputs;

  if (num_queries > 1) {
    // Per-query outputs from the shared-state run: one row per template,
    // with its join predicates for orientation.
    TablePrinter query_table({"query", "join", "outputs"});
    for (std::size_t qi = 0; qi < per_query_outputs.size(); ++qi) {
      const engine::QuerySpec& q = scenario->queries()[qi];
      std::string join;
      for (const auto& p : q.predicates()) {
        if (!join.empty()) join += " AND ";
        join += std::string(q.schema(p.left_stream).stream_name()) + "." +
                std::string(q.schema(p.left_stream).attr_name(p.left_attr)) +
                "=" +
                std::string(q.schema(p.right_stream).stream_name()) + "." +
                std::string(
                    q.schema(p.right_stream).attr_name(p.right_attr));
      }
      query_table.add_row({"q" + std::to_string(qi), join,
                           std::to_string(per_query_outputs[qi])});
    }
    std::cout << "per-query outputs (" << result.outputs << " total):\n";
    query_table.print(std::cout);
    std::cout << "\n";
  }

  if (agg_sink.has_value()) {
    const engine::ParsedQuery& parsed = *maybe_parsed;
    if (parsed.group_by) {
      std::cout << engine::agg_func_name(*parsed.agg) << " by group (top "
                << std::min<std::size_t>(agg_sink->group_count(), 10)
                << " of " << agg_sink->group_count() << "):\n";
      std::size_t shown = 0;
      for (const auto& [key, st] : agg_sink->groups()) {
        if (++shown > 10) break;
        std::cout << "  " << key << " -> " << st.value(*parsed.agg) << "\n";
      }
    } else {
      std::cout << engine::agg_func_name(*parsed.agg) << " = "
                << agg_sink->total() << "\n";
    }
  } else if (opts.collect_rows) {
    std::cout << "first " << result.rows.size() << " projected rows (of "
              << result.outputs << " results):\n";
    for (std::size_t i = 0; i < result.rows.size() && i < 10; ++i) {
      std::cout << "  (";
      for (std::size_t c = 0; c < result.rows[i].size(); ++c) {
        if (c != 0) std::cout << ", ";
        std::cout << result.rows[i][c];
      }
      std::cout << ")\n";
    }
  } else {
    std::cout << "join results: " << result.outputs << "\n";
  }

  std::cout << "\nthroughput curve:\n";
  for (const auto& s : result.samples) {
    std::cout << "  t=" << micros_to_seconds(s.t) << "s  outputs=" << s.outputs;
    for (std::size_t qi = 0; qi < s.per_query_outputs.size(); ++qi) {
      std::cout << "  q" << qi << "=" << s.per_query_outputs[qi];
    }
    std::cout << "\n";
  }
  std::cout << "\nstates:\n";
  std::vector<std::string> state_names;
  for (StreamId s = 0; s < query.num_streams(); ++s) {
    state_names.push_back(std::string(query.schema(s).stream_name()));
  }
  engine::make_state_table(result.states, state_names).print(std::cout);

  if (telemetry.has_value()) {
    // Per-state probe-cost percentiles from the stem histograms
    // (interpolated within buckets; see Histogram::percentile).
    TablePrinter probe_table(
        {"state", "probes", "p50_us", "p95_us", "p99_us", "max_us"});
    for (StreamId s = 0; s < query.num_streams(); ++s) {
      const auto* h = telemetry->metrics().find_histogram(
          "stem." + std::to_string(s) + ".probe.cost_us");
      if (h == nullptr || h->count() == 0) continue;
      probe_table.add_row({state_names[s], std::to_string(h->count()),
                           TablePrinter::fmt(h->percentile(0.50)),
                           TablePrinter::fmt(h->percentile(0.95)),
                           TablePrinter::fmt(h->percentile(0.99)),
                           TablePrinter::fmt(h->max_observed())});
    }
    if (probe_table.row_count() > 0) {
      std::cout << "\nprobe cost (virtual us per probe):\n";
      probe_table.print(std::cout);
    }
  }

  if (trace_sample > 0) {
    const auto* span_hist =
        telemetry->metrics().find_histogram("span.latency_us");
    if (span_hist != nullptr && span_hist->count() > 0) {
      std::cout << "\nsampled tuple latency (wall us, every " << trace_sample
                << "th arrival): n=" << span_hist->count()
                << "  p50=" << TablePrinter::fmt(span_hist->percentile(0.50))
                << "  p95=" << TablePrinter::fmt(span_hist->percentile(0.95))
                << "  p99=" << TablePrinter::fmt(span_hist->percentile(0.99))
                << "  max=" << TablePrinter::fmt(span_hist->max_observed())
                << "\n";
    }
  }

  if (profile) {
    const auto* wall = telemetry->metrics().find_gauge("profile.run.wall_us");
    std::cout << "\n";
    telemetry::print_phase_table(std::cout, *telemetry->profiler(),
                                 wall != nullptr ? wall->value() : 0.0);
  }

  if (telemetry.has_value()) {
    const auto* dropped =
        telemetry->metrics().find_counter("telemetry.events.dropped");
    if (dropped != nullptr && dropped->value() > 0) {
      std::cerr << "\nwarning: trace ring overflowed; " << dropped->value()
                << " oldest events dropped (raise --event-capacity, "
                   "currently "
                << telemetry->events().capacity() << ")\n";
    }
  }

  if (trace_out.has_value()) {
    if (telemetry::write_trace_file(*trace_out, *telemetry)) {
      std::cout << "\ntrace written to " << *trace_out << " ("
                << telemetry->events().total_emitted() << " events)\n";
    } else {
      std::cerr << "\nfailed to write trace to " << *trace_out << "\n";
      return 1;
    }
  }
  return 0;
}
