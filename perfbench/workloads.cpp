#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "engine/query_parser.hpp"
#include "workload/adversarial.hpp"
#include "workload/phase_schedule.hpp"
#include "workload/scenario.hpp"
#include "workload/synthetic_generator.hpp"

namespace perfbench {
namespace {

using namespace amri;

// Executors sample every 0.1 virtual seconds in every run, so the profiled
// run's backlog maximum has 0.1 s resolution. Sampling charges no
// modelled cost, so it does not change the outcome.
constexpr TimeMicros kSampleEvery = 100'000;

/// The seed of the host-speed calibration input, the same in every run.
constexpr std::uint64_t kCalibrationSeed = 1ULL << 62;

std::vector<Tuple> drain(engine::TupleSource& source) {
  std::vector<Tuple> out;
  while (auto t = source.next()) out.push_back(std::move(*t));
  return out;
}

std::vector<Tuple> arrivals_before(const std::vector<Tuple>& arrivals,
                                   TimeMicros end) {
  const auto cut = std::lower_bound(
      arrivals.begin(), arrivals.end(), end,
      [](const Tuple& t, TimeMicros e) { return t.ts < e; });
  return {arrivals.begin(), cut};
}

/// An even split of `bits` over `attrs` attributes (the amri_sim default).
index::IndexConfig even_config(std::size_t attrs, int bits) {
  std::vector<std::uint8_t> alloc(std::max<std::size_t>(attrs, 1), 0);
  for (int b = 0; b < bits; ++b) {
    ++alloc[static_cast<std::size_t>(b) % alloc.size()];
  }
  return index::IndexConfig(alloc);
}

/// amri_sim's tuner defaults.
tuner::TunerOptions sim_tuner() {
  tuner::TunerOptions t;
  t.assessor_params.epsilon = 0.05;
  t.theta = 0.1;
  t.reassess_every = 2000;
  t.optimizer.bit_budget = 8;
  return t;
}

/// amri_sim's default query: COUNT(*) over a 3-way chain join with
/// rotating drift, tuple-at-a-time.
void count3(Workload& w, const std::vector<std::uint64_t>& seeds) {
  constexpr double kRate = 80.0;
  const TimeMicros warmup = seconds_to_micros(20);
  const TimeMicros duration = seconds_to_micros(20);
  const std::vector<Schema> catalog = {
      Schema("Sensors", {"device", "battery", "reading"}),
      Schema("Gateways", {"device", "zone", "load"}),
      Schema("Alerts", {"zone", "severity"}),
  };
  engine::ParsedQuery parsed = engine::parse_query(
      "SELECT COUNT(*) FROM Sensors S, Gateways G, Alerts A "
      "WHERE S.device = G.device AND G.zone = A.zone AND S.battery >= 10 "
      "WINDOW 20",
      catalog);
  w.queries.push_back(std::move(parsed.query));
  w.count_aggregate = true;
  w.gate_prefix = seconds_to_micros(25);
  w.calibration_prefix = seconds_to_micros(15);
  w.calibration_nominal_s = 0.0135;
  const engine::QuerySpec& q = w.queries.front();

  engine::ExecutorOptions o;
  o.warmup = warmup;
  o.duration = duration;
  o.stem.initial_config = even_config(q.layout(0).jas.size(), 8);
  o.stem.amri_tuner = sim_tuner();
  o.model_params.lambda_d = kRate;
  o.model_params.lambda_r = kRate * static_cast<double>(q.num_streams());
  o.model_params.window_units = micros_to_seconds(q.window());

  const TimeMicros end = warmup + duration;
  for (const std::uint64_t seed : seeds) {
    workload::GeneratorOptions g;
    g.rates_per_sec.assign(q.num_streams(), kRate);
    g.end = end;
    g.seed = seed;
    workload::SyntheticGenerator gen(
        q,
        workload::PhaseSchedule::rotating(q.predicates().size(), 8, end / 8,
                                          12, 48),
        g);
    w.inputs.push_back({drain(gen), o});
  }
}

/// The paper's Fig. 7 AMRI configuration (the EvalParams defaults of the
/// figure benches, pinned here so the workload does not follow them):
/// 4-way complete join, CDIA-hc tuner, 5.5 MiB memory budget; at batch
/// size 64, so that backlogs make batches of more than one arrival.
void drift4_b64(Workload& w, const std::vector<std::uint64_t>& seeds) {
  constexpr double kRate = 85.0;
  const TimeMicros warmup = seconds_to_micros(40);
  const TimeMicros duration = seconds_to_micros(30);
  w.gate_prefix = seconds_to_micros(45);
  w.calibration_prefix = seconds_to_micros(15);
  w.calibration_nominal_s = 0.0147;
  for (const std::uint64_t seed : seeds) {
    workload::ScenarioOptions so;
    so.streams = 4;
    so.rate_per_sec = kRate;
    so.window_seconds = 40.0;
    so.phase_seconds = 45.0;
    so.num_phases = 512;
    so.hot_domain = 27;
    so.cold_domain = 95;
    so.seed = seed;
    so.generate_seconds = micros_to_seconds(warmup + duration);
    const workload::Scenario sc(so);
    if (w.queries.empty()) w.queries.push_back(sc.query());

    engine::ExecutorOptions o = sc.default_executor_options();
    o.costs.hash_cost_us = 0.25;
    o.costs.compare_cost_us = 0.35;
    o.costs.bucket_visit_cost_us = 0.1;
    o.costs.route_cost_us = 0.1;
    o.costs.insert_cost_us = 0.1;
    o.costs.delete_cost_us = 0.1;
    o.model_params.hash_cost = o.costs.hash_cost_us;
    o.model_params.compare_cost = o.costs.compare_cost_us;
    o.model_params.bucket_cost = o.costs.bucket_visit_cost_us;
    o.warmup = warmup;
    o.duration = duration;
    o.memory_budget = 5767168;
    o.eddy.routing.exploration_rate = 0.10;
    o.eddy.routing.seed = seed * 7919 + 13;
    o.stem.backend = engine::IndexBackend::kAmri;
    o.stem.initial_config = even_config(sc.query().layout(0).jas.size(), 8);
    tuner::TunerOptions t;
    t.assessor = assessment::AssessorKind::kCdiaHighestCount;
    t.assessor_params.epsilon = 0.05;
    t.assessor_params.seed = seed * 31 + 5;
    t.theta = 0.10;
    t.reassess_every = 1500;
    t.optimizer.bit_budget = 8;
    t.optimizer.max_bits_per_attr = 8;
    o.stem.amri_tuner = t;
    o.batch_size = 64;
    w.inputs.push_back({drain(*sc.make_source()), o});
  }
}

/// The multi_query adversarial scenario: three overlapping two-stream
/// templates sharing one state per stream, default tuner guardrails.
void multiq3(Workload& w, const std::vector<std::uint64_t>& seeds) {
  const TimeMicros warmup = seconds_to_micros(10);
  const TimeMicros duration = seconds_to_micros(30);
  w.gate_prefix = seconds_to_micros(25);
  w.calibration_prefix = seconds_to_micros(10);
  w.calibration_nominal_s = 0.0105;
  for (const std::uint64_t seed : seeds) {
    workload::AdversarialOptions ao;
    ao.rate_per_sec = 400.0;
    ao.seed = seed;
    ao.generate_seconds = micros_to_seconds(warmup + duration);
    ao.num_queries = 3;
    const auto sc = workload::AdversarialScenario::make("multi_query", ao);
    if (w.queries.empty()) w.queries = sc->queries();

    engine::ExecutorOptions o = sc->executor_options();
    o.warmup = warmup;
    o.duration = duration;
    o.stem.backend = engine::IndexBackend::kAmri;
    o.stem.initial_config = even_config(sc->query().layout(0).jas.size(), 8);
    tuner::TunerOptions t = sim_tuner();
    tuner::GuardrailOptions guardrails;  // default production settings
    guardrails.enabled = true;
    t.guardrails = guardrails;
    o.stem.amri_tuner = t;
    w.inputs.push_back({drain(*sc->make_source()), o});
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"count3", "drift4_b64",
                                                 "multiq3"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  // Inputs per run: drift4_b64's work per arrival follows the tuner's
  // choices and varies most between inputs, so it gets the most. Input i of
  // seed s is drawn from seed s * 16 + i, so no two (seed, input) pairs
  // share one.
  const std::uint64_t inputs = name == "drift4_b64" ? 16 : 8;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < inputs; ++i) seeds.push_back(seed * 16 + i);

  const auto t0 = std::chrono::steady_clock::now();
  Workload w;
  w.name = name;
  void (*build)(Workload&, const std::vector<std::uint64_t>&) = nullptr;
  if (name == "count3") {
    build = count3;
  } else if (name == "drift4_b64") {
    build = drift4_b64;
  } else if (name == "multiq3") {
    build = multiq3;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  build(w, seeds);
  for (Input& in : w.inputs) in.options.sample_every = kSampleEvery;
  {
    Workload fixed;
    build(fixed, {kCalibrationSeed});
    w.calibration = arrivals_before(fixed.inputs.front().arrivals,
                                    w.calibration_prefix);
  }
  w.gen_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
  return w;
}

std::vector<Tuple> prefix_before(const Workload& w, TimeMicros end) {
  return arrivals_before(w.inputs.front().arrivals, end);
}

}  // namespace perfbench
