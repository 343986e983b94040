// Golden tests for the adversarial scenario library: every named scenario
// is a pure function of (options, seed). Pinned here per scenario:
//
//   * an FNV-1a digest over the first tuples of its source (stream, ts,
//     seq, values) — any change to generation order, value draws, or
//     delivery re-ordering shows up as a digest mismatch;
//   * the total migration count and per-state final index configurations
//     of a short guardrailed executor run — the end-to-end fingerprint of
//     scenario + assessment + guardrailed tuning.
//
// The pins keep the committed BENCH trajectory comparable across PRs: a
// deliberate workload change must update them (and the bench entry)
// consciously.
#include "workload/adversarial.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/executor.hpp"
#include "engine/multi_query.hpp"
#include "tuner/amri_tuner.hpp"

namespace amri::workload {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
}

std::uint64_t stream_digest(const AdversarialScenario& scenario,
                            std::size_t tuples,
                            std::uint64_t seed_offset = 0) {
  auto source = scenario.make_source(seed_offset);
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < tuples; ++i) {
    const auto t = source->next();
    if (!t.has_value()) break;
    fnv_mix(h, t->stream);
    fnv_mix(h, static_cast<std::uint64_t>(t->ts));
    fnv_mix(h, t->seq);
    for (const Value v : t->values) {
      fnv_mix(h, static_cast<std::uint64_t>(v));
    }
  }
  return h;
}

AdversarialOptions golden_options() {
  AdversarialOptions o;
  o.rate_per_sec = 40.0;
  o.seed = 11;
  o.generate_seconds = 0.0;
  return o;
}

struct EngineFingerprint {
  std::uint64_t migrations = 0;
  std::string final_ics;  // per-state final index strings, '|'-joined
};

EngineFingerprint engine_fingerprint(const AdversarialScenario& scenario) {
  auto eopts = scenario.executor_options();
  eopts.duration = seconds_to_micros(6.0);
  eopts.sample_every = seconds_to_micros(3.0);
  eopts.stem.backend = engine::IndexBackend::kAmri;
  const std::size_t n_attrs = scenario.query().layout(0).jas.size();
  std::vector<std::uint8_t> bits(n_attrs, 0);
  for (int b = 0; b < 8; ++b) ++bits[static_cast<std::size_t>(b) % n_attrs];
  eopts.stem.initial_config = index::IndexConfig(bits);
  tuner::TunerOptions topts;
  topts.reassess_every = 500;
  topts.optimizer.bit_budget = 8;
  tuner::GuardrailOptions g;
  g.enabled = true;
  topts.guardrails = g;
  eopts.stem.amri_tuner = topts;

  engine::Executor ex(scenario.query(), eopts);
  const auto source = scenario.make_source();
  const auto r = ex.run(*source);
  EngineFingerprint fp;
  for (const auto& st : r.states) {
    fp.migrations += st.migrations;
    if (!fp.final_ics.empty()) fp.final_ics += "|";
    fp.final_ics += st.final_index;
  }
  return fp;
}

struct Golden {
  const char* name;
  std::uint64_t digest;       // stream_digest over the first 2000 tuples
  std::uint64_t migrations;   // engine_fingerprint
  const char* final_ics;
};

// Pinned under golden_options() — regenerate by running this test and
// copying the reported actuals when a workload change is intentional.
constexpr Golden kGolden[] = {
    {"rotating_hot_set", 0xbbb7c801cfe0411fULL, 4,
     "bit_address[A:0 B:5 C:3]|bit_address[A:0 B:5 C:3]|"
     "bit_address[A:0 B:4 C:4]|bit_address[A:3 B:5 C:0]"},
    {"bursty_diurnal", 0x55d778ec50cdd02bULL, 4,
     "bit_address[A:8 B:0 C:0]|bit_address[A:0 B:5 C:3]|"
     "bit_address[A:3 B:0 C:5]|bit_address[A:1 B:4 C:3]"},
    {"correlated_join", 0xadb50ad678d86ca1ULL, 4,
     "bit_address[A:0 B:5 C:3]|bit_address[A:0 B:4 C:4]|"
     "bit_address[A:0 B:0 C:8]|bit_address[A:4 B:4 C:0]"},
    {"out_of_order", 0x1c9a44e5f587e4efULL, 3,
     "bit_address[A:0 B:5 C:3]|bit_address[A:0 B:5 C:3]|"
     "bit_address[A:3 B:3 C:2]|bit_address[A:4 B:4 C:0]"},
    {"many_way", 0x03dd2bc24755f55cULL, 5,
     "bit_address[A:0 B:2 C:3 D:1 E:2]|bit_address[A:0 B:3 C:3 D:2 E:0]|"
     "bit_address[A:3 B:3 C:2 D:0 E:0]|bit_address[A:3 B:0 C:2 D:2 E:1]|"
     "bit_address[A:2 B:2 C:2 D:1 E:1]|bit_address[A:3 B:3 C:2 D:0 E:0]"},
    {"oom_cliff", 0xd7f6365c6e80750aULL, 4,
     "bit_address[A:4 B:4 C:0]|bit_address[A:0 B:5 C:3]|"
     "bit_address[A:4 B:4 C:0]|bit_address[A:4 B:4 C:0]"},
    // Two shared states (union of 3 overlapping templates, 4 attributes);
    // the 6 s golden run stays below the first reassessment epoch, so the
    // pinned fingerprint is the evenly spread initial configuration.
    {"multi_query", 0x31fbdda6ab099fcdULL, 0,
     "bit_address[A:2 B:2 C:2 D:2]|bit_address[A:2 B:2 C:2 D:2]"},
};

TEST(AdversarialScenarios, NamesMatchGoldenTableAndUnknownThrows) {
  const auto& names = AdversarialScenario::names();
  ASSERT_EQ(names.size(), std::size(kGolden));
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(names[i], kGolden[i].name);
  }
  EXPECT_THROW(AdversarialScenario::make("no_such_scenario"),
               std::invalid_argument);
}

TEST(AdversarialScenarios, StreamDigestsArePinned) {
  for (const Golden& g : kGolden) {
    const auto scenario = AdversarialScenario::make(g.name, golden_options());
    const std::uint64_t d = stream_digest(*scenario, 2000);
    EXPECT_EQ(d, g.digest) << g.name << " digest 0x" << std::hex << d;
    // Same seed reproduces; a different seed offset decorrelates.
    EXPECT_EQ(stream_digest(*scenario, 2000), d) << g.name;
    EXPECT_NE(stream_digest(*scenario, 2000, 1), d) << g.name;
  }
}

TEST(AdversarialScenarios, EngineFingerprintsArePinned) {
  for (const Golden& g : kGolden) {
    const auto scenario = AdversarialScenario::make(g.name, golden_options());
    const EngineFingerprint fp = engine_fingerprint(*scenario);
    EXPECT_EQ(fp.migrations, g.migrations) << g.name;
    EXPECT_EQ(fp.final_ics, g.final_ics) << g.name << " ics " << fp.final_ics;
  }
}

TEST(AdversarialScenarios, OutOfOrderDeliveryIsTimestampMonotone) {
  const auto scenario =
      AdversarialScenario::make("out_of_order", golden_options());
  auto source = scenario->make_source();
  TimeMicros last = 0;
  std::uint64_t last_seq = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto t = source->next();
    ASSERT_TRUE(t.has_value());
    // The engine requires non-decreasing delivery timestamps and strictly
    // increasing sequence numbers even though generation was reordered.
    ASSERT_GE(t->ts, last);
    if (i > 0) {
      ASSERT_GT(t->seq, last_seq);
    }
    last = t->ts;
    last_seq = t->seq;
  }
}

TEST(AdversarialScenarios, MultiQueryTemplatesOverlap) {
  AdversarialOptions o = golden_options();
  o.num_queries = 4;
  const auto scenario = AdversarialScenario::make("multi_query", o);
  // Query i joins attributes {i, i+1}: 4 templates over 5 shared
  // attributes, every neighbouring pair sharing exactly one.
  const auto& queries = scenario->queries();
  ASSERT_EQ(queries.size(), 4u);
  EXPECT_EQ(scenario->query().layout(0).jas.size(), 5u);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const auto& preds = queries[qi].predicates();
    ASSERT_EQ(preds.size(), 2u);
    EXPECT_EQ(preds[0].left_attr, static_cast<AttrId>(qi));
    EXPECT_EQ(preds[1].left_attr, static_cast<AttrId>(qi + 1));
  }
  // Every other scenario exposes its single query through queries().
  const auto single =
      AdversarialScenario::make("rotating_hot_set", golden_options());
  ASSERT_EQ(single->queries().size(), 1u);
  EXPECT_EQ(single->queries()[0].predicates().size(),
            single->query().predicates().size());

  // The bundle drives a shared-state multi-query run end to end.
  auto eopts = scenario->executor_options();
  eopts.duration = seconds_to_micros(4.0);
  engine::MultiQueryExecutor ex(queries, eopts);
  const auto source = scenario->make_source();
  const auto r = ex.run(*source);
  EXPECT_EQ(r.per_query_outputs.size(), queries.size());
}

TEST(AdversarialScenarios, DiurnalModulationChangesBurstyDigest) {
  // bursty_diurnal with the diurnal term switched off must generate a
  // different stream: the modulation is live, not dead configuration.
  AdversarialOptions flat = golden_options();
  flat.diurnal_amplitude = 0.0;
  const auto modulated =
      AdversarialScenario::make("bursty_diurnal", golden_options());
  const auto unmodulated = AdversarialScenario::make("bursty_diurnal", flat);
  EXPECT_NE(stream_digest(*modulated, 2000), stream_digest(*unmodulated, 2000));
}

}  // namespace
}  // namespace amri::workload
