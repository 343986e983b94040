#include "tuner/amri_tuner.hpp"

#include <algorithm>
#include <cassert>

#include "common/bitops.hpp"
#include "index/access_pattern.hpp"
#include "telemetry/json.hpp"

namespace amri::tuner {

namespace {
// The selector built when TunerOptions carries no explicit guardrails:
// disabled, dead-band = min_improvement — the legacy migration rule.
GuardrailOptions effective_guardrails(const TunerOptions& options) {
  if (options.guardrails.has_value()) return *options.guardrails;
  GuardrailOptions g;
  g.enabled = false;
  g.benefit_deadband = options.min_improvement;
  return g;
}
}  // namespace

AmriTuner::AmriTuner(AttrMask universe, std::size_t num_attrs,
                     index::CostModel model, TunerOptions options,
                     MemoryTracker* memory, telemetry::Telemetry* telemetry,
                     StreamId stream)
    : universe_(universe),
      num_attrs_(num_attrs),
      model_(std::move(model)),
      options_(options),
      assessor_(assessment::make_assessor(options.assessor, universe,
                                          options.assessor_params)),
      evaluator_(make_cost_model_evaluator(model_, options.optimizer,
                                           num_attrs)),
      selector_(effective_guardrails(options), model_.params().hash_cost),
      telemetry_(telemetry),
      stream_(stream),
      migrator_(telemetry, stream),
      memory_(memory) {
  assert(assessor_ != nullptr);
  assert(popcount(universe) == static_cast<int>(num_attrs));
  if (telemetry_ != nullptr) {
    const std::string prefix = "stem." + std::to_string(stream_);
    assessor_->bind_telemetry(telemetry_, prefix + ".assess");
    auto& reg = telemetry_->metrics();
    decision_counter_ = &reg.counter(prefix + ".tuner.decisions");
    suppressed_counter_ = &reg.counter(prefix + ".tuner.suppressed");
    stats_entries_gauge_ = &reg.gauge(prefix + ".assess.table_size");
    stats_bytes_gauge_ = &reg.gauge(prefix + ".assess.bytes");
    model_error_gauge_ = &reg.gauge(prefix + ".tuner.model_error");
    realized_probe_gauge_ = &reg.gauge(prefix + ".tuner.realized_probe_us");
  }
}

void AmriTuner::set_evaluator(std::unique_ptr<CandidateEvaluator> evaluator) {
  assert(evaluator != nullptr);
  evaluator_ = std::move(evaluator);
}

AmriTuner::~AmriTuner() {
  if (memory_ != nullptr && tracked_bytes_ > 0) {
    memory_->release(MemCategory::kStatistics, tracked_bytes_);
  }
}

void AmriTuner::sync_memory() {
  if (memory_ == nullptr) return;
  const std::size_t now = assessor_->approx_bytes();
  if (now > tracked_bytes_) {
    memory_->allocate(MemCategory::kStatistics, now - tracked_bytes_);
  } else if (now < tracked_bytes_) {
    memory_->release(MemCategory::kStatistics, tracked_bytes_ - now);
  }
  tracked_bytes_ = now;
}

void AmriTuner::observe_request(AttrMask ap, std::uint64_t weight) {
  assert(is_subset(ap, universe_));
  assessor_->observe(ap, weight);
  since_last_decision_ += weight;
  observed_ += weight;
  sync_memory();
}

TuneDecision AmriTuner::decide(
    const std::vector<assessment::AssessedPattern>& frequent,
    const index::IndexConfig& current) {
  TuneDecision decision;
  decision.due = true;
  ++decisions_;
  since_last_decision_ = 0;

  decision.frequent_patterns = frequent.size();
  decision.previous = current;

  const std::size_t top_k = telemetry_ != nullptr
                                ? options_.telemetry_top_k
                                : options_.optimizer.track_top_k;
  Evaluation eval = evaluator_->evaluate({frequent, current}, top_k);
  decision.recommended = eval.best;
  decision.recommended_cost = eval.best_cost;
  decision.candidates = std::move(eval.top);
  decision.current_cost = eval.current_cost;
  if (telemetry_ != nullptr) {
    decision.top_patterns.assign(
        frequent.begin(),
        frequent.begin() +
            static_cast<std::ptrdiff_t>(
                std::min(frequent.size(), options_.telemetry_top_k)));
    decision_counter_->add();
    decision.predicted_current_probe_us =
        expected_probe_cost(current, frequent);
    decision.predicted_recommended_probe_us =
        expected_probe_cost(decision.recommended, frequent);
  }
  return decision;
}

double AmriTuner::expected_probe_cost(
    const index::IndexConfig& ic,
    const std::vector<assessment::AssessedPattern>& frequent) const {
  double weight = 0.0;
  double cost = 0.0;
  for (const auto& p : frequent) {
    weight += p.frequency;
    cost += p.frequency * model_.search_cost(ic, p.mask);
  }
  return weight > 0.0 ? cost / weight : -1.0;
}

TuneDecision AmriTuner::recommend(const index::IndexConfig& current) {
  TuneDecision decision = decide(assessor_->results(options_.theta), current);
  if (telemetry_ != nullptr) {
    stats_entries_gauge_->set(static_cast<double>(assessor_->table_size()));
    stats_bytes_gauge_->set(static_cast<double>(assessor_->approx_bytes()));
  }

  switch (options_.retention) {
    case StatsRetention::kReset:
      assessor_->reset();
      break;
    case StatsRetention::kKeep:
      break;
    case StatsRetention::kDecay:
      assessor_->decay(options_.decay_factor);
      break;
  }
  sync_memory();
  return decision;
}

void AmriTuner::emit_decision_event(const TuneDecision& decision,
                                    const index::IndexConfig& current) {
  if (telemetry_ == nullptr) return;
  telemetry::JsonWriter w;
  w.begin_object();
  w.field("assessor", assessor_->name());
  w.field("observed", observed_);
  w.field("frequent_patterns",
          static_cast<std::uint64_t>(decision.frequent_patterns));
  w.begin_array("top_patterns");
  for (const auto& p : decision.top_patterns) {
    telemetry::JsonWriter pw;
    pw.begin_object();
    pw.field("mask", index::pattern_to_string(p.mask, num_attrs_));
    pw.field("count", p.count);
    pw.field("frequency", p.frequency);
    pw.end_object();
    w.value_raw(std::move(pw).take());
  }
  w.end_array();
  w.begin_array("candidates");
  for (const auto& c : decision.candidates) {
    telemetry::JsonWriter cw;
    cw.begin_object();
    cw.field("ic", c.config.to_string());
    cw.field("cost", c.cost);
    cw.end_object();
    w.value_raw(std::move(cw).take());
  }
  w.end_array();
  if (!decision.query_shares.empty()) {
    // Multi-query attribution: which query drove the union workload this
    // epoch (merged per-query assessor requests behind the decision).
    w.begin_array("per_query");
    for (const QueryShare& qs : decision.query_shares) {
      telemetry::JsonWriter qw;
      qw.begin_object();
      qw.field("query", static_cast<std::uint64_t>(qs.query));
      qw.field("requests", qs.requests);
      qw.end_object();
      w.value_raw(std::move(qw).take());
    }
    w.end_array();
  }
  w.field("current_ic", current.to_string());
  w.field("current_cost", decision.current_cost);
  w.field("chosen_ic", decision.recommended.to_string());
  w.field("chosen_cost", decision.recommended_cost);
  w.field("migrated", decision.migrated);
  w.field("migration_cost_us", decision.migration_cost_us);

  // Guardrail outcome: why the recommendation fired or was suppressed,
  // with the what-if numbers the selector weighed.
  w.begin_object("guardrails");
  w.field("enabled", selector_.options().enabled);
  w.field("verdict", verdict_name(decision.verdict));
  w.field("suppressed", decision.suppressed);
  w.field("modelled_benefit_us", decision.modelled_benefit_us);
  w.field("whatif_migration_cost_us", decision.whatif_migration_cost_us);
  w.field("amortize_units", decision.amortize_units);
  if (selector_.options().enabled) {
    w.field("budget_spent_us", decision.budget_spent_us);
    w.field("budget_remaining_us", decision.budget_remaining_us);
    w.field("suppressed_total", selector_.suppressed());
  }
  w.end_object();

  // Decision timeline: close the epoch this decision ends — realized
  // per-probe cost (meter-charged virtual µs) against the prediction made
  // when it opened — then open the next one with this decision's
  // effective (post-migration-choice) prediction. Every event is
  // self-contained: no cross-event shifting needed downstream.
  w.field("epoch", decisions_);
  const double realized =
      epoch_probe_count_ > 0
          ? epoch_probe_cost_us_ / static_cast<double>(epoch_probe_count_)
          : -1.0;
  w.field("prev_predicted_probe_us", predicted_probe_us_);
  w.field("realized_probe_us", realized);
  w.field("epoch_probes", epoch_probe_count_);
  if (predicted_probe_us_ > 0.0 && realized >= 0.0) {
    const double error =
        (realized - predicted_probe_us_) / predicted_probe_us_;
    w.field("model_error", error);
    model_error_gauge_->set(error);
  }
  if (realized >= 0.0) realized_probe_gauge_->set(realized);
  const double next_predicted = decision.migrated
                                    ? decision.predicted_recommended_probe_us
                                    : decision.predicted_current_probe_us;
  w.field("predicted_probe_us", next_predicted);
  predicted_probe_us_ = next_predicted;
  epoch_probe_cost_us_ = 0.0;
  epoch_probe_count_ = 0;

  w.end_object();
  assert(telemetry_ != nullptr);  // early-returned above when detached
  telemetry_->emit(telemetry::EventKind::kTunerDecision, stream_,
                   std::move(w).take());
}

bool AmriTuner::select_migration(TuneDecision& decision,
                                 const index::IndexConfig& current,
                                 const WhatIfContext& ctx) {
  Evaluation eval;
  eval.best = decision.recommended;
  eval.best_cost = decision.recommended_cost;
  eval.current_cost = decision.current_cost;
  const Selection sel = selector_.select(eval, current, ctx);
  decision.verdict = sel.verdict;
  decision.suppressed = sel.verdict == GuardrailVerdict::kHysteresis ||
                        sel.verdict == GuardrailVerdict::kNotAmortized ||
                        sel.verdict == GuardrailVerdict::kTimeBudget ||
                        sel.verdict == GuardrailVerdict::kMemoryBudget;
  decision.modelled_benefit_us = sel.modelled_benefit_us;
  decision.whatif_migration_cost_us = sel.migration_cost_us;
  decision.amortize_units = sel.amortize_units;
  decision.budget_spent_us = sel.budget_spent_us;
  decision.budget_remaining_us = sel.budget_remaining_us;
  return sel.migrate;
}

void AmriTuner::finish_decision(const TuneDecision& decision,
                                const index::IndexConfig& before) {
  if (telemetry_ != nullptr) {
    if (decision.suppressed) suppressed_counter_->add();
    emit_decision_event(decision, before);
  }
  if (options_.on_decision) options_.on_decision(stream_, decision);
}

TuneDecision AmriTuner::maybe_tune(index::BitAddressIndex& index) {
  const index::IndexConfig before = index.config();
  TuneDecision decision = recommend(before);
  const WhatIfContext ctx{index.size(), index.memory_bytes()};
  if (select_migration(decision, before, ctx)) {
    const auto report = migrator_.migrate(index, decision.recommended);
    decision.migration_cost_us = static_cast<double>(report.hashes_charged) *
                                 model_.params().hash_cost;
    migration_pause_us_ += decision.migration_cost_us;
    decision.migrated = true;
    ++migrations_;
  }
  finish_decision(decision, before);
  return decision;
}

TuneDecision AmriTuner::recommend_from(const ExternalAssessment& external,
                                       const index::IndexConfig& current) {
  TuneDecision decision = decide(external.frequent, current);
  decision.query_shares = external.per_query;
  if (telemetry_ != nullptr) {
    stats_entries_gauge_->set(static_cast<double>(external.table_size));
    stats_bytes_gauge_->set(static_cast<double>(external.approx_bytes));
  }
  return decision;
}

TuneDecision AmriTuner::maybe_tune_external(index::BitAddressIndex& index,
                                            const ExternalAssessment& external) {
  const index::IndexConfig before = index.config();
  TuneDecision decision = recommend_from(external, before);
  const WhatIfContext ctx{index.size(), index.memory_bytes()};
  if (select_migration(decision, before, ctx)) {
    const auto report = migrator_.migrate(index, decision.recommended);
    decision.migration_cost_us = static_cast<double>(report.hashes_charged) *
                                 model_.params().hash_cost;
    migration_pause_us_ += decision.migration_cost_us;
    decision.migrated = true;
    ++migrations_;
  }
  finish_decision(decision, before);
  return decision;
}

}  // namespace amri::tuner
