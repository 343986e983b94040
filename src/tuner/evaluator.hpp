// Candidate evaluation: the first half of the tuner's evaluator/selector
// pipeline (after hyrise's IndexTuner split). An evaluator turns one
// epoch's assessed access-pattern statistics — the thresholded answer of a
// single assessor or of merged per-query snapshots — into scored candidate
// index configurations. It is a pure scoring function: no migration
// decision, no hysteresis, no budgets; those belong to the selector
// (tuner/selector.hpp). Keeping the two halves separate makes each
// heuristic pluggable and unit-testable in isolation.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "assessment/assessor.hpp"
#include "index/cost_model.hpp"
#include "index/index_config.hpp"
#include "index/index_optimizer.hpp"

namespace amri::tuner {

/// One epoch's evaluation input: the assessed frequent patterns and the
/// configuration the state currently runs.
struct EvaluationInput {
  std::vector<assessment::AssessedPattern> frequent;
  index::IndexConfig current;
};

/// Scored candidates for one epoch, best first.
struct Evaluation {
  index::IndexConfig best;       ///< cheapest candidate found
  double best_cost = 0.0;        ///< modelled C_D of `best`
  double current_cost = 0.0;     ///< modelled C_D of the current IC
  std::uint64_t configs_evaluated = 0;
  /// The cheapest track_top_k candidates, ascending cost (includes `best`
  /// as the first entry). Empty when tracking is off.
  std::vector<index::ScoredConfig> top;
};

/// Scores candidate ICs for one state's assessed workload.
class CandidateEvaluator {
 public:
  virtual ~CandidateEvaluator() = default;

  /// Score candidates against `input.frequent`; must also cost
  /// `input.current` under the same model so the selector compares like
  /// with like. `track_top_k` > 0 asks for the scored runner-ups
  /// (telemetry provenance); evaluators may ignore it.
  virtual Evaluation evaluate(const EvaluationInput& input,
                              std::size_t track_top_k) const = 0;

  virtual std::string name() const = 0;
};

/// The paper's evaluator: exhaustive (or greedy) bit-allocation search
/// over Equation 1 via index::IndexOptimizer, costing the current IC with
/// the same paper/extended variant the optimizer uses.
class CostModelEvaluator final : public CandidateEvaluator {
 public:
  CostModelEvaluator(index::CostModel model, index::OptimizerOptions options,
                     std::size_t num_attrs, bool greedy = false)
      : model_(std::move(model)),
        options_(options),
        num_attrs_(num_attrs),
        greedy_(greedy) {}

  Evaluation evaluate(const EvaluationInput& input,
                      std::size_t track_top_k) const override;

  std::string name() const override {
    return greedy_ ? "cost-model-greedy" : "cost-model-exhaustive";
  }

  const index::CostModel& model() const { return model_; }

 private:
  index::CostModel model_;
  index::OptimizerOptions options_;
  std::size_t num_attrs_;
  bool greedy_;
};

std::unique_ptr<CandidateEvaluator> make_cost_model_evaluator(
    index::CostModel model, index::OptimizerOptions options,
    std::size_t num_attrs, bool greedy = false);

}  // namespace amri::tuner
