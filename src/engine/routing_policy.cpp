#include "engine/routing_policy.hpp"

#include <cassert>
#include <limits>
#include <vector>

namespace amri::engine {

namespace {

class FixedPolicy final : public RoutingPolicy {
 public:
  std::size_t choose(const RoutingContext& ctx,
                     const RoutingStatistics&) override {
    assert(!ctx.candidates.empty());
    std::size_t best = 0;
    for (std::size_t i = 1; i < ctx.candidates.size(); ++i) {
      if (ctx.candidates[i].state < ctx.candidates[best].state) best = i;
    }
    return best;
  }
  std::string name() const override { return "fixed"; }
};

class CostBasedPolicy final : public RoutingPolicy {
 public:
  CostBasedPolicy(double exploration, double fanout_weight, std::uint64_t seed)
      : exploration_(exploration), fanout_weight_(fanout_weight), rng_(seed) {}

  std::size_t choose(const RoutingContext& ctx,
                     const RoutingStatistics& stats) override {
    assert(!ctx.candidates.empty());
    if (ctx.candidates.size() > 1 && rng_.chance(exploration_)) {
      return rng_.below(ctx.candidates.size());
    }
    std::size_t best = 0;
    double best_score = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < ctx.candidates.size(); ++i) {
      const auto& c = ctx.candidates[i];
      const RouteStats* rs = stats.find(c.state, c.pattern);
      double score;
      if (rs == nullptr) {
        // Unknown territory: prefer exploring patterns that bind more
        // attributes (likely cheaper), optimistic default.
        score = 1.0 / (1.0 + popcount(c.pattern));
      } else {
        score = rs->compares.value_or(1.0) +
                fanout_weight_ * rs->matches.value_or(1.0);
      }
      if (score < best_score) {
        best_score = score;
        best = i;
      }
    }
    return best;
  }
  std::string name() const override { return "cost_based"; }

 private:
  double exploration_;
  double fanout_weight_;
  Rng rng_;
};

class LotteryPolicy final : public RoutingPolicy {
 public:
  LotteryPolicy(double exploration, std::uint64_t seed)
      : exploration_(exploration), rng_(seed) {}

  std::size_t choose(const RoutingContext& ctx,
                     const RoutingStatistics& stats) override {
    assert(!ctx.candidates.empty());
    if (ctx.candidates.size() > 1 && rng_.chance(exploration_)) {
      return rng_.below(ctx.candidates.size());
    }
    // Tickets inversely proportional to observed fan-out (low selectivity
    // first, the classic eddy lottery).
    tickets_.resize(ctx.candidates.size());
    double total = 0.0;
    for (std::size_t i = 0; i < ctx.candidates.size(); ++i) {
      const auto& c = ctx.candidates[i];
      const RouteStats* rs = stats.find(c.state, c.pattern);
      const double fanout = rs == nullptr ? 1.0 : rs->matches.value_or(1.0);
      tickets_[i] = 1.0 / (0.1 + fanout);
      total += tickets_[i];
    }
    double draw = rng_.uniform01() * total;
    for (std::size_t i = 0; i < tickets_.size(); ++i) {
      draw -= tickets_[i];
      if (draw <= 0.0) return i;
    }
    return tickets_.size() - 1;
  }
  std::string name() const override { return "lottery"; }

 private:
  double exploration_;
  Rng rng_;
  /// Ticket buffer reused across decisions (capacity persists), so a
  /// decision allocates nothing once it has seen its widest candidate set.
  std::vector<double> tickets_;
};

}  // namespace

std::unique_ptr<RoutingPolicy> make_routing_policy(const RoutingOptions& opts) {
  switch (opts.kind) {
    case RoutingPolicyKind::kFixed:
      return std::make_unique<FixedPolicy>();
    case RoutingPolicyKind::kCostBased:
      return std::make_unique<CostBasedPolicy>(
          opts.exploration_rate, opts.fanout_weight, opts.seed);
    case RoutingPolicyKind::kLottery:
      return std::make_unique<LotteryPolicy>(opts.exploration_rate, opts.seed);
  }
  return nullptr;
}

}  // namespace amri::engine
