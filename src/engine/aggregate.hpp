// Aggregation over join results — the <agg-func-list> of the paper's SPJ
// query template (§II, Figure 2). An AggregateSink consumes complete join
// results, groups them by an optional key column, and maintains
// COUNT / SUM / MIN / MAX / AVG over a value column.
//
// The paper's evaluation measures raw join throughput, so aggregation sits
// on top of the executor (collect_rows / result sinks) rather than inside
// the eddy; it completes the query template for library users.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "engine/eddy.hpp"
#include "engine/operators.hpp"

namespace amri::engine {

enum class AggFunc : std::uint8_t {
  kCount = 0,
  kSum,
  kMin,
  kMax,
  kAvg,
};

std::string agg_func_name(AggFunc f);

/// Running aggregate state for one group.
struct AggState {
  std::uint64_t count = 0;
  Value sum = 0;
  Value min = std::numeric_limits<Value>::max();
  Value max = std::numeric_limits<Value>::min();

  void add(Value v) {
    ++count;
    sum += v;
    if (v < min) min = v;
    if (v > max) max = v;
  }

  double value(AggFunc f) const {
    switch (f) {
      case AggFunc::kCount: return static_cast<double>(count);
      case AggFunc::kSum: return static_cast<double>(sum);
      case AggFunc::kMin:
        return count == 0 ? 0.0 : static_cast<double>(min);
      case AggFunc::kMax:
        return count == 0 ? 0.0 : static_cast<double>(max);
      case AggFunc::kAvg:
        return count == 0 ? 0.0
                          : static_cast<double>(sum) /
                                static_cast<double>(count);
    }
    return 0.0;
  }
};

/// Grouped aggregation over join results.
///
///   AggregateSink sink(AggFunc::kSum, /*value=*/{0, 2},
///                      /*group_by=*/OutputColumn{1, 0});
///   ... sink.consume(result) per complete join ...
///   sink.groups() -> per-key AggState
class AggregateSink {
 public:
  /// `value` is the aggregated column (ignored for COUNT); `group_by`
  /// nullopt means one global group.
  AggregateSink(AggFunc func, OutputColumn value,
                std::optional<OutputColumn> group_by = std::nullopt)
      : func_(func), value_(value), group_by_(group_by) {}

  AggFunc func() const { return func_; }

  void consume(const JoinResult& r) {
    const Value key =
        group_by_ ? r.members[group_by_->stream]->at(group_by_->attr) : 0;
    const Value v = func_ == AggFunc::kCount
                        ? 0
                        : r.members[value_.stream]->at(value_.attr);
    groups_[key].add(v);
    ++consumed_;
  }

  std::uint64_t consumed() const { return consumed_; }
  std::size_t group_count() const { return groups_.size(); }
  const std::map<Value, AggState>& groups() const { return groups_; }

  /// Aggregate value of one group (0 if absent).
  double value_of(Value key) const {
    const auto it = groups_.find(key);
    return it == groups_.end() ? 0.0 : it->second.value(func_);
  }

  /// Global aggregate across all groups (AVG is count-weighted).
  double total() const;

  void reset() {
    groups_.clear();
    consumed_ = 0;
  }

 private:
  AggFunc func_;
  OutputColumn value_;
  std::optional<OutputColumn> group_by_;
  std::map<Value, AggState> groups_;
  std::uint64_t consumed_ = 0;
};

}  // namespace amri::engine
