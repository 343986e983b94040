#include "assessment/snapshot.hpp"

#include <algorithm>
#include <map>

#include "common/assertions.hpp"
#include "stats/hierarchical_hh.hpp"

namespace amri::assessment {

AssessmentSnapshot merge_snapshots(
    const std::vector<AssessmentSnapshot>& parts) {
  AssessmentSnapshot out;
  if (parts.empty()) return out;
  out.kind = parts.front().kind;
  out.universe = parts.front().universe;
  out.epsilon = parts.front().epsilon;
  out.seed = parts.front().seed;
  // std::map keeps the merged entries sorted by mask as they accumulate.
  std::map<AttrMask, AssessedPattern> merged;
  for (const AssessmentSnapshot& part : parts) {
    AMRI_CHECK(part.kind == out.kind && part.universe == out.universe &&
                   part.epsilon == out.epsilon,
               "snapshot merge across mismatched assessors");
    out.observed += part.observed;
    for (const AssessedPattern& e : part.entries) {
      AssessedPattern& slot = merged[e.mask];
      slot.mask = e.mask;
      slot.count += e.count;
      slot.max_error += e.max_error;
    }
  }
  out.entries.reserve(merged.size());
  for (auto& [mask, e] : merged) {
    // Entries stay raw (frequency 0), exactly like every assessor's own
    // snapshot(); snapshot_results() computes frequencies on demand. This
    // keeps merged snapshots bit-identical to the unpartitioned ones.
    out.entries.push_back(e);
  }
  return out;
}

namespace {

/// SRIA / DIA / CSRIA all filter on estimated frequency >= theta (see the
/// per-kind results() implementations); the entry's max_error rides along
/// (0 for the exact kinds).
std::vector<AssessedPattern> threshold_results(const AssessmentSnapshot& snap,
                                               double theta) {
  std::vector<AssessedPattern> out;
  if (snap.observed == 0) return out;
  for (const AssessedPattern& e : snap.entries) {
    const double f = static_cast<double>(e.count) /
                     static_cast<double>(snap.observed);
    if (f >= theta) {
      out.push_back(AssessedPattern{e.mask, e.count, e.max_error, f});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const AssessedPattern& a, const AssessedPattern& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.mask < b.mask;
            });
  return out;
}

/// CDIA: the merged entries are a valid search-benefit-lattice state (each
/// per-query assessor conserves count mass under compression), so the merged answer is
/// the same bottom-up rollup CDIA's results() applies to its own lattice.
std::vector<AssessedPattern> rollup_results(const AssessmentSnapshot& snap,
                                            double theta) {
  stats::HierarchicalHeavyHitter hhh(
      snap.universe, snap.epsilon,
      snap.kind == AssessorKind::kCdiaRandom
          ? stats::CombinePolicy::kRandom
          : stats::CombinePolicy::kHighestCount,
      snap.seed);
  for (const AssessedPattern& e : snap.entries) {
    hhh.load_node(e.mask, e.count, e.max_error);
  }
  hhh.set_observed(snap.observed);
  std::vector<AssessedPattern> out;
  for (const auto& r : hhh.results(theta)) {
    out.push_back(AssessedPattern{r.mask, r.count, r.max_error, r.frequency});
  }
  return out;
}

}  // namespace

std::vector<AssessedPattern> snapshot_results(const AssessmentSnapshot& snap,
                                              double theta) {
  switch (snap.kind) {
    case AssessorKind::kSria:
    case AssessorKind::kDia:
    case AssessorKind::kCsria:
      return threshold_results(snap, theta);
    case AssessorKind::kCdiaRandom:
    case AssessorKind::kCdiaHighestCount:
      return rollup_results(snap, theta);
  }
  return {};
}

}  // namespace amri::assessment
