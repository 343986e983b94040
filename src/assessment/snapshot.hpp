// Merging per-query assessment snapshots back into one logical answer.
//
// A STeM shared by several queries runs one assessor per query; every probe
// is attributed to exactly one query, so the per-query substreams partition
// the state's request stream. At tuner epochs the queries'
// AssessmentSnapshots are merged by summing per-mask counts (and error
// bounds), and snapshot_results() reproduces the kind's Assessor::results()
// semantics over the merged statistics:
//   * SRIA / DIA — exact additive counts: the merged answer is identical
//     (entries, order, frequencies) to assessing the unpartitioned stream;
//   * CSRIA — each query undercounts by <= epsilon * N_query, so the merged
//     count undercounts by <= epsilon * N: the unpartitioned Manku–Motwani
//     bound, with the same strict-theta filter on estimated frequency;
//   * CDIA — compression conserves count mass, so the summed entries form a
//     valid lattice state; the merged answer is its bottom-up rollup.
#pragma once

#include <vector>

#include "assessment/assessor.hpp"

namespace amri::assessment {

/// Sum `parts` into one snapshot: per-mask counts and max_errors add,
/// observation totals add, entries stay sorted by mask. All parts must
/// share kind / universe / epsilon (they come from the per-query
/// assessors of one state). An empty `parts` yields an empty exact snapshot.
AssessmentSnapshot merge_snapshots(const std::vector<AssessmentSnapshot>& parts);

/// Frequent patterns of a (merged) snapshot at threshold theta — the
/// merged analogue of Assessor::results(theta). Sorted by descending
/// count, then ascending mask, exactly like the per-kind results().
std::vector<AssessedPattern> snapshot_results(const AssessmentSnapshot& snap,
                                              double theta);

}  // namespace amri::assessment
