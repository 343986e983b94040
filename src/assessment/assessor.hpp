// Common interface of the paper's four index-assessment methods (§IV):
// SRIA, CSRIA, DIA, CDIA. An assessor ingests the access pattern of every
// search request a state receives and periodically answers: which access
// patterns are frequent enough (>= theta) to deserve index bits?
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "index/cost_model.hpp"
#include "telemetry/telemetry.hpp"

namespace amri::assessment {

/// One frequent access pattern in an assessment answer.
struct AssessedPattern {
  AttrMask mask = 0;
  std::uint64_t count = 0;      ///< (possibly rolled-up) observation count
  std::uint64_t max_error = 0;  ///< undercount bound delta, 0 for exact
  double frequency = 0.0;       ///< count / observations
};

enum class AssessorKind : std::uint8_t {
  kSria = 0,
  kCsria,
  kDia,
  kCdiaRandom,
  kCdiaHighestCount,
};

/// Mergeable dump of one assessor's retained statistics, used by stems
/// shared by several queries: each query's assessor assesses the probes
/// routed for it, and at tuner epochs the per-query snapshots are merged
/// (merge_snapshots) and thresholded (snapshot_results, see
/// assessment/snapshot.hpp) so the tuner still sees one logical state. The kind-specific parameters travel with the data so
/// the merged answer reproduces the kind's results() semantics.
///
/// Merge soundness per kind: SRIA and DIA counts are exact and additive, so
/// the merged answer equals assessing the unpartitioned request stream.
/// CSRIA undercounts each per-query substream by at most
/// epsilon * N_query; summed over queries that is at most epsilon * N, the
/// same Manku–Motwani bound the unpartitioned sketch carries. CDIA conserves count mass under
/// compression, so the summed entries form a valid lattice state whose
/// rollup is an epsilon-approximate answer for the union stream.
struct AssessmentSnapshot {
  AssessorKind kind = AssessorKind::kSria;
  AttrMask universe = 0;
  double epsilon = 0.0;      ///< compressing kinds; 0 for exact kinds
  std::uint64_t seed = 0;    ///< CDIA random combination policy
  std::uint64_t observed = 0;  ///< stream length seen (the |A| denominator)
  /// Retained (mask, count, max_error) entries, sorted by mask ascending.
  std::vector<AssessedPattern> entries;
};

class Assessor {
 public:
  virtual ~Assessor() = default;

  /// Ingest `weight` search requests sharing one access pattern. Batched
  /// probing groups a batch's keys per pattern and feeds one weighted
  /// observe per group. For SRIA/DIA (exact additive counts) this is
  /// bit-identical to `weight` single observes; for CSRIA/CDIA the
  /// compression boundaries shift with grouping order, so counts match
  /// only within the sketch's epsilon bound (see docs/architecture.md,
  /// "Batched execution").
  virtual void observe(AttrMask ap, std::uint64_t weight = 1) = 0;

  /// Frequent patterns at threshold theta, sorted by descending count.
  virtual std::vector<AssessedPattern> results(double theta) const = 0;

  /// Observations ingested so far (the |A| denominator).
  virtual std::uint64_t observed() const = 0;

  /// Live statistics entries currently retained.
  virtual std::size_t table_size() const = 0;

  /// Logical bytes of retained statistics (for MemoryTracker accounting).
  virtual std::size_t approx_bytes() const = 0;

  virtual std::string name() const = 0;

  /// Drop all statistics (start a fresh assessment window).
  virtual void reset() = 0;

  /// Scale all retained statistics by `factor` in (0, 1): ages the history
  /// so new patterns can overtake old ones without a hard reset.
  /// Frequencies are preserved; entries whose count rounds to zero drop.
  virtual void decay(double factor) = 0;

  /// Mergeable dump of the retained statistics (see AssessmentSnapshot).
  /// Entries are sorted by mask ascending for deterministic merging.
  virtual AssessmentSnapshot snapshot() const = 0;

  /// Register observation/compression counters under `prefix` (e.g.
  /// "stem.0.assess") in `telemetry`'s registry. Null detaches. Variants
  /// report through note_observed()/note_compressed(); detached, those are
  /// a null-pointer branch.
  void bind_telemetry(telemetry::Telemetry* telemetry,
                      const std::string& prefix);

 protected:
  /// `n` access patterns ingested.
  void note_observed(std::uint64_t n = 1) {
    if (observed_counter_ != nullptr) observed_counter_->add(n);
  }
  /// `entries` statistics entries evicted (CSRIA) or merged into a parent
  /// (CDIA) by compression.
  void note_compressed(std::uint64_t entries) {
    if (compressed_counter_ != nullptr && entries > 0) {
      compressed_counter_->add(entries);
    }
  }

 private:
  telemetry::Counter* observed_counter_ = nullptr;
  telemetry::Counter* compressed_counter_ = nullptr;
};

std::string assessor_kind_name(AssessorKind kind);

/// Parameters shared by the compressing assessors.
struct AssessorParams {
  double epsilon = 0.001;  ///< lossy-counting error rate
  std::uint64_t seed = 0x5eedULL;  ///< randomness for CDIA random policy
};

/// Factory covering all four methods (five counting both CDIA policies).
std::unique_ptr<Assessor> make_assessor(AssessorKind kind, AttrMask universe,
                                        const AssessorParams& params = {});

/// Convert an assessment answer into the cost model's frequency vector,
/// re-normalising so the surviving patterns' frequencies sum to 1.
std::vector<index::PatternFrequency> to_pattern_frequencies(
    const std::vector<AssessedPattern>& patterns);

}  // namespace amri::assessment
