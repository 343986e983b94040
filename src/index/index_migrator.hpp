// Index migration: moving a state's bit-address index from one IC to the
// next (paper §III: "adapt tuples in the state from BI1 to BI2 requires the
// relocation of each tuple to the buckets defined by BI2").
//
// Migration cost is N_A(new) hashes per stored tuple; the migrator charges
// it to the state's meter.
#pragma once

#include <cstdint>

#include "common/lock_ranks.gen.hpp"
#include "common/thread_annotations.hpp"
#include "index/bit_address_index.hpp"
#include "telemetry/telemetry.hpp"

namespace amri::index {

struct MigrationReport {
  std::uint64_t tuples_moved = 0;
  std::uint64_t hashes_charged = 0;
  IndexConfig from;
  IndexConfig to;
  /// Virtual time the state was paused while rebuilding (0 without an
  /// attached telemetry clock; the modelled pause is hashes * C_h either
  /// way).
  TimeMicros pause_us = 0;
};

class IndexMigrator {
 public:
  /// With `telemetry` set the migrator emits migration_start/migration_end
  /// events for `stream` and records pause-duration/tuples-moved metrics
  /// under "stem.<stream>".
  explicit IndexMigrator(telemetry::Telemetry* telemetry = nullptr,
                         StreamId stream = 0);

  /// Rebuild `index` under `target`. No-op (zero-cost) if the IC is equal.
  /// Concurrent calls on one migrator serialize: the per-instance mutex
  /// covers the whole rebuild plus its telemetry emission, so a stream's
  /// migrator can be driven from pool threads without interleaving two
  /// reconfigurations of the same index.
  MigrationReport migrate(BitAddressIndex& index,
                          const IndexConfig& target) const AMRI_EXCLUDES(mu_);

 private:
  mutable Mutex mu_{lockrank::kIndexMigratorMu};
  // Set in the constructor, then only read under mu_ from migrate(): the
  // whole configuration is serialized behind the per-instance mutex.
  telemetry::Telemetry* telemetry_ AMRI_GUARDED_BY(mu_);
  StreamId stream_ AMRI_GUARDED_BY(mu_);
  telemetry::Counter* migration_count_ AMRI_GUARDED_BY(mu_) = nullptr;
  telemetry::Counter* tuples_moved_ AMRI_GUARDED_BY(mu_) = nullptr;
  telemetry::Histogram* pause_hist_ AMRI_GUARDED_BY(mu_) = nullptr;
};

}  // namespace amri::index
