//===--- GcCycle.h - Per-cycle collector statistics ------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The record the collector produces at the end of every GC cycle — the
/// per-cycle rows behind the paper's Table 3 and the time series plotted in
/// Figs. 2 and 8 (percentage of live data held in collections, its used part
/// and its core lower bound, per cycle).
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_RUNTIME_GCCYCLE_H
#define CHAMELEON_RUNTIME_GCCYCLE_H

#include "runtime/HeapObject.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace chameleon {

/// Statistics of one garbage-collection cycle.
struct GcCycleRecord {
  /// 1-based cycle number.
  uint64_t Cycle = 0;
  /// True when requested explicitly rather than by allocation pressure.
  bool Forced = false;
  /// All reachable bytes / objects after marking.
  uint64_t LiveBytes = 0;
  uint64_t LiveObjects = 0;
  /// Aggregate collection ADT measures (see CollectionSizes).
  uint64_t CollectionLiveBytes = 0;
  uint64_t CollectionUsedBytes = 0;
  uint64_t CollectionCoreBytes = 0;
  /// Number of live collection wrappers.
  uint64_t CollectionObjects = 0;
  /// Reclaimed in the sweep phase.
  uint64_t FreedBytes = 0;
  uint64_t FreedObjects = 0;
  /// Wall-clock duration of the cycle.
  uint64_t DurationNanos = 0;
  /// Its split by phase (they sum to DurationNanos): slot-cache flush plus
  /// profiler drain, mark, sweep, and the emergency slot-table shrink
  /// (near 0 on cycles without one). Timings, like DurationNanos: never
  /// part of a deterministic report.
  uint64_t FlushNanos = 0;
  uint64_t MarkNanos = 0;
  uint64_t SweepNanos = 0;
  uint64_t ShrinkNanos = 0;
  /// Live-size breakdown per type (Table 3 "Type Distribution"); filled
  /// only when the heap's RecordTypeDistribution flag is on.
  std::vector<std::pair<TypeId, uint64_t>> TypeDistribution;

  /// Fraction of live data occupied by collections in this cycle.
  double collectionLiveFraction() const {
    return LiveBytes == 0
               ? 0.0
               : static_cast<double>(CollectionLiveBytes)
                     / static_cast<double>(LiveBytes);
  }

  /// Fraction of live data that is the used part of collections.
  double collectionUsedFraction() const {
    return LiveBytes == 0
               ? 0.0
               : static_cast<double>(CollectionUsedBytes)
                     / static_cast<double>(LiveBytes);
  }

  /// Fraction of live data that is the core part of collections.
  double collectionCoreFraction() const {
    return LiveBytes == 0
               ? 0.0
               : static_cast<double>(CollectionCoreBytes)
                     / static_cast<double>(LiveBytes);
  }
};

} // namespace chameleon

#endif // CHAMELEON_RUNTIME_GCCYCLE_H
