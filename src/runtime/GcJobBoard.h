//===--- GcJobBoard.h - Claim-based dispatch of GC phases ------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The collector's job board (DESIGN.md §4). A parallel GC phase is posted
/// as N work items (marker states, sweep ranges); the collecting thread
/// claims items itself, and threads parked on the board — the heap's
/// helper threads, or replay workers parked at their epoch barrier —
/// claim the rest. The poster waits only for items a helper has already
/// claimed, so a phase completes on the collecting thread alone when no
/// helper is awake, and no thread is woken per cycle before work starts.
///
/// One 64-bit ticket word carries the whole job state: a post sequence,
/// the item count, and the next unclaimed item. A claim is a CAS on it, so
/// a helper can only ever claim an item of the job posted at that instant;
/// the task pointer is published through the ticket (release post,
/// acquire claim). Helpers park on the same word with std::atomic::wait.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_RUNTIME_GCJOBBOARD_H
#define CHAMELEON_RUNTIME_GCJOBBOARD_H

#include <atomic>
#include <cstdint>
#include <functional>

namespace chameleon {

class GcJobBoard {
public:
  /// Runs `Task(I)` once for every I in [0, Items) and returns when all
  /// have finished. The caller claims items until none is left, then waits
  /// for the ones helpers claimed. One poster at a time (the collector).
  void run(unsigned Items, const std::function<void(unsigned)> &Task);

  /// Parks the calling thread on the board until `Released()` holds,
  /// running every item it claims meanwhile. `Released` is re-checked
  /// after each post and each wake().
  void help(const std::function<bool()> &Released);

  /// Makes every parked helper re-check its release condition. Call after
  /// making that condition true.
  void wake();

private:
  /// Claims and runs items of the job in \p Ticket until none is left.
  /// \returns the last ticket value read.
  uint64_t claimAndRun(uint64_t Ticket, bool Helper);

  /// [63..32] post sequence, [31..16] item count, [15..0] next item.
  std::atomic<uint64_t> Ticket{0};
  /// Items of the current job that have finished.
  std::atomic<unsigned> Finished{0};
  std::atomic<const std::function<void(unsigned)> *> Task{nullptr};
};

} // namespace chameleon

#endif // CHAMELEON_RUNTIME_GCJOBBOARD_H
