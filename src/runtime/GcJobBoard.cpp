//===--- GcJobBoard.cpp - Claim-based dispatch of GC phases ---------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/GcJobBoard.h"

#include "obs/Metrics.h"

#include <cassert>

using namespace chameleon;

namespace {
// Parallel-phase items run by a thread other than the collector: the
// answer to "did the parked threads help?" (DESIGN.md §4).
CHAM_METRIC_COUNTER(GcHelperItems, "cham.gc.helper_items");

constexpr unsigned ItemBits = 16;
constexpr uint64_t ItemMask = (uint64_t(1) << ItemBits) - 1;
constexpr uint64_t SeqUnit = uint64_t(1) << 32;

unsigned itemsOf(uint64_t Ticket) {
  return static_cast<unsigned>((Ticket >> ItemBits) & ItemMask);
}
unsigned nextOf(uint64_t Ticket) {
  return static_cast<unsigned>(Ticket & ItemMask);
}
} // namespace

void GcJobBoard::run(unsigned Items,
                     const std::function<void(unsigned)> &TaskFn) {
  assert(Items >= 1 && Items <= ItemMask && "item count out of range");
  // The previous job has fully finished, so no helper reads these until it
  // claims an item of the post below, which publishes them.
  Task.store(&TaskFn, std::memory_order_relaxed);
  Finished.store(0, std::memory_order_relaxed);
  uint64_t Old = Ticket.load(std::memory_order_relaxed);
  uint64_t Posted;
  do
    Posted = ((Old >> 32) + 1) * SeqUnit | uint64_t(Items) << ItemBits;
  while (!Ticket.compare_exchange_weak(Old, Posted, std::memory_order_release,
                                       std::memory_order_relaxed));
  Ticket.notify_all();
  claimAndRun(Posted, /*Helper=*/false);
  // Every item is claimed now; wait only for those helpers still run.
  for (unsigned Done; (Done = Finished.load(std::memory_order_acquire))
                      != Items;)
    Finished.wait(Done, std::memory_order_acquire);
}

uint64_t GcJobBoard::claimAndRun(uint64_t T, bool Helper) {
  while (nextOf(T) < itemsOf(T)) {
    if (!Ticket.compare_exchange_weak(T, T + 1, std::memory_order_acquire,
                                      std::memory_order_acquire))
      continue;
    (*Task.load(std::memory_order_relaxed))(nextOf(T));
    if (Helper)
      GcHelperItems.inc();
    if (Finished.fetch_add(1, std::memory_order_acq_rel) + 1 == itemsOf(T))
      Finished.notify_all();
    T = Ticket.load(std::memory_order_acquire);
  }
  return T;
}

void GcJobBoard::help(const std::function<bool()> &Released) {
  // Released() is checked after each ticket load, and the thread sleeps
  // only on a value read before that check: a wake() issued after the
  // condition became true always changes the word it sleeps on.
  for (uint64_t T = Ticket.load(std::memory_order_acquire); !Released();
       T = Ticket.load(std::memory_order_acquire))
    if (claimAndRun(T, /*Helper=*/true) == T)
      Ticket.wait(T, std::memory_order_acquire);
}

void GcJobBoard::wake() {
  // Bumps only the sequence: a job posted concurrently keeps its items.
  Ticket.fetch_add(SeqUnit, std::memory_order_release);
  Ticket.notify_all();
}
