//===--- GcHeapTest.cpp - Managed heap and collector unit tests ----------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/GcHeap.h"

#include "apps/TvlaSim.h"
#include "collections/CollectionRuntime.h"
#include "support/SplitMix64.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace chameleon;
using namespace chameleon::testing;

namespace {

struct GcHeapTest : ::testing::Test {
  GcHeap Heap;
  TypeId NodeType = registerNodeType(Heap);
};

TEST_F(GcHeapTest, AllocateTracksBytesAndObjects) {
  EXPECT_EQ(Heap.bytesInUse(), 0u);
  ObjectRef A = allocNode(Heap, NodeType, 0, 24);
  ObjectRef B = allocNode(Heap, NodeType, 0, 40);
  (void)A;
  (void)B;
  EXPECT_EQ(Heap.bytesInUse(), 64u);
  EXPECT_EQ(Heap.objectsInUse(), 2u);
  EXPECT_EQ(Heap.totalAllocatedBytes(), 64u);
  EXPECT_EQ(Heap.totalAllocatedObjects(), 2u);
}

TEST_F(GcHeapTest, SelfRefIsStable) {
  ObjectRef A = allocNode(Heap, NodeType, 0);
  EXPECT_EQ(Heap.get(A).self(), A);
}

TEST_F(GcHeapTest, UnrootedObjectsAreSwept) {
  allocNode(Heap, NodeType, 0, 16);
  allocNode(Heap, NodeType, 0, 16);
  const GcCycleRecord &Rec = Heap.collect(/*Forced=*/true);
  EXPECT_EQ(Rec.FreedObjects, 2u);
  EXPECT_EQ(Rec.FreedBytes, 32u);
  EXPECT_EQ(Rec.LiveObjects, 0u);
  EXPECT_EQ(Heap.bytesInUse(), 0u);
}

TEST_F(GcHeapTest, RootedObjectsSurvive) {
  ObjectRef A = allocNode(Heap, NodeType, 0, 16);
  Handle Root(Heap, A);
  allocNode(Heap, NodeType, 0, 16); // garbage
  const GcCycleRecord &Rec = Heap.collect(true);
  EXPECT_EQ(Rec.LiveObjects, 1u);
  EXPECT_EQ(Rec.FreedObjects, 1u);
  EXPECT_EQ(Heap.get(A).shallowBytes(), 16u);
}

TEST_F(GcHeapTest, ReachabilityIsTransitive) {
  ObjectRef A = allocNode(Heap, NodeType, 1);
  ObjectRef B = allocNode(Heap, NodeType, 1);
  ObjectRef C = allocNode(Heap, NodeType, 0);
  Heap.getAs<Node>(A).setRef(0, B);
  Heap.getAs<Node>(B).setRef(0, C);
  Handle Root(Heap, A);
  const GcCycleRecord &Rec = Heap.collect(true);
  EXPECT_EQ(Rec.LiveObjects, 3u);
  EXPECT_EQ(Rec.FreedObjects, 0u);
}

TEST_F(GcHeapTest, CyclesAreCollected) {
  ObjectRef A = allocNode(Heap, NodeType, 1);
  ObjectRef B = allocNode(Heap, NodeType, 1);
  Heap.getAs<Node>(A).setRef(0, B);
  Heap.getAs<Node>(B).setRef(0, A);
  const GcCycleRecord &Rec = Heap.collect(true);
  EXPECT_EQ(Rec.FreedObjects, 2u);
}

TEST_F(GcHeapTest, DeepChainDoesNotOverflowTheStack) {
  // The marker must be iterative: a recursive tracer would overflow on a
  // long linked chain.
  ObjectRef Head = allocNode(Heap, NodeType, 1);
  Handle Root(Heap, Head);
  ObjectRef Prev = Head;
  for (int I = 0; I < 200000; ++I) {
    ObjectRef Next = allocNode(Heap, NodeType, 1);
    Heap.getAs<Node>(Prev).setRef(0, Next);
    Prev = Next;
  }
  const GcCycleRecord &Rec = Heap.collect(true);
  EXPECT_EQ(Rec.LiveObjects, 200001u);
}

TEST_F(GcHeapTest, SlotReuseAfterSweep) {
  ObjectRef A = allocNode(Heap, NodeType, 0);
  uint32_t OldSlot = A.slot();
  Heap.collect(true); // sweeps A
  ObjectRef B = allocNode(Heap, NodeType, 0);
  EXPECT_EQ(B.slot(), OldSlot);
}

TEST_F(GcHeapTest, TempRootsProtectAcrossCollections) {
  ObjectRef A = allocNode(Heap, NodeType, 0);
  {
    TempRootScope Guard(Heap, A);
    const GcCycleRecord &Rec = Heap.collect(true);
    EXPECT_EQ(Rec.LiveObjects, 1u);
  }
  const GcCycleRecord &Rec = Heap.collect(true);
  EXPECT_EQ(Rec.FreedObjects, 1u);
}

TEST_F(GcHeapTest, PressureCollectionTriggersAtTheLimit) {
  Heap.setHeapLimit(1024);
  Heap.setMinFreeFraction(0.0);
  // Allocate garbage past the limit; pressure GCs keep reclaiming it.
  for (int I = 0; I < 100; ++I)
    allocNode(Heap, NodeType, 0, 64);
  EXPECT_FALSE(Heap.outOfMemory());
  EXPECT_GT(Heap.cycleCount(), 0u);
}

TEST_F(GcHeapTest, OutOfMemoryWhenLiveExceedsLimit) {
  Heap.setHeapLimit(1024);
  Heap.setMinFreeFraction(0.0);
  std::vector<Handle> Roots;
  for (int I = 0; I < 100 && !Heap.outOfMemory(); ++I)
    Roots.emplace_back(Heap, allocNode(Heap, NodeType, 0, 64));
  EXPECT_TRUE(Heap.outOfMemory());
}

TEST_F(GcHeapTest, MinFreeFractionFailsTightHeapsFast) {
  // With a 50% headroom requirement, live data over half the limit is
  // already out-of-memory at the first pressure collection.
  Heap.setHeapLimit(1024);
  Heap.setMinFreeFraction(0.5);
  std::vector<Handle> Roots;
  for (int I = 0; I < 12; ++I)
    Roots.emplace_back(Heap, allocNode(Heap, NodeType, 0, 64));
  // 768 live bytes; the next allocation exceeds 1024 and collects, but
  // headroom after GC is < 512.
  for (int I = 0; I < 8; ++I)
    allocNode(Heap, NodeType, 0, 64);
  EXPECT_TRUE(Heap.outOfMemory());
}

TEST_F(GcHeapTest, ClearOutOfMemoryResets) {
  Heap.setHeapLimit(64);
  Heap.setMinFreeFraction(0.0);
  Handle Root(Heap, allocNode(Heap, NodeType, 0, 48));
  allocNode(Heap, NodeType, 0, 48);
  EXPECT_TRUE(Heap.outOfMemory());
  Heap.clearOutOfMemory();
  EXPECT_FALSE(Heap.outOfMemory());
}

TEST_F(GcHeapTest, ForcedCyclesAreMarkedForced) {
  Heap.collect(true);
  Heap.collect(false);
  ASSERT_EQ(Heap.cycles().size(), 2u);
  EXPECT_TRUE(Heap.cycles()[0].Forced);
  EXPECT_FALSE(Heap.cycles()[1].Forced);
  EXPECT_EQ(Heap.cycles()[0].Cycle, 1u);
  EXPECT_EQ(Heap.cycles()[1].Cycle, 2u);
}

TEST_F(GcHeapTest, SamplingGcFiresByAllocationVolume) {
  Heap.setGcSampleEveryBytes(1024);
  for (int I = 0; I < 100; ++I)
    allocNode(Heap, NodeType, 0, 64); // 6400 bytes total
  EXPECT_GE(Heap.cycleCount(), 5u);
  EXPECT_LE(Heap.cycleCount(), 7u);
  for (const GcCycleRecord &Rec : Heap.cycles())
    EXPECT_TRUE(Rec.Forced);
}

TEST_F(GcHeapTest, ForEachObjectVisitsAllAllocated) {
  allocNode(Heap, NodeType, 0);
  allocNode(Heap, NodeType, 0);
  unsigned Count = 0;
  Heap.forEachObject([&](HeapObject &) { ++Count; });
  EXPECT_EQ(Count, 2u);
}

TEST_F(GcHeapTest, TypeDistributionRecordedWhenEnabled) {
  Heap.setRecordTypeDistribution(true);
  TypeId Other = registerNodeType(Heap, "Other");
  Handle R1(Heap, allocNode(Heap, NodeType, 0, 16));
  Handle R2(Heap, allocNode(Heap, Other, 0, 32));
  const GcCycleRecord &Rec = Heap.collect(true);
  ASSERT_EQ(Rec.TypeDistribution.size(), 2u);
  uint64_t NodeBytes = 0, OtherBytes = 0;
  for (auto &[Type, Bytes] : Rec.TypeDistribution) {
    if (Type == NodeType)
      NodeBytes = Bytes;
    if (Type == Other)
      OtherBytes = Bytes;
  }
  EXPECT_EQ(NodeBytes, 16u);
  EXPECT_EQ(OtherBytes, 32u);
}

TEST_F(GcHeapTest, VerifyHeapAcceptsAConsistentHeap) {
  ObjectRef A = allocNode(Heap, NodeType, 2);
  ObjectRef B = allocNode(Heap, NodeType, 0);
  Heap.getAs<Node>(A).setRef(0, B);
  Handle Root(Heap, A);
  Heap.collect(true);
  std::string Error;
  EXPECT_TRUE(Heap.verifyHeap(&Error)) << Error;
}

TEST_F(GcHeapTest, VerifyHeapCatchesDanglingReferences) {
  ObjectRef A = allocNode(Heap, NodeType, 1);
  Handle Root(Heap, A);
  ObjectRef Garbage = allocNode(Heap, NodeType, 0);
  Heap.collect(true); // frees Garbage's slot
  // Wire a stale reference to the freed slot (programmer error).
  Heap.getAs<Node>(A).setRef(0, Garbage);
  std::string Error;
  EXPECT_FALSE(Heap.verifyHeap(&Error));
  EXPECT_NE(Error.find("dangling reference"), std::string::npos);
}

TEST_F(GcHeapTest, CycleRecordFractionsComputed) {
  GcCycleRecord Rec;
  Rec.LiveBytes = 1000;
  Rec.CollectionLiveBytes = 700;
  Rec.CollectionUsedBytes = 400;
  Rec.CollectionCoreBytes = 100;
  EXPECT_DOUBLE_EQ(Rec.collectionLiveFraction(), 0.7);
  EXPECT_DOUBLE_EQ(Rec.collectionUsedFraction(), 0.4);
  EXPECT_DOUBLE_EQ(Rec.collectionCoreFraction(), 0.1);
  GcCycleRecord Empty;
  EXPECT_DOUBLE_EQ(Empty.collectionLiveFraction(), 0.0);
}

TEST_F(GcHeapTest, CycleRecordSplitsThePauseByPhase) {
  Handle Root(Heap, allocNode(Heap, NodeType, 0, 16));
  for (int I = 0; I < 64; ++I)
    allocNode(Heap, NodeType, 0, 16); // garbage
  const GcCycleRecord &Rec = Heap.collect(/*Forced=*/true);
  EXPECT_EQ(Rec.FlushNanos + Rec.MarkNanos + Rec.SweepNanos
                + Rec.ShrinkNanos,
            Rec.DurationNanos);
  EXPECT_GT(Rec.MarkNanos, 0u);
  EXPECT_GT(Rec.SweepNanos, 0u);
}

TEST_F(GcHeapTest, RootCountTracksHandles) {
  EXPECT_EQ(Heap.rootCount(), 0u);
  Handle A(Heap, allocNode(Heap, NodeType, 0));
  {
    Handle B(Heap, allocNode(Heap, NodeType, 0));
    Handle Copy = A;
    EXPECT_EQ(Heap.rootCount(), 3u);
  }
  EXPECT_EQ(Heap.rootCount(), 1u);
  A.reset();
  EXPECT_EQ(Heap.rootCount(), 0u);
}

/// The collector keeps its mark state beside the slot table, so a cycle
/// neither writes to a live object (marking) nor reads one it keeps
/// (sweeping): a live object's bytes are the same before and after, at
/// any collector thread count.
TEST_F(GcHeapTest, MarkingLeavesLiveObjectsUntouched) {
  for (unsigned Threads : {1u, 4u}) {
    GcHeap H;
    H.setGcThreads(Threads);
    TypeId NodeType = registerNodeType(H);
    std::vector<ObjectRef> Live;
    for (int I = 0; I < 256; ++I) {
      Live.push_back(allocNode(H, NodeType, 2, 24));
      if (I > 0)
        H.getAs<Node>(Live[I - 1]).setRef(0, Live[I]);
      allocNode(H, NodeType, 0, 16); // garbage between live objects
    }
    Handle Root(H, Live.front());
    auto Bytes = [&H](ObjectRef Ref) {
      const auto *P = reinterpret_cast<const unsigned char *>(&H.get(Ref));
      return std::vector<unsigned char>(P, P + sizeof(Node));
    };
    std::vector<std::vector<unsigned char>> Before;
    for (ObjectRef Ref : Live)
      Before.push_back(Bytes(Ref));
    for (int Cycle = 0; Cycle < 2; ++Cycle) {
      const GcCycleRecord &Rec = H.collect(/*Forced=*/true);
      EXPECT_EQ(Rec.LiveObjects, Live.size()) << Threads;
    }
    for (size_t I = 0; I < Live.size(); ++I)
      EXPECT_EQ(Bytes(Live[I]), Before[I])
          << "object " << I << " at " << Threads << " GC threads";
  }
}

/// A slot's mark entry outlives the object that was marked in it; the
/// next object allocated into the slot must still start unmarked.
TEST_F(GcHeapTest, RecycledSlotStartsUnmarked) {
  for (unsigned Threads : {1u, 4u}) {
    GcHeap H;
    H.setGcThreads(Threads);
    TypeId NodeType = registerNodeType(H);
    const ObjectRef Old = allocNode(H, NodeType, 0);
    {
      Handle Root(H, Old);
      H.collect(/*Forced=*/true); // marks Old's slot entry
    }
    EXPECT_EQ(H.collect(true).FreedObjects, 1u); // frees Old's slot

    const ObjectRef Unrooted = allocNode(H, NodeType, 0);
    ASSERT_EQ(Unrooted.slot(), Old.slot()) << Threads;
    const GcCycleRecord &Dies = H.collect(true);
    EXPECT_EQ(Dies.LiveObjects, 0u) << Threads;
    EXPECT_EQ(Dies.FreedObjects, 1u) << Threads;

    const ObjectRef Rooted = allocNode(H, NodeType, 0);
    ASSERT_EQ(Rooted.slot(), Old.slot()) << Threads;
    Handle Keep(H, Rooted);
    const GcCycleRecord &Survives = H.collect(true);
    EXPECT_EQ(Survives.LiveObjects, 1u) << Threads;
    EXPECT_EQ(Survives.FreedObjects, 0u) << Threads;
    EXPECT_EQ(H.objectsInUse(), 1u) << Threads;
    EXPECT_TRUE(H.verifyHeap()) << Threads;
  }
}

/// Hooks that log every death event's slot, in replay order, and sum the
/// live-collection statistics.
class PhaseLog : public HeapProfilerHooks {
public:
  void onLiveCollection(const HeapObject &, const CollectionSizes &Sizes,
                        void *) override {
    LiveSum += Sizes.Live;
    ++LiveEvents;
  }
  void onCollectionDeath(const HeapObject &Obj, void *, void *) override {
    Deaths.push_back(Obj.self().slot());
  }
  void onCycleEnd(const GcCycleRecord &) override {}

  uint64_t LiveSum = 0;
  uint64_t LiveEvents = 0;
  std::vector<uint32_t> Deaths;
};

/// The cycle record without its wall-clock fields.
std::string recordFields(const GcCycleRecord &R) {
  std::string Out;
  for (uint64_t V : {R.Cycle, uint64_t(R.Forced), R.LiveBytes, R.LiveObjects,
                     R.CollectionLiveBytes, R.CollectionUsedBytes,
                     R.CollectionCoreBytes, R.CollectionObjects, R.FreedBytes,
                     R.FreedObjects})
    Out += std::to_string(V) + ",";
  return Out;
}

/// A parallel phase posts one item per helper seat. With seats held but no
/// thread parked on the job board and no helper threads, the collecting
/// thread claims every item itself: the collection completes, with the
/// sequential collector's cycle records, death-hook order and folded
/// profile.
TEST_F(GcHeapTest, ParallelCollectCompletesWithoutHelpers) {
  auto Collect = [](unsigned Seats) {
    GcHeap H;
    std::vector<std::unique_ptr<GcHelperSeat>> Held;
    for (unsigned I = 0; I < Seats; ++I)
      Held.push_back(std::make_unique<GcHelperSeat>(H));
    PhaseLog Log;
    H.setProfilerHooks(&Log);
    SemanticMap Map;
    Map.Name = "Wrapper";
    Map.Kind = TypeKind::CollectionWrapper;
    Map.ComputeSizes = [](const HeapObject &Obj, const GcHeap &) {
      CollectionSizes S;
      S.Live = S.Used = S.Core = Obj.shallowBytes();
      return S;
    };
    Map.ContextTagOf = [](const HeapObject &) -> void * { return nullptr; };
    const TypeId Wrapper = H.types().registerType(std::move(Map));
    const TypeId Plain = registerNodeType(H);
    SplitMix64 Rng(5);
    std::vector<ObjectRef> All;
    std::vector<Handle> Roots;
    for (int I = 0; I < 6000; ++I) {
      All.push_back(
          allocNode(H, I % 4 == 0 ? Wrapper : Plain, 2, 8 * (1 + I % 5)));
      if (Rng.nextBool(0.05))
        Roots.emplace_back(H, All.back());
      for (unsigned S = 0; S < 2; ++S)
        if (Rng.nextBool(0.5))
          H.getAs<Node>(All.back()).setRef(S, All[Rng.nextBelow(All.size())]);
    }
    std::string Out;
    for (int Cycle = 0; Cycle < 2; ++Cycle) {
      Out += recordFields(H.collect(/*Forced=*/true)) + "\n";
      Roots.resize(Roots.size() / 2);
    }
    Out += std::to_string(Log.LiveSum) + "/" + std::to_string(Log.LiveEvents)
           + "\n";
    for (uint32_t Slot : Log.Deaths)
      Out += std::to_string(Slot) + " ";
    std::string Error;
    EXPECT_TRUE(H.verifyHeap(&Error)) << Error;
    H.setProfilerHooks(nullptr);
    return Out;
  };
  auto Profile = [](unsigned Seats) {
    RuntimeConfig Config;
    Config.GcSampleEveryBytes = 64 * 1024;
    CollectionRuntime RT(Config);
    std::vector<std::unique_ptr<GcHelperSeat>> Held;
    for (unsigned I = 0; I < Seats; ++I)
      Held.push_back(std::make_unique<GcHelperSeat>(RT.heap()));
    apps::TvlaConfig App;
    App.NumStates = 300;
    App.LiveWindow = 200;
    apps::runTvla(RT, App);
    RT.heap().collect(true);
    RT.harvestLiveStatistics();
    std::string Out;
    for (const GcCycleRecord &R : RT.heap().cycles())
      Out += recordFields(R) + "\n";
    const SemanticProfiler &P = RT.profiler();
    for (const ContextInfo *Info : P.contexts())
      Out += P.contextLabel(*Info) + ":"
             + std::to_string(Info->allocations()) + ","
             + std::to_string(Info->foldedInstances()) + ","
             + std::to_string(Info->liveData().total()) + ","
             + std::to_string(Info->liveData().max()) + ","
             + std::to_string(Info->usedData().total()) + ","
             + std::to_string(Info->maxSizeStat().mean()) + "\n";
    return Out;
  };

  const std::string Sequential = Collect(0);
  EXPECT_EQ(Collect(4), Sequential);
  EXPECT_EQ(Collect(8), Sequential);
  const std::string Folded = Profile(0);
  ASSERT_FALSE(Folded.empty());
  EXPECT_EQ(Profile(4), Folded);
}

} // namespace
