//===--- SemanticProfilerTest.cpp - Profiler unit tests --------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profiler/SemanticProfiler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

using namespace chameleon;

namespace {

TEST(SemanticProfiler, InternFrameIsIdempotent) {
  SemanticProfiler P;
  FrameId A = P.internFrame("Foo.bar:10");
  FrameId B = P.internFrame("Foo.bar:10");
  FrameId C = P.internFrame("Foo.baz:20");
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(P.frameName(A), "Foo.bar:10");
}

TEST(SemanticProfiler, CallFramePushesAndPops) {
  SemanticProfiler P;
  EXPECT_EQ(P.stackDepth(), 0u);
  {
    CallFrame F1(P, "a");
    EXPECT_EQ(P.stackDepth(), 1u);
    {
      CallFrame F2(P, "b");
      EXPECT_EQ(P.stackDepth(), 2u);
    }
    EXPECT_EQ(P.stackDepth(), 1u);
  }
  EXPECT_EQ(P.stackDepth(), 0u);
}

TEST(SemanticProfiler, SameSiteSameCallerSameContext) {
  SemanticProfiler P;
  FrameId Site = P.internFrame("site:1");
  FrameId Type = P.internFrame("HashMap");
  CallFrame Caller(P, "caller");
  ContextInfo *A = P.contextForAllocation(Site, Type);
  ContextInfo *B = P.contextForAllocation(Site, Type);
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A, B);
  EXPECT_EQ(P.contexts().size(), 1u);
}

TEST(SemanticProfiler, DifferentCallersSeparateContexts) {
  // The factory motivation of §2.1: same site, different callers.
  SemanticProfiler P;
  FrameId Site = P.internFrame("Factory.make:31");
  FrameId Type = P.internFrame("HashMap");
  ContextInfo *A;
  ContextInfo *B;
  {
    CallFrame Caller(P, "callerA");
    A = P.contextForAllocation(Site, Type);
  }
  {
    CallFrame Caller(P, "callerB");
    B = P.contextForAllocation(Site, Type);
  }
  EXPECT_NE(A, B);
  EXPECT_EQ(P.contexts().size(), 2u);
}

TEST(SemanticProfiler, DifferentTypesSeparateContexts) {
  SemanticProfiler P;
  FrameId Site = P.internFrame("site:1");
  ContextInfo *A = P.contextForAllocation(Site, P.internFrame("HashMap"));
  ContextInfo *B = P.contextForAllocation(Site, P.internFrame("ArrayList"));
  EXPECT_NE(A, B);
}

TEST(SemanticProfiler, ContextDepthBoundsTheKey) {
  ProfilerConfig Config;
  Config.ContextDepth = 2; // site + one caller
  SemanticProfiler P(Config);
  FrameId Site = P.internFrame("site:1");
  FrameId Type = P.internFrame("HashMap");
  ContextInfo *A;
  ContextInfo *B;
  {
    CallFrame Outer(P, "outerA");
    CallFrame Inner(P, "inner");
    A = P.contextForAllocation(Site, Type);
  }
  {
    CallFrame Outer(P, "outerB"); // differs only beyond the depth
    CallFrame Inner(P, "inner");
    B = P.contextForAllocation(Site, Type);
  }
  EXPECT_EQ(A, B) << "frames beyond the partial depth must not split "
                     "contexts";
  EXPECT_EQ(A->frames().size(), 2u);
}

TEST(SemanticProfiler, DisabledProfilerCapturesNothing) {
  ProfilerConfig Config;
  Config.Enabled = false;
  SemanticProfiler P(Config);
  FrameId Site = P.internFrame("site:1");
  EXPECT_EQ(P.contextForAllocation(Site, P.internFrame("HashMap")),
            nullptr);
  EXPECT_EQ(P.contextAcquisitions(), 0u);
}

TEST(SemanticProfiler, SamplingSkipsAllButOneInN) {
  ProfilerConfig Config;
  Config.SamplingPeriod = 4;
  SemanticProfiler P(Config);
  FrameId Site = P.internFrame("site:1");
  FrameId Type = P.internFrame("HashMap");
  unsigned Captured = 0;
  for (int I = 0; I < 100; ++I)
    Captured += P.contextForAllocation(Site, Type) != nullptr;
  EXPECT_EQ(Captured, 25u);
  EXPECT_EQ(P.allocationsSampledOut(), 75u);
}

TEST(SemanticProfiler, ContextLabelHasPaperFormat) {
  SemanticProfiler P;
  FrameId Site = P.internFrame("tvla.util.HashMapFactory:31");
  FrameId Type = P.internFrame("HashMap");
  CallFrame Caller(P, "tvla.core.base.BaseTVS:50");
  ContextInfo *Info = P.contextForAllocation(Site, Type);
  ASSERT_NE(Info, nullptr);
  EXPECT_EQ(P.contextLabel(*Info),
            "HashMap:tvla.util.HashMapFactory:31;tvla.core.base.BaseTVS:50");
}

TEST(SemanticProfiler, HooksAggregateHeapStats) {
  SemanticProfiler P;
  FrameId Site = P.internFrame("site:1");
  ContextInfo *Info = P.contextForAllocation(Site, P.internFrame("HashMap"));
  ASSERT_NE(Info, nullptr);

  HeapObject Dummy(/*Type=*/0, /*ShallowBytes=*/8);
  CollectionSizes Sizes{100, 60, 20};
  P.onLiveCollection(Dummy, Sizes, Info);
  GcCycleRecord Rec;
  Rec.LiveBytes = 500;
  Rec.CollectionLiveBytes = 100;
  Rec.CollectionUsedBytes = 60;
  Rec.CollectionCoreBytes = 20;
  P.onCycleEnd(Rec);

  EXPECT_EQ(Info->liveData().total(), 100u);
  EXPECT_EQ(Info->usedData().total(), 60u);
  EXPECT_EQ(P.heapLiveData().total(), 500u);
  EXPECT_EQ(P.cyclesSeen(), 1u);
}

TEST(SemanticProfiler, DeathHookFoldsObjectInfo) {
  SemanticProfiler P;
  FrameId Site = P.internFrame("site:1");
  ContextInfo *Info = P.contextForAllocation(Site, P.internFrame("HashMap"));
  ObjectContextInfo Usage;
  Usage.count(OpKind::Put);
  Usage.noteSize(3);
  HeapObject Dummy(/*Type=*/0, /*ShallowBytes=*/8);
  P.onCollectionDeath(Dummy, Info, &Usage);
  EXPECT_EQ(Info->foldedInstances(), 1u);
  EXPECT_DOUBLE_EQ(Info->opStat(OpKind::Put).mean(), 1.0);
}

TEST(SemanticProfiler, RankedByPotentialOrdersDescending) {
  SemanticProfiler P;
  FrameId Site = P.internFrame("site:1");
  FrameId Type = P.internFrame("HashMap");
  ContextInfo *Small;
  ContextInfo *Big;
  {
    CallFrame Caller(P, "small");
    Small = P.contextForAllocation(Site, Type);
  }
  {
    CallFrame Caller(P, "big");
    Big = P.contextForAllocation(Site, Type);
  }
  HeapObject Dummy(/*Type=*/0, /*ShallowBytes=*/8);
  P.onLiveCollection(Dummy, {100, 90, 10}, Small); // potential 10
  P.onLiveCollection(Dummy, {100, 20, 10}, Big);   // potential 80
  GcCycleRecord Rec;
  P.onCycleEnd(Rec);

  std::vector<ContextInfo *> Ranked = P.rankedByPotential();
  ASSERT_EQ(Ranked.size(), 2u);
  EXPECT_EQ(Ranked[0], Big);
  EXPECT_EQ(Ranked[1], Small);
}

TEST(SemanticProfiler, FastPathHitsOnRepeatedCapture) {
  SemanticProfiler P;
  FrameId Site = P.internFrame("site:1");
  FrameId Type = P.internFrame("HashMap");
  CallFrame Caller(P, "caller");
  ContextInfo *First = P.contextForAllocation(Site, Type);
  uint64_t MissesAfterFirst = P.contextCacheMisses();
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(P.contextForAllocation(Site, Type), First);
  EXPECT_EQ(P.contextCacheHits(), 100u);
  EXPECT_EQ(P.contextCacheMisses(), MissesAfterFirst);
}

TEST(SemanticProfiler, FastPathMatchesSlowPathAcrossStacks) {
  // The same capture sequence with the cache on and off must produce the
  // same set of contexts with the same frame vectors — the fingerprint
  // cache is purely a performance knob.
  auto Capture = [](bool FastPath) {
    ProfilerConfig Config;
    Config.ContextFastPath = FastPath;
    SemanticProfiler P(Config);
    FrameId Site = P.internFrame("Factory.make:31");
    FrameId Type = P.internFrame("HashMap");
    std::vector<std::string> Labels;
    for (int Round = 0; Round < 3; ++Round) {
      for (int CallerIdx = 0; CallerIdx < 5; ++CallerIdx) {
        CallFrame Outer(P, "outer" + std::to_string(CallerIdx));
        Labels.push_back(
            P.contextLabel(*P.contextForAllocation(Site, Type)));
        {
          CallFrame Inner(P, "inner");
          Labels.push_back(
              P.contextLabel(*P.contextForAllocation(Site, Type)));
        }
        // Same depth again after the pop: must re-match the outer context.
        Labels.push_back(
            P.contextLabel(*P.contextForAllocation(Site, Type)));
      }
    }
    return std::make_pair(Labels, P.contexts().size());
  };
  auto [FastLabels, FastCount] = Capture(true);
  auto [SlowLabels, SlowCount] = Capture(false);
  EXPECT_EQ(FastLabels, SlowLabels);
  EXPECT_EQ(FastCount, SlowCount);
}

TEST(SemanticProfiler, FastPathDistinguishesSiblingStacks) {
  // Stacks that agree on the top frames but differ deeper still hit the
  // correct context: the fingerprint covers the whole stack, so each deep
  // variant occupies its own cache line yet maps to the same ContextInfo.
  ProfilerConfig Config;
  Config.ContextDepth = 2;
  SemanticProfiler P(Config);
  FrameId Site = P.internFrame("site:1");
  FrameId Type = P.internFrame("ArrayList");
  ContextInfo *FromA;
  ContextInfo *FromB;
  {
    CallFrame Deep(P, "deepA");
    CallFrame Caller(P, "caller");
    FromA = P.contextForAllocation(Site, Type);
  }
  {
    CallFrame Deep(P, "deepB");
    CallFrame Caller(P, "caller");
    FromB = P.contextForAllocation(Site, Type);
  }
  // Depth 2 keys on (site, caller) only, so both stacks share a context.
  EXPECT_EQ(FromA, FromB);
  {
    CallFrame Deep(P, "deepA");
    CallFrame Caller(P, "caller");
    EXPECT_EQ(P.contextForAllocation(Site, Type), FromA);
  }
  EXPECT_GE(P.contextCacheHits(), 1u);
}

TEST(SemanticProfiler, FingerprintTracksPushPop) {
  SemanticProfiler P;
  uint64_t Empty = P.stackFingerprint();
  FrameId A = P.internFrame("a");
  FrameId B = P.internFrame("b");
  P.pushFrame(A);
  uint64_t AfterA = P.stackFingerprint();
  EXPECT_NE(AfterA, Empty);
  P.pushFrame(B);
  EXPECT_NE(P.stackFingerprint(), AfterA);
  P.popFrame();
  EXPECT_EQ(P.stackFingerprint(), AfterA);
  P.popFrame();
  EXPECT_EQ(P.stackFingerprint(), Empty);
}

/// One profile event of the fold-order test: its task and the value it
/// folds. Values divisible by 3 are deaths (usage snapshot), the rest
/// allocations (initial capacity).
struct FoldEvent {
  uint64_t Task;
  uint32_t Value;
};

void emitEvents(SemanticProfiler &P, ContextInfo *Ctx,
                const std::vector<FoldEvent> &Events) {
  for (const FoldEvent &E : Events) {
    P.setCurrentTask(E.Task);
    if (E.Value % 3 != 0) {
      P.noteAllocation(Ctx, E.Value);
      continue;
    }
    ObjectContextInfo Usage;
    for (uint32_t I = 0; I < E.Value % 7; ++I)
      Usage.count(OpKind::Put);
    Usage.noteSize(E.Value);
    P.noteDeath(Ctx, Usage);
  }
}

/// Every trace accumulator of a context, as exact doubles.
std::vector<double> foldedState(const ContextInfo &Ctx) {
  const ContextStatsBundle B = Ctx.exportStats();
  std::vector<double> Out = {static_cast<double>(B.Allocations),
                             static_cast<double>(B.Folded)};
  auto Add = [&Out](const RunningStat &S) {
    Out.insert(Out.end(), {static_cast<double>(S.count()), S.mean(), S.m2(),
                           S.min(), S.max()});
  };
  for (const RunningStat &S : B.OpStats)
    Add(S);
  Add(B.MaxSizeStat);
  Add(B.FinalSizeStat);
  Add(B.InitialCapacityStat);
  return Out;
}

/// Folds \p Events directly, in the given order, on one thread.
std::vector<double> foldedOnOneThread(const std::vector<FoldEvent> &Events) {
  SemanticProfiler P;
  ContextInfo *Ctx =
      P.contextForAllocation(P.internFrame("site:1"), P.internFrame("HashMap"));
  emitEvents(P, Ctx, Events);
  return foldedState(*Ctx);
}

/// The epoch flush folds each thread's buffer by task runs. Two threads
/// with interleaved task ids, one re-entering a task (1, 4, 1), must fold
/// exactly as the same events folded one by one in (Task, Seq) order.
TEST(SemanticProfiler, FlushFoldsTaskRunsInTaskSeqOrder) {
  const std::vector<FoldEvent> Main = {{0, 5}, {0, 7}};
  const std::vector<FoldEvent> T1 = {{1, 11}, {1, 13}, {1, 4},  {4, 17},
                                     {4, 21}, {1, 19}, {1, 23}};
  const std::vector<FoldEvent> T2 = {{2, 29}, {2, 6}, {5, 31}, {3, 37},
                                     {3, 9}};

  ProfilerConfig Config;
  Config.ConcurrentMutators = true;
  SemanticProfiler P(Config);
  ContextInfo *Ctx =
      P.contextForAllocation(P.internFrame("site:1"), P.internFrame("HashMap"));
  emitEvents(P, Ctx, Main);
  std::thread([&] { emitEvents(P, Ctx, T1); }).join();
  std::thread([&] { emitEvents(P, Ctx, T2); }).join();
  P.flushEpoch();

  std::vector<FoldEvent> Gathered = Main;
  Gathered.insert(Gathered.end(), T1.begin(), T1.end());
  Gathered.insert(Gathered.end(), T2.begin(), T2.end());
  std::vector<FoldEvent> TaskSeq = Gathered;
  std::stable_sort(TaskSeq.begin(), TaskSeq.end(),
                   [](const FoldEvent &A, const FoldEvent &B) {
                     return A.Task < B.Task;
                   });
  // The values are order-sensitive: folding them in gather order gives
  // different bits, so the comparison below pins the order itself.
  ASSERT_NE(foldedOnOneThread(Gathered), foldedOnOneThread(TaskSeq));
  EXPECT_EQ(foldedState(*Ctx), foldedOnOneThread(TaskSeq));
}

} // namespace
