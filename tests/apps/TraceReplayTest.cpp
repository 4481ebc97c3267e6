//===--- TraceReplayTest.cpp - Record/replay differential tests -----------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The record/replay determinism contract (DESIGN.md §14), proven end to
/// end: a recorded ServerSim run replays to a byte-identical profiling
/// report at MutatorThreads 1, 2, and 8 — including through a file
/// round-trip — and recording itself does not perturb the recorded run.
/// Zoo traces replay with clean root hygiene: at every epoch barrier the
/// only roots left are the boot task's global handles.
///
//===----------------------------------------------------------------------===//

#include "apps/ServerSim.h"
#include "apps/TraceFormat.h"
#include "apps/TraceWorkload.h"
#include "apps/WorkloadGen.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <numeric>
#include <thread>

using namespace chameleon;
using namespace chameleon::apps;

namespace {

ServerSimConfig smallSimConfig() {
  ServerSimConfig Config;
  Config.Sessions = 8;
  Config.Epochs = 3;
  Config.RequestsPerEpoch = 96;
  Config.HistoryBound = 16;
  return Config;
}

/// Records one ServerSim run; returns the trace and the live report.
Trace recordServerSim(std::string &ReportOut) {
  TraceCapture Capture;
  ServerSimConfig Config = smallSimConfig();
  Config.RecordTo = &Capture;
  CollectionRuntime RT(serverSimRuntimeConfig());
  ServerSimResult Result = runServerSim(RT, Config);
  ReportOut = Result.Report;
  return Capture.finish();
}

std::string replayWithThreads(const Trace &T, uint32_t Threads) {
  ReplayConfig Config;
  Config.MutatorThreads = Threads;
  CollectionRuntime RT(traceReplayRuntimeConfig(Config));
  ReplayResult R = replayTrace(RT, T, Config);
  EXPECT_TRUE(R.Ok) << R.Error;
  return R.Report;
}

TEST(TraceReplay, RecordingDoesNotChangeTheRun) {
  std::string Recorded;
  Trace T = recordServerSim(Recorded);
  CollectionRuntime RT(serverSimRuntimeConfig());
  ServerSimResult Plain = runServerSim(RT, smallSimConfig());
  EXPECT_EQ(Plain.Report, Recorded);
  EXPECT_EQ(T.taskCount(), 3u * 96u);
  ASSERT_TRUE(T.Boot.has_value());
  EXPECT_EQ(T.Boot->Ops.size(), 2u * 8u);
}

TEST(TraceReplay, ByteIdenticalReportAtAnyThreadCount) {
  std::string Recorded;
  Trace T = recordServerSim(Recorded);
  ASSERT_TRUE(validateTrace(T));
  for (uint32_t Threads : {1u, 2u, 8u}) {
    std::string Replayed = replayWithThreads(T, Threads);
    EXPECT_EQ(Replayed, Recorded) << "MutatorThreads=" << Threads;
  }
}

TEST(TraceReplay, SurvivesAFileRoundTrip) {
  std::string Recorded;
  Trace T = recordServerSim(Recorded);
  std::string Path = testing::TempDir() + "/chamtrace_serversim.trace";
  std::string Error;
  ASSERT_TRUE(writeTraceFile(Path, T, &Error)) << Error;
  Trace Back;
  ASSERT_TRUE(readTraceFile(Path, Back, &Error)) << Error;
  std::remove(Path.c_str());
  EXPECT_EQ(Back.Header.Generator, "serversim");
  EXPECT_EQ(replayWithThreads(Back, 2), Recorded);
}

TEST(TraceReplay, ReplayRejectsInvalidTraces) {
  std::string Recorded;
  Trace T = recordServerSim(Recorded);
  T.Epochs[0][0].FrameIdx = 1000; // out of range
  ReplayConfig Config;
  CollectionRuntime RT(traceReplayRuntimeConfig(Config));
  ReplayResult R = replayTrace(RT, T, Config);
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Error.empty());
  EXPECT_TRUE(R.Report.empty());
}

/// Global registers the boot task allocates: the handles that root the
/// server's long-lived state for the whole replay.
size_t bootGlobalHandles(const Trace &T) {
  size_t N = 0;
  if (T.Boot)
    for (const TraceOp &Op : T.Boot->Ops)
      N += Op.Code == TraceOpCode::Alloc && !traceRegIsTemp(Op.Target);
  return N;
}

/// Every task adopts the globals it touches and drops them at its end, so
/// at each barrier no adoption outlives its task: the root count is the
/// boot's global handle count at every thread count, the heap verifies,
/// and the report stays byte-identical.
TEST(TraceReplay, AdoptedHandlesNeverOutliveTheirTask) {
  WorkloadGenConfig Gen;
  applyWorkloadScale(WorkloadScale::Ci, Gen);
  for (Trace (*Generate)(const WorkloadGenConfig &) :
       {&generateZipfTrace, &generatePhaseShiftTrace}) {
    const Trace T = Generate(Gen);
    const size_t BootHandles = bootGlobalHandles(T);
    ASSERT_GT(BootHandles, 0u) << T.Header.Generator;
    std::string FirstReport;
    for (uint32_t Threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(T.Header.Generator + " MutatorThreads="
                   + std::to_string(Threads));
      ReplayConfig Config;
      Config.MutatorThreads = Threads;
      uint32_t Barriers = 0;
      Config.OnEpochBarrier = [&](uint32_t Epoch, CollectionRuntime &RT) {
        ++Barriers;
        EXPECT_EQ(RT.heap().rootCount(), BootHandles) << "epoch " << Epoch;
        std::string Error;
        EXPECT_TRUE(RT.heap().verifyHeap(&Error))
            << "epoch " << Epoch << ": " << Error;
      };
      CollectionRuntime RT(traceReplayRuntimeConfig(Config));
      ReplayResult R = replayTrace(RT, T, Config);
      ASSERT_TRUE(R.Ok) << R.Error;
      EXPECT_EQ(Barriers, T.Header.Epochs);
      if (FirstReport.empty())
        FirstReport = R.Report;
      else
        EXPECT_EQ(R.Report, FirstReport);
    }
  }
}

/// The epoch barrier runs on the last worker to arrive — never on the
/// thread that called replayTrace — with every other worker parked: while
/// OnEpochBarrier runs, no collection is allocated anywhere. The report
/// stays byte-identical at any worker count.
TEST(TraceReplay, BarrierRunsOnAParkedWorld) {
  std::string Recorded;
  const Trace T = recordServerSim(Recorded);
  const std::thread::id Caller = std::this_thread::get_id();
  for (uint32_t Threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("MutatorThreads=" + std::to_string(Threads));
    ReplayConfig Config;
    Config.MutatorThreads = Threads;
    std::vector<uint32_t> Barriers;
    Config.OnEpochBarrier = [&](uint32_t Epoch, CollectionRuntime &RT) {
      Barriers.push_back(Epoch);
      EXPECT_NE(std::this_thread::get_id(), Caller) << "epoch " << Epoch;
      auto Allocated = [&RT] {
        uint64_t N = 0;
        for (unsigned I = 0; I < NumImplKinds; ++I)
          N += RT.allocationsWithImpl(static_cast<ImplKind>(I));
        return N;
      };
      const uint64_t Before = Allocated();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      EXPECT_EQ(Allocated(), Before) << "a worker ran during barrier "
                                     << Epoch;
    };
    CollectionRuntime RT(traceReplayRuntimeConfig(Config));
    ReplayResult R = replayTrace(RT, T, Config);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Report, Recorded);
    std::vector<uint32_t> Expected(T.Header.Epochs);
    std::iota(Expected.begin(), Expected.end(), 0u);
    EXPECT_EQ(Barriers, Expected);
  }
}

/// Chaos forces collections at random allocations in the middle of an
/// epoch, when no worker — or only the few already at the barrier — is
/// parked to help: the collecting worker claims the remaining items of
/// every phase itself, and the heap stays consistent.
TEST(TraceReplay, MidEpochCollectionWithoutHelpers) {
  WorkloadGenConfig Gen;
  applyWorkloadScale(WorkloadScale::Ci, Gen);
  const Trace T = generateZipfTrace(Gen);
  for (uint32_t Threads : {4u, 8u}) {
    SCOPED_TRACE("MutatorThreads=" + std::to_string(Threads));
    ReplayConfig Config;
    Config.MutatorThreads = Threads;
    Config.Chaos = true;
    CollectionRuntime RT(traceReplayRuntimeConfig(Config));
    ReplayResult R = replayTrace(RT, T, Config);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_GT(FaultInjector::instance().stats().ForcedGcs, 0u);
    EXPECT_GT(RT.heap().cycleCount(), T.Header.Epochs);
    std::string Error;
    EXPECT_TRUE(RT.heap().verifyHeap(&Error)) << Error;
  }
}

} // namespace
