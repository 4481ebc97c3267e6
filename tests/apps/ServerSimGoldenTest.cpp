//===--- ServerSimGoldenTest.cpp - ServerSim golden digests ---------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ServerSim's outputs pinned to FNV-1a digests taken from the live
/// request handlers it had before it became a trace generator: the
/// recorded trace bytes, the profiling report, and the 1-thread decision
/// ledger. The record/replay tests compare the replay engine with itself;
/// these digests are what catch a generated op that drifts from the
/// handlers' behaviour (a missing size read, a wrong query result, an
/// off-by-one in the bounded-history loop).
///
//===----------------------------------------------------------------------===//

#include "apps/ServerSim.h"
#include "apps/TraceFormat.h"
#include "apps/TraceWorkload.h"
#include "obs/DecisionLog.h"
#include "support/Wire.h"

#include <gtest/gtest.h>

using namespace chameleon;
using namespace chameleon::apps;

namespace {

struct Digests {
  uint64_t Trace = 0;
  uint64_t Report = 0;
};

/// Runs \p Config with a capture armed; digests the trace and report.
Digests recordedRun(ServerSimConfig Config) {
  TraceCapture Capture;
  Config.RecordTo = &Capture;
  CollectionRuntime RT(serverSimRuntimeConfig());
  ServerSimResult Result = runServerSim(RT, Config);
  return {fnv1a(writeTrace(Capture.finish())), fnv1a(Result.Report)};
}

TEST(ServerSim, GeneratedStreamMatchesParentRecording) {
  // Default config: 16 sessions x 3 epochs x 240 requests.
  Digests Default = recordedRun(ServerSimConfig());
  EXPECT_EQ(Default.Trace, 0x3be202ca5eab1d40ULL);
  EXPECT_EQ(Default.Report, 0x1bfee0a87eaf2a27ULL);

  // TraceReplayTest's small config under a non-default request seed.
  ServerSimConfig Small;
  Small.Sessions = 8;
  Small.Epochs = 3;
  Small.RequestsPerEpoch = 96;
  Small.HistoryBound = 16;
  Small.Seed = 0xBADC0DE;
  EXPECT_EQ(recordedRun(Small).Trace, 0x089fed5d78916518ULL);

  // A history bound small enough that updates trim the oldest entry, and
  // a session count that does not divide the request count.
  ServerSimConfig Trim;
  Trim.Sessions = 5;
  Trim.Epochs = 4;
  Trim.RequestsPerEpoch = 77;
  Trim.HistoryBound = 3;
  Trim.Seed = 0xBADC0DE;
  Digests Trimmed = recordedRun(Trim);
  EXPECT_EQ(Trimmed.Trace, 0x329c992c0be72a08ULL);
  EXPECT_EQ(Trimmed.Report, 0x49c97cbc55e730a6ULL);

  // The 1-thread decision ledger: barrier-time rule pass plus the
  // session-collection migration flip.
  {
    CollectionRuntime RT(serverSimRuntimeConfig());
    ServerSimConfig Config;
    Config.MutatorThreads = 1;
    Config.DecisionLedger = true;
    runServerSim(RT, Config);
    obs::DecisionLog &Log = obs::DecisionLog::instance();
    std::string Doc = obs::decisionsJson(Log.exportCanonical());
    Log.disarm();
    EXPECT_EQ(fnv1a(Doc), 0xb62a0a306ca680fcULL);
  }
}

} // namespace
