//===--- ServerSim.cpp - Multi-threaded server workload -------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "apps/ServerSim.h"

#include "apps/TraceWorkload.h"
#include "collections/Wrapper.h"
#include "obs/DecisionLog.h"
#include "obs/FlightRecorder.h"
#include "obs/Trace.h"
#include "support/FaultInjector.h"
#include "support/Format.h"
#include "support/SplitMix64.h"

#include <bit>
#include <cassert>
#include <cstdio>
#include <optional>
#include <vector>

using namespace chameleon;
using namespace chameleon::apps;

namespace {

constexpr uint64_t Gamma = 0x9E3779B97F4A7C15ULL;

/// Indices into the trace's frame table, in the profiler intern order the
/// replay pins FrameIds (and so context identities) to.
enum ServerSimFrame : uint32_t {
  FrameLogin = 0,
  FrameQuery = 1,
  FrameUpdate = 2,
  FrameScratchSite = 3,
  FrameResultsSite = 4,
  FrameAttrsSite = 5,
  FrameHistorySite = 6,
  FrameBoot = 7,
  NumServerSimFrames = 8,
};

const char *const ServerSimFrameLabels[NumServerSimFrames] = {
    "Server.handleLogin",
    "Server.handleQuery",
    "Server.handleUpdate",
    "server.LoginHandler.scratch:58",
    "server.QueryHandler.results:91",
    "server.Session.attrs:31",
    "server.Session.history:32",
    "Server.boot",
};

/// What the generator knows of one session's collections: enough to emit
/// the ops whose operands depend on their contents. Attribute keys are
/// 0..7 (login writes 0 and 1..7, update writes 2).
struct SessionModel {
  std::optional<int64_t> Attr[8];
  uint32_t HistoryLen = 0;
};

/// Emits request \p Task (per-epoch request number \p Req) of session
/// \p S into \p Rec, advancing the model exactly as the handler's ops
/// change the session's collections.
void emitRequest(TaskTrace &Rec, SessionModel &S,
                 const ServerSimConfig &Config, uint64_t Task, uint32_t Req) {
  SplitMix64 Rng(Config.Seed ^ (Gamma * Task));
  const uint32_t Session = Req % Config.Sessions;
  const uint32_t AttrsReg = traceGlobalReg(2 * Session);
  const uint32_t HistoryReg = traceGlobalReg(2 * Session + 1);
  const uint32_t TempReg = traceTempReg(0);
  const int64_t TaskVal = static_cast<int64_t>(Task);

  switch (Req % 3) {
  case 0: { // login: refresh attributes through a request-scoped scratch map
    Rec.alloc(TempReg, AdtKind::Map, ImplKind::HashMap, FrameScratchSite, 8);
    uint32_t ScratchKeys = 0;
    for (int I = 0; I < 6; ++I) {
      int64_t Key = static_cast<int64_t>(Rng.nextBelow(16));
      ScratchKeys |= 1u << Key;
      Rec.op2(TraceOpCode::MapPut, TempReg, Key, TaskVal);
    }
    Rec.op2(TraceOpCode::MapPut, AttrsReg, 0, TaskVal);
    S.Attr[0] = TaskVal;
    int64_t Key = 1 + static_cast<int64_t>(Rng.nextBelow(7));
    int64_t Sz = std::popcount(ScratchKeys);
    Rec.op0(TraceOpCode::Size, TempReg);
    Rec.op2(TraceOpCode::MapPut, AttrsReg, Key, Sz);
    S.Attr[Key] = Sz;
    Rec.op0(TraceOpCode::Retire, TempReg);
    break;
  }
  case 1: { // query: read-dominated, request-scoped result list
    Rec.alloc(TempReg, AdtKind::List, ImplKind::ArrayList, FrameResultsSite,
              4);
    for (int I = 0; I < 12; ++I) {
      int64_t Key = static_cast<int64_t>(Rng.nextBelow(8));
      Rec.op1(TraceOpCode::MapGet, AttrsReg, Key);
      if (S.Attr[Key])
        Rec.op1(TraceOpCode::ListAdd, TempReg, *S.Attr[Key]);
    }
    const uint32_t E = S.HistoryLen;
    Rec.op0(TraceOpCode::Size, HistoryReg);
    for (uint32_t I = 0; I < E && I < 4; ++I)
      Rec.op1(TraceOpCode::ListGet, HistoryReg,
              static_cast<int64_t>(E - 1 - I));
    Rec.op0(TraceOpCode::Retire, TempReg);
    break;
  }
  default: { // update: bounded history append
    Rec.op1(TraceOpCode::ListAdd, HistoryReg, TaskVal);
    ++S.HistoryLen;
    for (;;) {
      Rec.op0(TraceOpCode::Size, HistoryReg);
      if (S.HistoryLen <= Config.HistoryBound)
        break;
      Rec.op0(TraceOpCode::ListRemoveFirst, HistoryReg);
      --S.HistoryLen;
    }
    Rec.op0(TraceOpCode::Size, HistoryReg);
    Rec.op2(TraceOpCode::MapPut, AttrsReg, 2, S.HistoryLen);
    S.Attr[2] = S.HistoryLen;
    break;
  }
  }
}

/// The run's request stream as a trace: the boot task allocating every
/// session's attribute map and history list, then one task per request.
Trace buildServerSimTrace(const ServerSimConfig &Config) {
  Trace T;
  T.Header.Generator = "serversim";
  T.Header.Seed = Config.Seed;
  T.Header.Sessions = Config.Sessions;
  T.Header.Epochs = Config.Epochs;
  T.Header.Requests = uint64_t{Config.Epochs} * Config.RequestsPerEpoch;
  T.Header.HistoryBound = Config.HistoryBound;
  T.Header.Globals = 2 * Config.Sessions;
  T.Header.Frames.assign(ServerSimFrameLabels,
                         ServerSimFrameLabels + NumServerSimFrames);

  TaskTrace Boot;
  Boot.Task.Id = 0;
  Boot.Task.Session = TraceBootSession;
  Boot.Task.FrameIdx = FrameBoot;
  for (uint32_t I = 0; I < Config.Sessions; ++I) {
    Boot.alloc(traceGlobalReg(2 * I), AdtKind::Map, ImplKind::HashMap,
               FrameAttrsSite, 8);
    Boot.alloc(traceGlobalReg(2 * I + 1), AdtKind::List, ImplKind::ArrayList,
               FrameHistorySite, Config.HistoryBound);
  }
  T.Boot = std::move(Boot.Task);

  std::vector<SessionModel> Sessions(Config.Sessions);
  TaskTrace Rec; // reused; each task copies its ops out at their exact size
  T.Epochs.resize(Config.Epochs);
  for (uint32_t Epoch = 0; Epoch < Config.Epochs; ++Epoch) {
    T.Epochs[Epoch].reserve(Config.RequestsPerEpoch);
    for (uint32_t Req = 0; Req < Config.RequestsPerEpoch; ++Req) {
      TraceTask &Task = T.Epochs[Epoch].emplace_back();
      // Task 0 is the boot task; request tasks start at 1.
      Task.Id = 1 + uint64_t{Epoch} * Config.RequestsPerEpoch + Req;
      Task.Session = Req % Config.Sessions;
      Task.FrameIdx = Req % 3;
      Rec.Task.Ops.clear();
      emitRequest(Rec, Sessions[Task.Session], Config, Task.Id, Req);
      Task.Ops = Rec.Task.Ops;
    }
  }
  return T;
}

/// Flips the backing of every live collection through the transactional
/// migration path: maps to ArrayMap and lists to LinkedList on even
/// epochs, back on odd ones. At a barrier the only live collections are
/// the session state (every request temp is retired and swept), and boot
/// allocated it first, on the main thread of a fresh heap, so slot order
/// is session order — attrs then history, session by session.
void flipSessionCollections(CollectionRuntime &RT, uint32_t Epoch) {
  const ImplKind MapTarget =
      Epoch % 2 == 0 ? ImplKind::ArrayMap : ImplKind::HashMap;
  const ImplKind ListTarget =
      Epoch % 2 == 0 ? ImplKind::LinkedList : ImplKind::ArrayList;
  std::vector<std::pair<ObjectRef, ImplKind>> Flips;
  RT.heap().forEachObject([&](HeapObject &Obj) {
    if (RT.heap().types().get(Obj.typeId()).Kind != TypeKind::CollectionWrapper)
      return;
    const auto &W = static_cast<const CollectionObject &>(Obj);
    Flips.emplace_back(Obj.self(),
                       W.Adt == AdtKind::Map ? MapTarget : ListTarget);
  });
  for (const auto &[Wrapper, Target] : Flips)
    (void)RT.migrateCollection(Wrapper, Target);
}

/// printf's %llu argument type.
unsigned long long ull(uint64_t V) { return V; }

/// The --ticker line: one stderr glance per epoch barrier at the run's
/// live telemetry. stderr only — never part of the deterministic report.
void printTicker(CollectionRuntime &RT, uint32_t Epoch, uint32_t Epochs) {
  obs::TraceRecorder &Rec = obs::TraceRecorder::instance();
  std::fprintf(
      stderr,
      "[telemetry] epoch %u/%u gc=%llu migrations=%llu/%llu/%llu shed=%s "
      "events=%llu dropped=%llu\n",
      Epoch + 1, Epochs, ull(RT.heap().cycleCount()),
      ull(RT.migrationAttempts()), ull(RT.migrationCommits()),
      ull(RT.migrationAborts()),
      RT.profiler().degradationStats().ShedActive ? "on" : "off",
      ull(Rec.recordedEvents()), ull(Rec.droppedEvents()));
}

/// Fault, migration, and degradation accounting of a chaos run.
std::string buildChaosReport(CollectionRuntime &RT,
                             const ServerSimConfig &Config,
                             const ReplayResult &R) {
  std::string Out;
  appendf(Out, "chaos: seed=0x%llx softLimit=%llu\n", ull(Config.ChaosSeed),
          ull(Config.ChaosSoftHeapLimitBytes));
  FaultStats FS = FaultInjector::instance().stats();
  appendf(Out,
          "faults: hits=%llu thrown=%llu forcedGcs=%llu suppressed=%llu\n",
          ull(FS.Hits), ull(FS.AllocFailuresThrown), ull(FS.ForcedGcs),
          ull(FS.SuppressedFailures));
  for (const FaultInjector::RuleReport &Rule :
       FaultInjector::instance().ruleReports())
    appendf(Out, "  rule %s: hits=%llu fires=%llu\n", Rule.SitePattern.c_str(),
            ull(Rule.Hits), ull(Rule.Fires));
  appendf(Out,
          "migrations: attempts=%llu commits=%llu aborts=%llu "
          "requested=%llu pinned=%llu\n",
          ull(RT.migrationAttempts()), ull(RT.migrationCommits()),
          ull(RT.migrationAborts()), ull(R.MigrationsRequested),
          ull(R.PinnedContexts));
  appendf(Out, "retire: double=%llu useAfter=%llu\n", ull(RT.doubleRetires()),
          ull(RT.usesAfterRetire()));
  ProfilerDegradationStats D = RT.profiler().degradationStats();
  appendf(Out,
          "degradation: pressureEvents=%llu emergencyCollects=%llu "
          "shedMultiplier=%u shedSampledOut=%llu\n",
          ull(D.HeapPressureEvents), ull(RT.heap().emergencyCollects()),
          D.ShedMultiplier, ull(D.ShedSampledOut));
  appendf(Out,
          "events: notedAllocs=%llu foldedAllocs=%llu droppedAllocs=%llu "
          "notedDeaths=%llu foldedDeaths=%llu droppedDeaths=%llu\n",
          ull(D.NotedAllocs), ull(D.FoldedAllocs), ull(D.DroppedAllocs),
          ull(D.NotedDeaths), ull(D.FoldedDeaths), ull(D.DroppedDeaths));
  return Out;
}

} // namespace

RuntimeConfig chameleon::apps::serverSimRuntimeConfig() {
  // The replay's determinism config at the runtime's default revise period.
  ReplayConfig RC;
  RC.OnlineRevisePeriod = RuntimeConfig().OnlineRevisePeriod;
  return traceReplayRuntimeConfig(RC);
}

ServerSimResult chameleon::apps::runServerSim(CollectionRuntime &RT,
                                              const ServerSimConfig &Config) {
  // The ticker reads the recorder's counters; TelemetryOutDir arms it in
  // the replay.
  if (Config.TelemetryTicker)
    obs::TraceRecorder::instance().arm();

  // Ledger mode: arm (re-arming clears any previous run's records) and
  // build the builtin rule set the barrier-time evaluation pass uses.
  std::optional<rules::RuleEngine> LedgerEngine;
  if (Config.DecisionLedger) {
    obs::DecisionLog::instance().arm();
    LedgerEngine.emplace();
    LedgerEngine->addBuiltinRules();
  }
  if (!Config.FlightRecorderPath.empty()) {
    std::string Error;
    if (!obs::FlightRecorder::instance().install(Config.FlightRecorderPath,
                                                 "cham.", &Error))
      std::fprintf(stderr, "[flight-recorder] install failed: %s\n",
                   Error.c_str());
  }

  ReplayConfig RC;
  RC.MutatorThreads = Config.MutatorThreads;
  // Chaos mode: builtin rules behind an online adaptor (so live migrations
  // happen and can be aborted), a soft heap limit (so the shed path runs),
  // and the randomized fault plan, all scoped to the replay.
  RC.OnlineAdapt = Config.Chaos;
  RC.Chaos = Config.Chaos;
  RC.ChaosSeed = Config.ChaosSeed;
  RC.ChaosSoftHeapLimitBytes = Config.ChaosSoftHeapLimitBytes;
  RC.RecordTo = Config.RecordTo;
  RC.TelemetryOutDir = Config.TelemetryOutDir;
  RC.OnEpochBarrier = [&](uint32_t Epoch, CollectionRuntime &RT) {
    // Chaos migration storm: flip every session's backing under the armed
    // fault plan. Some attempts abort (and must roll back — the workers'
    // next epoch runs against the surviving contents); the rest commit
    // and flip back next epoch.
    if (Config.Chaos)
      flipSessionCollections(RT, Epoch);
    if (Config.DecisionLedger) {
      // Ledger pass: rule evaluation over every context against the
      // just-folded (post-flush, canonically renumbered) profile, then a
      // deterministic migration flip of the session collections so the
      // full lifecycle (start/build/verify/publish/commit) appears in the
      // ledger. Run by the last worker to reach the barrier with every
      // other worker parked: the record order is a pure function of the
      // workload, never of thread scheduling.
      std::vector<rules::Suggestion> Suggs;
      for (const ContextInfo *Ctx : RT.profiler().contexts())
        LedgerEngine->evaluateContext(*Ctx, RT.profiler(), Suggs);
      flipSessionCollections(RT, Epoch);
    }
    if (!Config.FlightRecorderPath.empty())
      obs::FlightRecorder::instance().checkpoint();
    if (Config.TelemetryTicker)
      printTicker(RT, Epoch, Config.Epochs);
  };

  ReplayResult R = replayTrace(RT, buildServerSimTrace(Config), RC);
  assert(R.Ok && "generated ServerSim trace failed validation");
  if (Config.TelemetryTicker)
    obs::TraceRecorder::instance().disarm();

  ServerSimResult Result;
  Result.TotalRequests = R.Tasks;
  if (Config.Chaos)
    Result.ChaosReport = buildChaosReport(RT, Config, R);
  Result.Report = std::move(R.Report);
  return Result;
}
