//===--- TraceWorkload.cpp - Trace record & replay engine -----------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "apps/TraceWorkload.h"

#include "obs/Metrics.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "support/FaultInjector.h"
#include "support/Format.h"
#include "support/SplitMix64.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <thread>

using namespace chameleon;
using namespace chameleon::apps;

// -- TraceCapture ----------------------------------------------------------

void TraceCapture::begin(TraceHeader H) {
  std::lock_guard<std::mutex> L(Mu);
  Active = true;
  Header = std::move(H);
  Boot.reset();
  Epochs.clear();
  Epochs.resize(Header.Epochs);
}

void TraceCapture::addTask(uint32_t Epoch, TraceTask Task) {
  std::lock_guard<std::mutex> L(Mu);
  if (!Active)
    return;
  if (Epoch == BootEpoch) {
    Boot = std::move(Task);
    return;
  }
  if (Epoch < Epochs.size())
    Epochs[Epoch].push_back(std::move(Task));
}

Trace TraceCapture::finish() {
  std::lock_guard<std::mutex> L(Mu);
  Active = false;
  Trace T;
  T.Header = std::move(Header);
  T.Boot = std::move(Boot);
  // Canonical task-id order per epoch, independent of how the recording
  // run's worker threads interleaved their submissions.
  for (std::vector<TraceTask> &Epoch : Epochs)
    std::sort(Epoch.begin(), Epoch.end(),
              [](const TraceTask &A, const TraceTask &B) {
                return A.Id < B.Id;
              });
  T.Epochs = std::move(Epochs);
  Boot.reset();
  Epochs.clear();
  return T;
}

// -- Replay ----------------------------------------------------------------

namespace {

constexpr uint64_t Gamma = 0x9E3779B97F4A7C15ULL;

// How long each worker stays parked per epoch barrier (timing only).
CHAM_METRIC_HDR(BarrierParkHdrNanos, "cham.server.barrier_park_hdr_nanos");

/// Epoch barrier, run by the workers themselves (DESIGN.md §14.2): each
/// parks in a GcSafeRegion and counts itself in; the last to arrive runs
/// the barrier body, then advances the generation, which releases the
/// others. Parked workers help the barrier's collection on the heap's job
/// board.
struct ReplayBarrier {
  std::atomic<uint32_t> Arrived{0};
  std::atomic<uint64_t> Generation{0};
};

/// Run state shared with the workers. Globals are rooted by main-thread
/// handles for the whole run; after boot, workers only read this.
struct ReplayShared {
  const Trace &T;
  uint32_t Threads = 1;
  std::vector<FrameId> Frames;
  std::vector<ObjectRef> GlobalRefs;
  std::vector<AdtKind> GlobalAdts;
  std::vector<uint8_t> GlobalLive;
  TraceCapture *Capture = nullptr;
};

/// Randomized fault plan for one chaos run, derived entirely from the seed
/// so a failing run replays from its printed seed.
FaultPlan replayChaosPlan(uint64_t Seed) {
  SplitMix64 Rng(Seed ^ Gamma);
  FaultPlan Plan;
  Plan.Seed = Seed;
  // Forced collections at adversarial allocation instants.
  Plan.Rules.push_back({"gc.alloc", FaultAction::ForceGc, /*NthHit=*/0,
                        0.0005 + 0.002 * Rng.nextDouble(), ~0ull});
  // Injected failures inside the migration transaction machinery itself.
  Plan.Rules.push_back({"migrate.*", FaultAction::FailAlloc, /*NthHit=*/0,
                        0.05 + 0.25 * Rng.nextDouble(), ~0ull});
  // ...and in the allocations a shadow build performs. Outside a migration
  // FailScope these matches are counted as suppressed, never thrown.
  Plan.Rules.push_back({"*.reserve", FaultAction::FailAlloc, /*NthHit=*/0,
                        0.01 + 0.05 * Rng.nextDouble(), ~0ull});
  return Plan;
}

/// Uncounted size read, for the interpreter's index guards: goes straight
/// to the backing implementation so the guard itself never perturbs the
/// replayed op profile.
uint32_t rawSize(CollectionRuntime &RT, const CollectionHandleBase &H) {
  const CollectionObject &W =
      RT.heap().getAs<CollectionObject>(H.wrapperRef());
  return RT.heap().getAs<CollectionImplBase>(W.Impl).size();
}

/// One thread's register file, allocated once per replay: handle slots for
/// the global registers and the temp registers. A task adopts the globals
/// it touches lazily and `endTask` drops exactly the roots the task took,
/// so a task costs in proportion to its ops, not to the register count.
/// The boot file's globals are allocations, not adoptions: they stay
/// rooted for the whole run.
struct RegisterFile {
  std::vector<List> GL;
  std::vector<Set> GS;
  std::vector<Map> GM;
  /// Global slots the current task adopted, in adoption order.
  std::vector<uint32_t> Adopted;
  std::vector<List> TL;
  std::vector<Set> TS;
  std::vector<Map> TM;
  std::vector<AdtKind> TempAdt;
  /// One past the highest temp slot the current task allocated.
  uint32_t TempsUsed = 0;

  explicit RegisterFile(uint32_t Globals)
      : GL(Globals), GS(Globals), GM(Globals) {}

  /// Drops the current task's adoptions and temps (a validated task has
  /// retired every temp already; resetting them keeps the file clean
  /// regardless).
  void endTask() {
    for (uint32_t Slot : Adopted) {
      GL[Slot] = List();
      GS[Slot] = Set();
      GM[Slot] = Map();
    }
    Adopted.clear();
    for (uint32_t Slot = 0; Slot < TempsUsed; ++Slot) {
      TL[Slot] = List();
      TS[Slot] = Set();
      TM[Slot] = Map();
    }
    TempsUsed = 0;
  }
};

/// Executes one task's ops on \p R (the main thread's boot file during
/// boot, the worker's own file otherwise), then ends the task on it.
/// Returns the op count executed.
uint64_t executeTask(CollectionRuntime &RT, ReplayShared &S,
                     const TraceTask &TT, uint32_t Epoch, bool IsBoot,
                     RegisterFile &R) {
  SemanticProfiler &Prof = RT.profiler();
  CHAM_TRACE_SPAN_ARG("server", "request", "task", TT.Id);
  Prof.setCurrentTask(TT.Id);
  CallFrame Frame(Prof, S.Frames[TT.FrameIdx]);

  std::vector<List> &GL = R.GL;
  std::vector<Set> &GS = R.GS;
  std::vector<Map> &GM = R.GM;
  std::vector<List> &TL = R.TL;
  std::vector<Set> &TS = R.TS;
  std::vector<Map> &TM = R.TM;
  std::vector<AdtKind> &TempAdt = R.TempAdt;

  TaskTrace Rec;
  const bool Recording = S.Capture != nullptr;
  if (Recording) {
    Rec.Task.Id = TT.Id;
    Rec.Task.Session = TT.Session;
    Rec.Task.FrameIdx = TT.FrameIdx;
    Rec.Task.Ops.reserve(TT.Ops.size());
  }

  auto adtOf = [&](const TraceOp &Op) {
    return traceRegIsTemp(Op.Target) ? TempAdt[traceRegSlot(Op.Target)]
                                     : S.GlobalAdts[traceRegSlot(Op.Target)];
  };
  auto listAt = [&](const TraceOp &Op) -> List & {
    uint32_t Slot = traceRegSlot(Op.Target);
    if (traceRegIsTemp(Op.Target))
      return TL[Slot];
    if (GL[Slot].isNull()) {
      GL[Slot] = RT.adoptList(S.GlobalRefs[Slot]);
      R.Adopted.push_back(Slot);
    }
    return GL[Slot];
  };
  auto setAt = [&](const TraceOp &Op) -> Set & {
    uint32_t Slot = traceRegSlot(Op.Target);
    if (traceRegIsTemp(Op.Target))
      return TS[Slot];
    if (GS[Slot].isNull()) {
      GS[Slot] = RT.adoptSet(S.GlobalRefs[Slot]);
      R.Adopted.push_back(Slot);
    }
    return GS[Slot];
  };
  auto mapAt = [&](const TraceOp &Op) -> Map & {
    uint32_t Slot = traceRegSlot(Op.Target);
    if (traceRegIsTemp(Op.Target))
      return TM[Slot];
    if (GM[Slot].isNull()) {
      GM[Slot] = RT.adoptMap(S.GlobalRefs[Slot]);
      R.Adopted.push_back(Slot);
    }
    return GM[Slot];
  };
  auto iv = [](int64_t V) { return Value::ofInt(V); };

  for (const TraceOp &Op : TT.Ops) {
    const uint32_t Slot = traceRegSlot(Op.Target);
    switch (Op.Code) {
    case TraceOpCode::Alloc: {
      FrameId Site = S.Frames[Op.SiteIdx];
      if (traceRegIsTemp(Op.Target)) {
        if (Slot >= TempAdt.size()) {
          TL.resize(Slot + 1);
          TS.resize(Slot + 1);
          TM.resize(Slot + 1);
          TempAdt.resize(Slot + 1, AdtKind::List);
        }
        R.TempsUsed = std::max(R.TempsUsed, Slot + 1);
        TempAdt[Slot] = Op.Adt;
        switch (Op.Adt) {
        case AdtKind::List:
          TL[Slot] = RT.newListOf(Op.Impl, Site, Op.Capacity);
          break;
        case AdtKind::Set:
          TS[Slot] = RT.newSetOf(Op.Impl, Site, Op.Capacity);
          break;
        case AdtKind::Map:
          TM[Slot] = RT.newMapOf(Op.Impl, Site, Op.Capacity);
          break;
        }
      } else {
        // validateTrace guarantees this only happens during boot, so the
        // shared tables are still main-thread-private here.
        switch (Op.Adt) {
        case AdtKind::List:
          GL[Slot] = RT.newListOf(Op.Impl, Site, Op.Capacity);
          S.GlobalRefs[Slot] = GL[Slot].wrapperRef();
          break;
        case AdtKind::Set:
          GS[Slot] = RT.newSetOf(Op.Impl, Site, Op.Capacity);
          S.GlobalRefs[Slot] = GS[Slot].wrapperRef();
          break;
        case AdtKind::Map:
          GM[Slot] = RT.newMapOf(Op.Impl, Site, Op.Capacity);
          S.GlobalRefs[Slot] = GM[Slot].wrapperRef();
          break;
        }
        S.GlobalAdts[Slot] = Op.Adt;
        S.GlobalLive[Slot] = 1;
      }
      break;
    }
    case TraceOpCode::Retire:
      switch (TempAdt[Slot]) {
      case AdtKind::List:
        TL[Slot].retire();
        break;
      case AdtKind::Set:
        TS[Slot].retire();
        break;
      case AdtKind::Map:
        TM[Slot].retire();
        break;
      }
      break;
    case TraceOpCode::MapPut:
      mapAt(Op).put(iv(Op.A), iv(Op.B));
      break;
    case TraceOpCode::MapGet:
      (void)mapAt(Op).get(iv(Op.A));
      break;
    case TraceOpCode::MapContainsKey:
      (void)mapAt(Op).containsKey(iv(Op.A));
      break;
    case TraceOpCode::MapRemove:
      (void)mapAt(Op).remove(iv(Op.A));
      break;
    case TraceOpCode::ListAdd:
      listAt(Op).add(iv(Op.A));
      break;
    case TraceOpCode::ListAddAt: {
      List &L = listAt(Op);
      uint64_t N = rawSize(RT, L);
      L.add(static_cast<uint32_t>(static_cast<uint64_t>(Op.A) % (N + 1)),
            iv(Op.B));
      break;
    }
    case TraceOpCode::ListGet: {
      List &L = listAt(Op);
      uint64_t N = rawSize(RT, L);
      if (N)
        (void)L.get(static_cast<uint32_t>(static_cast<uint64_t>(Op.A) % N));
      break;
    }
    case TraceOpCode::ListSet: {
      List &L = listAt(Op);
      uint64_t N = rawSize(RT, L);
      if (N)
        (void)L.set(static_cast<uint32_t>(static_cast<uint64_t>(Op.A) % N),
                    iv(Op.B));
      break;
    }
    case TraceOpCode::ListRemoveAt: {
      List &L = listAt(Op);
      uint64_t N = rawSize(RT, L);
      if (N)
        (void)L.removeAt(
            static_cast<uint32_t>(static_cast<uint64_t>(Op.A) % N));
      break;
    }
    case TraceOpCode::ListRemoveFirst: {
      List &L = listAt(Op);
      if (rawSize(RT, L))
        (void)L.removeFirst();
      break;
    }
    case TraceOpCode::ListContains:
      (void)listAt(Op).contains(iv(Op.A));
      break;
    case TraceOpCode::SetAdd:
      (void)setAt(Op).add(iv(Op.A));
      break;
    case TraceOpCode::SetContains:
      (void)setAt(Op).contains(iv(Op.A));
      break;
    case TraceOpCode::SetRemove:
      (void)setAt(Op).remove(iv(Op.A));
      break;
    case TraceOpCode::Size:
      switch (adtOf(Op)) {
      case AdtKind::List:
        (void)listAt(Op).size();
        break;
      case AdtKind::Set:
        (void)setAt(Op).size();
        break;
      case AdtKind::Map:
        (void)mapAt(Op).size();
        break;
      }
      break;
    case TraceOpCode::Clear:
      switch (adtOf(Op)) {
      case AdtKind::List:
        listAt(Op).clear();
        break;
      case AdtKind::Set:
        setAt(Op).clear();
        break;
      case AdtKind::Map:
        mapAt(Op).clear();
        break;
      }
      break;
    }
    if (Recording)
      Rec.Task.Ops.push_back(Op);
  }
  if (Recording)
    S.Capture->addTask(IsBoot ? TraceCapture::BootEpoch : Epoch,
                       std::move(Rec.Task));
  R.endTask();
  return TT.Ops.size();
}

/// The calling thread's CPU time.
uint64_t threadCpuNanos() {
  timespec Ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ull
         + static_cast<uint64_t>(Ts.tv_nsec);
}

/// Worker body: session s belongs to worker s % Threads, tasks run in
/// trace order, and every epoch ends at the barrier.
void replayWorker(CollectionRuntime &RT, ReplayShared &S, ReplayBarrier &B,
                  const ReplayConfig &Config, uint32_t Tid,
                  ReplayWorkerStats &Out) {
  MutatorScope Scope(RT);
  GcHelperSeat Seat(RT.heap());
  uint64_t Ops = 0;
  // Every task adopts afresh and drops what it adopted at its end
  // (adoption is uncounted, so this is free with respect to the profile).
  RegisterFile Regs(static_cast<uint32_t>(S.GlobalRefs.size()));
  for (uint32_t Epoch = 0; Epoch < S.T.Epochs.size(); ++Epoch) {
    for (const TraceTask &Task : S.T.Epochs[Epoch]) {
      if (Task.Session % S.Threads != Tid)
        continue;
      Ops += executeTask(RT, S, Task, Epoch, /*IsBoot=*/false, Regs);
    }
    bool Last;
    {
      GcSafeRegion Region(RT.heap());
      const uint64_t Gen = B.Generation.load(std::memory_order_acquire);
      Last = B.Arrived.fetch_add(1, std::memory_order_acq_rel) + 1
             == S.Threads;
      if (!Last) {
        const auto ParkStart = std::chrono::steady_clock::now();
        Seat.park([&] {
          return B.Generation.load(std::memory_order_acquire) != Gen;
        });
        BarrierParkHdrNanos.observe(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - ParkStart)
                .count()));
      }
    }
    if (!Last)
      continue;
    // Every other worker is parked: this thread owns the barrier.
    CHAM_TRACE_SPAN_ARG("server", "epoch_barrier", "epoch", Epoch);
    RT.flushMutatorStatistics();
    RT.heap().collect(/*Forced=*/true);
    if (Config.OnEpochBarrier)
      Config.OnEpochBarrier(Epoch, RT);
    B.Arrived.store(0, std::memory_order_relaxed);
    B.Generation.fetch_add(1, std::memory_order_release);
    RT.heap().wakeHelpers();
  }
  Out.Ops = Ops;
  Out.CpuNanos = threadCpuNanos();
}

/// The deterministic profiling report: the GC cycle records (without
/// wall-clock durations) plus canonically-ordered context statistics.
/// Call after the final forced GC and harvestLiveStatistics().
std::string buildServerSimReport(CollectionRuntime &RT, uint32_t Sessions,
                                 uint32_t Epochs, uint64_t Requests) {
  SemanticProfiler &Prof = RT.profiler();
  std::string Out;
  appendf(Out, "ServerSim: sessions=%u epochs=%u requests=%llu\n", Sessions,
          Epochs, static_cast<unsigned long long>(Requests));
  Out += "gc cycles:\n";
  for (const GcCycleRecord &Rec : RT.heap().cycles())
    appendf(Out,
            "  cycle %llu forced=%d live=%llu objects=%llu collLive=%llu "
            "collUsed=%llu collCore=%llu collObjects=%llu freed=%llu "
            "freedObjects=%llu\n",
            static_cast<unsigned long long>(Rec.Cycle), Rec.Forced ? 1 : 0,
            static_cast<unsigned long long>(Rec.LiveBytes),
            static_cast<unsigned long long>(Rec.LiveObjects),
            static_cast<unsigned long long>(Rec.CollectionLiveBytes),
            static_cast<unsigned long long>(Rec.CollectionUsedBytes),
            static_cast<unsigned long long>(Rec.CollectionCoreBytes),
            static_cast<unsigned long long>(Rec.CollectionObjects),
            static_cast<unsigned long long>(Rec.FreedBytes),
            static_cast<unsigned long long>(Rec.FreedObjects));
  Out += "contexts:\n";
  for (const ContextInfo *Ctx : Prof.contexts())
    appendf(Out,
            "  %s: allocs=%llu folded=%llu allOps=%.6g maxSize=%.6g "
            "finalSize=%.6g initCap=%.6g totLive=%llu totUsed=%llu\n",
            Prof.contextLabel(*Ctx).c_str(),
            static_cast<unsigned long long>(Ctx->allocations()),
            static_cast<unsigned long long>(Ctx->foldedInstances()),
            Ctx->avgAllOps(), Ctx->maxSizeStat().mean(),
            Ctx->finalSizeStat().mean(), Ctx->initialCapacityStat().mean(),
            static_cast<unsigned long long>(Ctx->liveData().total()),
            static_cast<unsigned long long>(Ctx->usedData().total()));
  return Out;
}

std::string buildAdaptReport(CollectionRuntime &RT,
                             const OnlineAdaptor *Adaptor,
                             const ReplayConfig &Config,
                             const ReplayResult &Result) {
  std::string Out;
  appendf(Out, "adapt: revise=%u chaos=%d chaosSeed=0x%llx softLimit=%llu\n",
          Config.OnlineRevisePeriod, Config.Chaos ? 1 : 0,
          static_cast<unsigned long long>(Config.ChaosSeed),
          static_cast<unsigned long long>(Config.ChaosSoftHeapLimitBytes));
  if (Adaptor)
    appendf(Out,
            "online: evaluations=%llu replacements=%llu requested=%llu "
            "committed=%llu aborted=%llu pinned=%llu\n",
            static_cast<unsigned long long>(Adaptor->evaluations()),
            static_cast<unsigned long long>(Adaptor->replacements()),
            static_cast<unsigned long long>(Adaptor->migrationsRequested()),
            static_cast<unsigned long long>(Adaptor->migrationsCommitted()),
            static_cast<unsigned long long>(Adaptor->migrationsAborted()),
            static_cast<unsigned long long>(Adaptor->pinnedContexts()));
  appendf(Out, "migrations: attempts=%llu commits=%llu aborts=%llu\n",
          static_cast<unsigned long long>(RT.migrationAttempts()),
          static_cast<unsigned long long>(RT.migrationCommits()),
          static_cast<unsigned long long>(RT.migrationAborts()));
  Out += "globals:";
  for (const auto &[Impl, Count] : Result.GlobalBackings)
    appendf(Out, " %s=%u", implKindName(Impl), Count);
  Out += "\n";
  if (Config.Chaos) {
    FaultStats FS = FaultInjector::instance().stats();
    appendf(Out,
            "faults: hits=%llu thrown=%llu forcedGcs=%llu suppressed=%llu\n",
            static_cast<unsigned long long>(FS.Hits),
            static_cast<unsigned long long>(FS.AllocFailuresThrown),
            static_cast<unsigned long long>(FS.ForcedGcs),
            static_cast<unsigned long long>(FS.SuppressedFailures));
    ProfilerDegradationStats D = RT.profiler().degradationStats();
    appendf(Out,
            "events: notedAllocs=%llu foldedAllocs=%llu droppedAllocs=%llu "
            "notedDeaths=%llu foldedDeaths=%llu droppedDeaths=%llu\n",
            static_cast<unsigned long long>(D.NotedAllocs),
            static_cast<unsigned long long>(D.FoldedAllocs),
            static_cast<unsigned long long>(D.DroppedAllocs),
            static_cast<unsigned long long>(D.NotedDeaths),
            static_cast<unsigned long long>(D.FoldedDeaths),
            static_cast<unsigned long long>(D.DroppedDeaths));
  }
  return Out;
}

} // namespace

RuntimeConfig chameleon::apps::traceReplayRuntimeConfig(
    const ReplayConfig &Config) {
  RuntimeConfig RC;
  RC.Profiler.ConcurrentMutators = true;
  RC.Profiler.SamplingPeriod = 1; // exact: no per-thread sampling drift
  RC.HeapLimitBytes = 0;          // GC only at the epoch barriers
  RC.GcSampleEveryBytes = 0;
  RC.OnlineRevisePeriod = Config.OnlineRevisePeriod;
  return RC;
}

ReplayResult chameleon::apps::replayTrace(CollectionRuntime &RT,
                                          const Trace &T,
                                          const ReplayConfig &Config) {
  ReplayResult Result;
  if (!validateTrace(T, &Result.Error))
    return Result;

  SemanticProfiler &Prof = RT.profiler();
  const bool Telemetry = !Config.TelemetryOutDir.empty();
  if (Telemetry)
    obs::TraceRecorder::instance().arm();
  Prof.enableConcurrentMutators();

  // Optional adversarial machinery, scoped to this replay.
  std::optional<rules::RuleEngine> Engine;
  std::optional<OnlineAdaptor> Adaptor;
  if (Config.OnlineAdapt) {
    Engine.emplace();
    Engine->addBuiltinRules();
    Adaptor.emplace(*Engine, Prof, Config.Online);
    RT.setOnlineSelector(&*Adaptor);
  }
  if (Config.Chaos) {
    RT.heap().setSoftHeapLimit(Config.ChaosSoftHeapLimitBytes);
    FaultInjector::instance().arm(replayChaosPlan(Config.ChaosSeed));
  }

  ReplayShared S{T,  1,  {}, {}, {}, {}, Config.RecordTo};
  S.Threads = Config.MutatorThreads ? Config.MutatorThreads : 1;
  if (S.Capture)
    S.Capture->begin(T.Header);
  // Intern the frame table in recorded order, on the main thread, before
  // anything else touches the profiler: this pins every FrameId — and so
  // every context identity — to the recording run's values.
  S.Frames.reserve(T.Header.Frames.size());
  for (const std::string &Label : T.Header.Frames)
    S.Frames.push_back(Prof.internFrame(Label));
  S.GlobalRefs.resize(T.Header.Globals);
  S.GlobalAdts.assign(T.Header.Globals, AdtKind::List);
  S.GlobalLive.assign(T.Header.Globals, 0);

  // Boot on the main thread; its file's handles root the global registers
  // for the whole run.
  RegisterFile BootRegs(T.Header.Globals);
  uint64_t MainOps = 0;
  if (T.Boot)
    MainOps += executeTask(RT, S, *T.Boot, 0, /*IsBoot=*/true, BootRegs);

  // The workers run every epoch barrier themselves; this thread only
  // waits for them.
  ReplayBarrier B;
  Result.Workers.resize(S.Threads);
  std::vector<std::thread> Workers;
  Workers.reserve(S.Threads);
  for (uint32_t Tid = 0; Tid < S.Threads; ++Tid)
    Workers.emplace_back([&, Tid] {
      replayWorker(RT, S, B, Config, Tid, Result.Workers[Tid]);
    });
  for (std::thread &W : Workers)
    W.join();

  RT.harvestLiveStatistics();

  Result.Tasks = T.taskCount();
  Result.Ops = MainOps;
  for (const ReplayWorkerStats &W : Result.Workers)
    Result.Ops += W.Ops;
  if (Config.Chaos)
    FaultInjector::instance().disarm(); // stats survive for the report
  if (Adaptor) {
    Result.MigrationsRequested = Adaptor->migrationsRequested();
    Result.MigrationsCommitted = Adaptor->migrationsCommitted();
    Result.MigrationsAborted = Adaptor->migrationsAborted();
    Result.PinnedContexts = Adaptor->pinnedContexts();
  }
  {
    std::vector<uint32_t> Census(NumImplKinds, 0);
    for (uint32_t Slot = 0; Slot < T.Header.Globals; ++Slot) {
      if (!S.GlobalLive[Slot])
        continue;
      const CollectionObject &W =
          RT.heap().getAs<CollectionObject>(S.GlobalRefs[Slot]);
      if (W.CustomId < 0)
        ++Census[implIndex(W.CurrentImpl)];
    }
    for (unsigned I = 0; I < NumImplKinds; ++I)
      if (Census[I])
        Result.GlobalBackings.emplace_back(static_cast<ImplKind>(I),
                                           Census[I]);
  }
  if (Config.OnlineAdapt || Config.Chaos)
    Result.AdaptReport =
        buildAdaptReport(RT, Adaptor ? &*Adaptor : nullptr, Config, Result);
  Result.Report = buildServerSimReport(RT, T.Header.Sessions,
                                       T.Header.Epochs, T.Header.Requests);

  // Teardown in reverse arming order.
  if (Config.Chaos)
    RT.heap().setSoftHeapLimit(0);
  if (Config.OnlineAdapt)
    RT.setOnlineSelector(nullptr);
  if (Telemetry) {
    obs::TraceRecorder::instance().disarm();
    std::string Error;
    if (!obs::Telemetry::writeTelemetryDir(Config.TelemetryOutDir, "cham.",
                                           &Error))
      std::fprintf(stderr, "[telemetry] export failed: %s\n", Error.c_str());
  }
  Result.Ok = true;
  return Result;
}
