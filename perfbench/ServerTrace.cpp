//===--- ServerTrace.cpp - The server workloads ---------------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded request trace from one of the workload zoo's generators (Zipf
/// session popularity, or a request mix that flips mid-run), written and
/// read back through the trace format at set-up, then replayed by
/// replayTrace with 4 statically partitioned mutator threads in a closed
/// loop with no think time, in the same modes as the paper programs:
///
///   - profile: a profiled replay, then rule evaluation over its profile
///     (what Chameleon::profile does for a program);
///   - fixed: an uninstrumented replay with that plan applied (what
///     Chameleon::run does);
///   - online: a replay under the OnlineAdaptor, whose live migrations
///     move the server's long-lived collections. At every epoch barrier a
///     FleetAgent commits captureProcessProfile through an InMemoryHub to
///     an in-process FleetAggregator (no WAL, no disk).
///
/// GC runs only at the barriers, while every worker waits, so barrier work
/// (GC pause and the fleet calls) shows in the epoch time.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "apps/TraceWorkload.h"
#include "apps/WorkloadGen.h"
#include "core/Chameleon.h"
#include "fleet/Agent.h"
#include "fleet/Aggregator.h"
#include "fleet/FleetProfile.h"
#include "fleet/Transport.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <optional>

using namespace chameleon;
using namespace chameleon::apps;
using namespace chameleon::fleet;
using namespace perfbench;

namespace {

constexpr uint32_t MutatorThreads = 4;

/// The fleet pipeline of the online leg: agent -> in-memory hub ->
/// aggregator, all in this process.
struct Fleet {
  InMemoryHub Hub;
  FleetAggregator Agg;
  FleetAgent Agent;
  uint64_t Tick = 0;

  static FleetAggregatorConfig aggregatorConfig() {
    FleetAggregatorConfig C;
    C.PersistEveryUpdates = 1; // no snapshot path: durable in memory
    return C;
  }
  static FleetAgentConfig agentConfig(uint64_t Seed) {
    FleetAgentConfig C;
    C.AgentId = "perfbench";
    C.RunSeed = Seed;
    return C;
  }
  explicit Fleet(uint64_t Seed)
      : Agg(aggregatorConfig()), Agent(agentConfig(Seed), Hub) {}
};

/// Replays \p T once in mode \p Mode on a fresh runtime, timing every
/// epoch at its barrier (and, online, committing the fleet profile there),
/// then runs \p After on the finished runtime.
/// Records the leg's counters into \p P and its checks into \p Checks.
template <typename AfterFn>
void replayLeg(Leg Mode, const Trace &T, const ReplacementPlan &Plan, Fleet *F,
               uint64_t IdBase, PassSample &P, Ledger &Checks, AfterFn After) {
  ReplayConfig RC;
  RC.MutatorThreads = MutatorThreads;
  RC.OnlineAdapt = Mode == OnlineLeg;
  RuntimeConfig Config = traceReplayRuntimeConfig(RC);
  if (Mode == FixedLeg) {
    // Chameleon::run's measurement configuration: no per-instance
    // statistics space, no sampling GCs.
    Config.ObjectInfoSimBytes = 0;
    Config.GcSampleEveryBytes = 0;
  }

  Clock::time_point EpochStart = Clock::now();
  RC.OnEpochBarrier = [&](uint32_t Epoch, CollectionRuntime &RT) {
    const uint64_t Id = IdBase + Epoch;
    const Clock::time_point B0 = Clock::now();
    int32_t EpochSpan = -1;
    if (ActiveSpans) {
      const int64_t Now = ActiveSpans->nowNs();
      EpochSpan = ActiveSpans->openAt(
          "epoch", "apps", Id,
          Now - std::chrono::duration_cast<std::chrono::nanoseconds>(
                    B0 - EpochStart)
                    .count());
    }
    // The barrier's forced collection has just finished.
    const uint64_t PauseNs = RT.heap().cycles().back().DurationNanos;
    if (ActiveSpans) {
      const int64_t Now = ActiveSpans->nowNs();
      ActiveSpans->add("gc", "runtime", Id,
                       Now - static_cast<int64_t>(PauseNs), Now,
                       /*Derived=*/true);
    }
    Clock::time_point F1 = B0, F2 = B0, F3 = B0;
    if (F) {
      ProcessProfile Profile;
      {
        SpanScope S("captureProcessProfile", "fleet", Id);
        Profile = captureProcessProfile(RT.profiler(), Epoch);
      }
      F1 = Clock::now();
      const uint64_t Before = F->Agent.stats().CommittedEpochs;
      {
        SpanScope S("FleetAgent::commitEpoch+pump", "fleet", Id);
        F->Agent.commitEpoch(std::move(Profile));
        F->Agent.pump(F->Tick++);
      }
      Checks.check(F->Agent.stats().CommittedEpochs == Before + 1,
                   "epoch " + std::to_string(Epoch) + " was not committed");
      F2 = Clock::now();
      {
        SpanScope S("FleetAggregator::pump", "fleet", Id);
        for (auto &Conn : F->Hub.acceptAll())
          F->Agg.attach(std::move(Conn));
        F->Agg.pump();
      }
      F3 = Clock::now();
      P.Layer.FleetCaptureMs += secondsBetween(B0, F1) * 1e3;
      P.Layer.FleetCommitMs += secondsBetween(F1, F2) * 1e3;
      P.Layer.FleetAggregateMs += secondsBetween(F2, F3) * 1e3;
    }
    if (ActiveSpans)
      ActiveSpans->close(EpochSpan);
    const double IntervalMs = secondsBetween(EpochStart, F3) * 1e3;
    // Epoch 0 also spans boot and worker start-up; it is not sampled.
    if (Mode == OnlineLeg && Epoch > 0)
      P.EpochMs.push_back(IntervalMs);
    P.Layer.ReplayMutatorMs +=
        IntervalMs - PauseNs / 1e6 - secondsBetween(B0, F3) * 1e3;
    EpochStart = F3;
  };

  std::optional<CollectionRuntime> RT;
  {
    SpanScope S("CollectionRuntime::CollectionRuntime", "collections");
    RT.emplace(Config);
  }
  RT->plan() = Plan;
  ReplayResult R;
  Clock::time_point T0 = Clock::now();
  {
    SpanScope S("replayTrace", "apps");
    EpochStart = T0;
    R = replayTrace(*RT, T, RC);
  }
  const double ReplayS = secondsBetween(T0, Clock::now());

  const char *Name = Mode == ProfileLeg ? "profile"
                     : Mode == FixedLeg ? "fixed"
                                        : "online";
  Checks.check(R.Ok, std::string(Name) + ": replay rejected: " + R.Error);
  std::string HeapError;
  Checks.check(RT->heap().verifyHeap(&HeapError),
               std::string(Name) + ": verifyHeap failed: " + HeapError);
  Checks.check(RT->usesAfterRetire() == 0,
               std::string(Name) + ": uses after retire");
  Checks.check(RT->doubleRetires() == 0,
               std::string(Name) + ": double retires");

  uint64_t GcNs = 0;
  for (const GcCycleRecord &C : RT->heap().cycles()) {
    P.GcPauseUs.push_back(C.DurationNanos / 1e3);
    GcNs += C.DurationNanos;
  }
  P.Layer.addCycles(RT->heap().cycles());
  P.Layer.addRuntime(*RT);
  P.Ops += static_cast<double>(R.Ops);
  P.Layer.ReplayOps += R.Ops;
  P.Layer.ReplayTasks += R.Tasks;
  P.Layer.MutatorMs += ReplayS * 1e3 - GcNs / 1e6;
  After(*RT, R, ReplayS);
}

} // namespace

void perfbench::runServerTrace(const Options &Opt, RunData &Run,
                               const char *Generator) {
  const WorkloadGenerator *Gen = findWorkloadGenerator(Generator);
  assert(Gen && "main passes a zoo generator's name");
  WorkloadGenConfig WC;
  WC.Seed = Opt.Seed;
  WC.Sessions = 1024;
  WC.Epochs = 128;
  WC.RequestsPerEpoch = 512;

  // Set-up: generate the trace, write it, read it back; construct the tool
  // whose rule engine evaluates the profiled replay. Every set-up must
  // produce the same bytes.
  Trace T;
  std::string FirstBytes;
  std::optional<Chameleon> Tool;
  auto Setup = [&] {
    T = Trace(); // one trace in memory at a time
    std::string Bytes, Error;
    bool ReadOk;
    Clock::time_point T0 = Clock::now(), T1, T2, T3, T4;
    {
      Trace Generated;
      {
        SpanScope S("WorkloadGenerator::Generate", "apps");
        Generated = Gen->Generate(WC);
      }
      T1 = Clock::now();
      SpanScope S("writeTrace", "apps");
      Bytes = writeTrace(Generated);
    }
    T2 = Clock::now();
    {
      SpanScope S("readTrace", "apps");
      ReadOk = readTrace(Bytes, T, &Error);
    }
    T3 = Clock::now();
    {
      SpanScope S("Chameleon::Chameleon", "rules");
      Tool.emplace();
    }
    T4 = Clock::now();
    Run.SetupS.push_back(secondsBetween(T0, T4));
    Run.TraceGenerateMs.push_back(secondsBetween(T0, T1) * 1e3);
    Run.TraceWriteMs.push_back(secondsBetween(T1, T2) * 1e3);
    Run.TraceReadMs.push_back(secondsBetween(T2, T3) * 1e3);
    Run.RulesLoadMs.push_back(secondsBetween(T3, T4) * 1e3);
    Run.TraceBytes = Bytes.size();
    Run.Checks.check(ReadOk, "trace read failed: " + Error);
    Run.Checks.check(ReadOk && writeTrace(T) == Bytes,
                     "trace write->read->write is not byte-identical");
    if (FirstBytes.empty())
      FirstBytes = Bytes;
    Run.Checks.check(Bytes == FirstBytes,
                     "trace generation is not deterministic");
  };
  Setup();
  const uint32_t Epochs = T.Header.Epochs;
  std::string FirstReport;

  auto OnePass = [&](PassSample &P, unsigned PassIndex) {
    const uint64_t IdBase = 3ull * PassIndex * Epochs;

    // Profile leg: profiled replay, then rule evaluation over its profile.
    ReplacementPlan Plan;
    Clock::time_point T0 = Clock::now();
    std::string Report;
    replayLeg(ProfileLeg, T, ReplacementPlan(), nullptr, IdBase, P,
              Run.Checks,
              [&](CollectionRuntime &RT, const ReplayResult &R, double) {
                Clock::time_point E0 = Clock::now();
                {
                  SpanScope S("RuleEngine::evaluate", "rules");
                  std::vector<rules::Suggestion> Suggestions =
                      Tool->engine().evaluate(RT.profiler());
                  Plan = rules::RuleEngine::buildPlan(Suggestions);
                  Report = rules::RuleEngine::renderReport(Suggestions);
                  P.Layer.Suggestions += Suggestions.size();
                }
                P.Layer.AnalysisMs += secondsBetween(E0, Clock::now()) * 1e3;
                Report += R.Report;
              });
    P.LegS[ProfileLeg] = secondsBetween(T0, Clock::now());
    if (FirstReport.empty())
      FirstReport = Report;
    Run.Checks.check(Report == FirstReport,
                     "profile report differs between passes");

    // Fixed leg: the plan applied.
    T0 = Clock::now();
    replayLeg(FixedLeg, T, Plan, nullptr, IdBase + Epochs, P, Run.Checks,
              [](CollectionRuntime &, const ReplayResult &, double) {});
    P.LegS[FixedLeg] = secondsBetween(T0, Clock::now());

    // Online leg: live adaptation plus a fleet commit per epoch.
    T0 = Clock::now();
    Fleet F(Opt.Seed);
    replayLeg(
        OnlineLeg, T, ReplacementPlan(), &F, IdBase + 2 * Epochs, P,
        Run.Checks,
        [&](CollectionRuntime &RT, const ReplayResult &R, double) {
          for (const GcCycleRecord &C : RT.heap().cycles())
            P.PeakLiveKib = std::max(P.PeakLiveKib, C.LiveBytes / 1024.0);
          P.Layer.OnlineAllocations += collectionsAllocated(RT);
          // The adaptor lives inside replayTrace; its counters are
          // published in the adapt report.
          unsigned long long Evaluations = 0, Replacements = 0;
          size_t At = R.AdaptReport.find("online: ");
          bool Parsed = At != std::string::npos &&
                        std::sscanf(R.AdaptReport.c_str() + At,
                                    "online: evaluations=%llu "
                                    "replacements=%llu",
                                    &Evaluations, &Replacements) == 2;
          Run.Checks.check(Parsed, "online: adapt report has no counters");
          P.Layer.OnlineEvaluations += Evaluations;
          P.Layer.OnlineReplacements += Replacements;
          Run.Checks.check(R.MigrationsRequested ==
                               R.MigrationsCommitted + R.MigrationsAborted,
                           "online: migrations requested != committed + "
                           "aborted");
          Run.Checks.check(R.MigrationsAborted == 0,
                           "online: " + std::to_string(R.MigrationsAborted) +
                               " migrations aborted");
        });
    F.Agent.pump(F.Tick++); // the last epoch's ack
    const FleetAggregatorStats AS = F.Agg.stats();
    Run.Checks.check(AS.UpdatesApplied == Epochs,
                     "aggregator merged " +
                         std::to_string(AS.UpdatesApplied) + " of " +
                         std::to_string(Epochs) + " epochs");
    Run.Checks.check(F.Agent.drained(), "fleet agent not drained");
    P.Layer.EpochsCommitted += F.Agent.stats().CommittedEpochs;
    P.Layer.UpdatesApplied += AS.UpdatesApplied;
    P.LegS[OnlineLeg] = secondsBetween(T0, Clock::now());
  };
  // A zipf pass takes about 4 s on a 4-vCPU VM and a phase-shift pass
  // about 2.8 s, so each workload's passes fill about --seconds.
  const double NominalPassS = std::strcmp(Generator, "zipf") == 0 ? 5 : 3.5;
  timedPasses(Opt, Run, /*InitialSetups=*/1, NominalPassS, Setup, OnePass);

  char Shape[160];
  std::snprintf(Shape, sizeof(Shape),
                "trace: %s, seed %" PRIu64 ", %u sessions x %u epochs x %u "
                "requests, %u mutator threads",
                Gen->Name, Opt.Seed, WC.Sessions, WC.Epochs, WC.RequestsPerEpoch,
                MutatorThreads);
  Run.Notes.push_back(Shape);
  Run.Notes.push_back("epoch = one barrier interval of the online replay "
                      "(epoch 0 excluded)");
  Run.Notes.push_back("ops = trace ops of all three replays");
}
