//===--- micro_trace_replay.cpp - Trace engine costs ------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cost side of the trace execution engine (DESIGN.md §14). Four
/// measurements, each the median of 5 runs (3 with `--quick`) reported
/// with its min and max:
///
///  1. ServerSim wall time (`sim_ms`): one `runServerSim` at 1 mutator
///     thread — generate the request stream as a trace, validate it, and
///     replay it.
///  2. Armed recording overhead: the same run with a TraceCapture armed,
///     so the replay re-records every executed op. Recording is a
///     diagnostic mode — record once, replay many — so this is a
///     trajectory number, not a budget.
///  3. Replay throughput: ops/s replaying the recorded trace at 1 and 4
///     threads.
///  4. Serialization rates a soak loop pays (write/read MiB/s).
///
/// `--json <path>` (or CHAMELEON_BENCH_JSON) writes the BENCH_trace.json
/// perf-trajectory record; `--quick` shrinks the run for CI.
///
//===----------------------------------------------------------------------===//

#include "apps/ServerSim.h"
#include "apps/TraceFormat.h"
#include "apps/TraceWorkload.h"
#include "support/Format.h"

#include "BenchJson.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

using namespace chameleon;
using namespace chameleon::apps;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// One mutator thread: the record-overhead pair must not be polluted by
/// scheduler churn when cores are scarce; replay throughput measures its
/// own thread counts explicitly.
ServerSimConfig benchSimConfig(bool Quick) {
  ServerSimConfig Config;
  Config.MutatorThreads = 1;
  Config.Sessions = 16;
  Config.Epochs = Quick ? 2 : 4;
  Config.RequestsPerEpoch = Quick ? 600 : 4800;
  return Config;
}

/// Median of a sample set, with its extremes.
struct Spread {
  double Median = 0;
  double Min = 0;
  double Max = 0;
};

Spread spreadOf(std::vector<double> Samples) {
  std::sort(Samples.begin(), Samples.end());
  return {Samples[Samples.size() / 2], Samples.front(), Samples.back()};
}

/// Runs \p Fn \p Reps times; \p Fn returns one sample.
template <typename FnT> Spread measure(int Reps, FnT Fn) {
  std::vector<double> Samples;
  for (int I = 0; I < Reps; ++I)
    Samples.push_back(Fn());
  return spreadOf(std::move(Samples));
}

/// Milliseconds of one ServerSim run, optionally recording.
double simMs(const ServerSimConfig &Base, TraceCapture *Capture) {
  ServerSimConfig Config = Base;
  Config.RecordTo = Capture;
  CollectionRuntime RT(serverSimRuntimeConfig());
  Clock::time_point Start = Clock::now();
  runServerSim(RT, Config);
  return secondsSince(Start) * 1e3;
}

/// Ops/s of one replay of \p T at \p Threads.
double replayOpsPerSec(const Trace &T, uint32_t Threads) {
  ReplayConfig Config;
  Config.MutatorThreads = Threads;
  CollectionRuntime RT(traceReplayRuntimeConfig(Config));
  Clock::time_point Start = Clock::now();
  ReplayResult R = replayTrace(RT, T, Config);
  double Secs = secondsSince(Start);
  if (!R.Ok) {
    std::fprintf(stderr, "replay failed: %s\n", R.Error.c_str());
    std::exit(1);
  }
  return static_cast<double>(R.Ops) / Secs;
}

std::vector<std::string> row(const std::string &Name, const Spread &S,
                             int Decimals) {
  return {Name, formatDouble(S.Median, Decimals), formatDouble(S.Min, Decimals),
          formatDouble(S.Max, Decimals)};
}

void addSpread(bench::JsonDoc &Json, const std::string &Key,
               const Spread &S) {
  Json.field(Key, S.Median);
  Json.field(Key + "_min", S.Min);
  Json.field(Key + "_max", S.Max);
}

} // namespace

int main(int argc, char **argv) {
  bool Quick = false;
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--quick") == 0)
      Quick = true;

  const int Reps = Quick ? 3 : 5;
  const unsigned Cores = std::thread::hardware_concurrency();
  ServerSimConfig Base = benchSimConfig(Quick);

  std::printf("== micro: ServerSim, trace record & replay ==\n");
  std::printf("host cores: %u, %d runs per figure, %u sessions x %u epochs x"
              " %u requests\n\n",
              Cores, Reps, Base.Sessions, Base.Epochs, Base.RequestsPerEpoch);

  // Warm-up run (first-touch allocator and page costs land here).
  (void)simMs(Base, nullptr);

  Spread Sim = measure(Reps, [&] { return simMs(Base, nullptr); });
  Spread Recording = measure(Reps, [&] {
    TraceCapture Capture;
    double Ms = simMs(Base, &Capture);
    (void)Capture.finish();
    return Ms;
  });
  double RecordOverheadPct = (Recording.Median / Sim.Median - 1.0) * 100.0;

  // One recorded trace feeds the replay and serialization measurements.
  TraceCapture Capture;
  (void)simMs(Base, &Capture);
  Trace T = Capture.finish();

  Spread Replay1 = measure(Reps, [&] { return replayOpsPerSec(T, 1); });
  Spread Replay4 = measure(Reps, [&] { return replayOpsPerSec(T, 4); });

  std::string Bytes = writeTrace(T);
  const double Mb = static_cast<double>(Bytes.size()) / (1024.0 * 1024.0);
  Spread Write = measure(Reps, [&] {
    Clock::time_point Start = Clock::now();
    std::string Out = writeTrace(T);
    return Mb / secondsSince(Start);
  });
  Spread Read = measure(Reps, [&] {
    Trace Back;
    Clock::time_point Start = Clock::now();
    if (!readTrace(Bytes, Back)) {
      std::fprintf(stderr, "re-read of the serialized trace failed\n");
      std::exit(1);
    }
    return Mb / secondsSince(Start);
  });

  TextTable Table({"measurement", "median", "min", "max"});
  Table.addRow(row("sim ms (generate+validate+replay)", Sim, 2));
  Table.addRow(row("sim ms, recording", Recording, 2));
  Table.addRow(row("replay ops/s (1 thread)", Replay1, 0));
  Table.addRow(row("replay ops/s (4 threads)", Replay4, 0));
  Table.addRow(row("serialize MiB/s", Write, 1));
  Table.addRow(row("deserialize MiB/s", Read, 1));
  std::printf("%s\n", Table.render().c_str());
  std::printf("recording adds %s%% to a ServerSim run; trace size %s MiB\n",
              formatDouble(RecordOverheadPct, 1).c_str(),
              formatDouble(Mb, 2).c_str());

  bench::JsonDoc Json;
  Json.field("bench", "micro_trace_replay");
  bench::addProvenance(Json);
  Json.field("cores", static_cast<uint64_t>(Cores));
  Json.field("runs", static_cast<uint64_t>(Reps));
  Json.field("sessions", static_cast<uint64_t>(Base.Sessions));
  Json.field("epochs", static_cast<uint64_t>(Base.Epochs));
  Json.field("requests_per_epoch",
             static_cast<uint64_t>(Base.RequestsPerEpoch));
  addSpread(Json, "sim_ms", Sim);
  addSpread(Json, "sim_ms_recording", Recording);
  Json.field("record_overhead_pct", RecordOverheadPct);
  Json.field("trace_bytes", static_cast<uint64_t>(Bytes.size()));
  addSpread(Json, "write_mib_per_sec", Write);
  addSpread(Json, "read_mib_per_sec", Read);
  for (const auto &[Threads, S] : {std::pair{1u, Replay1}, {4u, Replay4}}) {
    Json.beginRecord("replay_throughput");
    Json.record("threads", static_cast<uint64_t>(Threads));
    Json.record("ops_per_sec", S.Median);
    Json.record("ops_per_sec_min", S.Min);
    Json.record("ops_per_sec_max", S.Max);
  }

  std::string JsonPath = bench::jsonOutputPath(argc, argv);
  if (!JsonPath.empty()) {
    if (!Json.write(JsonPath)) {
      std::fprintf(stderr, "failed to write %s\n", JsonPath.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", JsonPath.c_str());
  }
  return 0;
}
