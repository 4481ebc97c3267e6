//===--- ServerSim.h - Multi-threaded server workload ----------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A multi-threaded server simulacrum exercising the concurrent-mutator
/// support (DESIGN.md §9): a deterministic stream of requests against
/// shared per-session state (an attribute map and a bounded history list
/// per session) that allocate, use, and retire request-scoped collections.
///
/// runServerSim generates the stream as a trace — a boot task plus one
/// task per request, with the ops that depend on collection contents
/// derived from a per-session model — and runs it through `replayTrace`
/// (TraceWorkload.h) on N mutator threads. Epochs end at the replay's
/// quiescent barrier, where ServerSim's own barrier work (chaos migration
/// storm, ledger pass, flight-recorder checkpoint, ticker) runs in the
/// OnEpochBarrier hook.
///
/// The workload is *statically partitioned*: a session's requests are
/// handled by exactly one worker, in request order, and every request
/// carries a globally unique task id. Together with exact sampling and
/// the profiler's canonical context ordering this makes the profiling
/// report byte-identical for any MutatorThreads count — the property
/// ServerSimTest locks in.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_APPS_SERVERSIM_H
#define CHAMELEON_APPS_SERVERSIM_H

#include "collections/Handles.h"

#include <cstdint>
#include <string>

namespace chameleon::apps {

class TraceCapture;

/// Server simulacrum parameters.
struct ServerSimConfig {
  uint64_t Seed = 0x5E21;
  /// Worker (mutator) threads handling requests.
  uint32_t MutatorThreads = 4;
  /// Epochs; each ends with a quiescent barrier and a forced GC.
  uint32_t Epochs = 3;
  /// Requests per epoch, spread over the sessions round-robin.
  uint32_t RequestsPerEpoch = 240;
  /// Long-lived sessions, each with an attribute map and history list.
  uint32_t Sessions = 16;
  /// History entries kept per session before the oldest is dropped.
  uint32_t HistoryBound = 32;

  /// Chaos mode: for the duration of the run, arm the fault injector with
  /// a randomized plan derived from ChaosSeed (forced GCs at allocation,
  /// injected failures inside live migrations), install the builtin rule
  /// engine behind an OnlineAdaptor so migrations actually happen, and set
  /// a soft heap limit so the degradation path exercises. The run must
  /// survive — aborted migrations roll back, shed events are counted —
  /// and the fault/migration/degradation accounting is returned in
  /// ServerSimResult::ChaosReport (kept out of Report, whose byte-identity
  /// across thread counts is only guaranteed with Chaos off).
  bool Chaos = false;
  /// Seed of the randomized fault plan; print it on failure to replay.
  uint64_t ChaosSeed = 0xC4A05;
  /// Soft heap limit installed for the run (0 = none). The default sits
  /// below the workload's natural live size, so emergency collections fail
  /// to clear it and the profiler's shed mode actually engages.
  uint64_t ChaosSoftHeapLimitBytes = 8 * 1024;

  /// When non-empty, arm the trace recorder for the run and write the
  /// telemetry bundle (trace.json / metrics.json / metrics.prom, DESIGN.md
  /// §11) into this directory at the end. Strictly observational: Report
  /// stays byte-identical to a run without it.
  std::string TelemetryOutDir;
  /// Print a one-line live telemetry ticker to stderr at every epoch
  /// barrier (arms the trace recorder like TelemetryOutDir does).
  bool TelemetryTicker = false;

  /// When non-null, record the run's canonical op stream into this capture
  /// (forwarded to ReplayConfig::RecordTo). The recording is observational:
  /// Report stays byte-identical to an unrecorded run.
  TraceCapture *RecordTo = nullptr;

  /// Decision-ledger mode (DESIGN.md §16): arm the DecisionLog for the run
  /// and, at every epoch barrier (workers parked, per-thread buffers
  /// flushed, the epoch's GC taken), run a main-thread rule-evaluation
  /// pass over every context plus a deterministic migration flip of the
  /// session collections. All ledger-relevant work happens on the main
  /// thread against canonically-ordered post-flush state, so the exported
  /// ledger is byte-identical for any MutatorThreads count (with Chaos
  /// off). The ledger stays armed after the run so the telemetry bundle
  /// and fleet capture include it.
  bool DecisionLedger = false;

  /// When non-empty, install the crash-safe flight recorder at this path
  /// for the run and checkpoint it at every epoch barrier.
  std::string FlightRecorderPath;
};

/// What a run produces.
struct ServerSimResult {
  uint64_t TotalRequests = 0;
  /// Deterministic profiling report: the GC cycle records (without
  /// wall-clock durations) plus canonically-ordered context statistics.
  std::string Report;
  /// Chaos mode only: fault-injection, migration, and degradation
  /// accounting for the run (empty with Chaos off).
  std::string ChaosReport;
};

/// The RuntimeConfig under which the report's byte-identity across
/// MutatorThreads counts is guaranteed: buffered concurrent-mutator
/// profiling, exact sampling, and GC only at the epoch barriers.
RuntimeConfig serverSimRuntimeConfig();

/// Runs the server simulacrum on \p RT, which must be freshly constructed
/// (see replayTrace).
ServerSimResult runServerSim(CollectionRuntime &RT,
                             const ServerSimConfig &Config = ServerSimConfig());

} // namespace chameleon::apps

#endif // CHAMELEON_APPS_SERVERSIM_H
