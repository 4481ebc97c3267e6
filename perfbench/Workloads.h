//===--- Workloads.h - The benchmark's workloads ----------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workloads of the repository benchmark. Each runs set-up several
/// times, one untimed warm-up pass, then a fixed number of timed passes
/// sized to the run's time. In a traced run the timed passes alternate
/// untraced and traced, so one run gives both the per-layer numbers and the
/// tracing overhead. See README.md for why each workload was chosen.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_PERFBENCH_WORKLOADS_H
#define CHAMELEON_PERFBENCH_WORKLOADS_H

#include "Measure.h"
#include "Spans.h"

#include <algorithm>
#include <string>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory of the paper-apps reference outputs.
  std::string RefsDir;
  /// Rewrite the references instead of checking against them.
  bool WriteRefs = false;
  /// Where a traced run writes its spans (empty: not written).
  std::string SpansOut;
};

/// paper-apps: the six paper programs, each through Chameleon::profile,
/// Chameleon::run with the resulting plan, and Chameleon::profileOnline.
void runPaperApps(const Options &Opt, RunData &Run);

/// server-zipf and server-phase-shift: a seeded request trace from the
/// workload zoo's \p Generator replayed by 4 mutator threads, profiled,
/// with the plan applied, and online with a fleet commit at every epoch
/// barrier.
void runServerTrace(const Options &Opt, RunData &Run, const char *Generator);

/// The recorder of this process's traced passes.
SpanRecorder &runSpans();

/// Runs the workload's passes: \p InitialSetups calls of `Setup()`, one
/// untimed warm-up `OnePass(PassSample &, unsigned PassIndex)` (index 0,
/// its sample discarded), then Opt.Seconds / \p NominalPassS timed passes
/// (at least 3), one after another in this process. \p NominalPassS is the
/// time the workload's pass is budgeted: the number of passes is fixed by
/// --seconds alone, so runs of faster and slower code draw the same number
/// of samples. One more `Setup()` precedes every timed pass, so the set-up
/// samples spread over the whole run. In a traced run every second pass
/// (and the set-up before it) records spans.
template <typename SetupFn, typename PassFn>
void timedPasses(const Options &Opt, RunData &Run, unsigned InitialSetups,
                 double NominalPassS, SetupFn Setup, PassFn OnePass) {
  const unsigned Passes =
      std::max(3u, static_cast<unsigned>(Opt.Seconds / NominalPassS));
  for (unsigned I = 0; I < InitialSetups; ++I)
    Setup();
  {
    PassSample Warm;
    OnePass(Warm, 0);
    Run.WarmUpS = Warm.totalS();
  }
  for (unsigned I = 1; I <= Passes; ++I) {
    PassSample P;
    P.Traced = Opt.Trace && I % 2 == 0;
    SpanRecorder &Spans = runSpans();
    ActiveSpans = P.Traced ? &Spans : nullptr;
    Setup();
    const size_t From = Spans.spans().size();
    {
      SpanScope S("pass", "bench", I);
      OnePass(P, I);
    }
    ActiveSpans = nullptr;
    if (P.Traced)
      P.SelfMs = Spans.selfMsByLayer(From);
    Run.Passes.push_back(std::move(P));
  }
}

} // namespace perfbench

#endif // CHAMELEON_PERFBENCH_WORKLOADS_H
