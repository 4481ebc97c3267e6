//===--- Measure.cpp - Benchmark quantiles and result assembly ------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Measure.h"

#include "Spans.h"

#include <algorithm>
#include <sys/resource.h>

using namespace chameleon;
using namespace perfbench;

double perfbench::quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

Summary perfbench::summarize(const std::vector<double> &Values) {
  Summary S;
  S.N = Values.size();
  S.Median = quantile(Values, 0.5);
  S.Q1 = quantile(Values, 0.25);
  S.Q3 = quantile(Values, 0.75);
  return S;
}

void Ledger::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Failures.size() < 32)
    Failures.push_back(What);
}

uint64_t perfbench::collectionsAllocated(const CollectionRuntime &RT) {
  uint64_t Sum = 0;
  for (unsigned K = 0; K < NumImplKinds; ++K)
    Sum += RT.allocationsWithImpl(static_cast<ImplKind>(K));
  return Sum;
}

void LayerTotals::addCycles(const std::vector<GcCycleRecord> &Cycles) {
  for (const GcCycleRecord &R : Cycles) {
    ++GcCycles;
    GcBusyNs += R.DurationNanos;
    GcLiveBytes += R.LiveBytes;
    GcFreedBytes += R.FreedBytes;
  }
}

void LayerTotals::addRuntime(const CollectionRuntime &RT) {
  const GcHeap &H = RT.heap();
  EmergencyCollects += H.emergencyCollects();
  AllocObjects += H.totalAllocatedObjects();
  AllocBytes += H.totalAllocatedBytes();
  const SemanticProfiler &P = RT.profiler();
  CtxAcquisitions += P.contextAcquisitions();
  CtxCacheHits += P.contextCacheHits();
  CtxCacheMisses += P.contextCacheMisses();
  Contexts += P.contexts().size();
  SampledOut += P.allocationsSampledOut();
  ProfilerDegradationStats D = P.degradationStats();
  Dropped += D.DroppedAllocs + D.DroppedDeaths;
  MigrationsAttempted += RT.migrationAttempts();
  MigrationsCommitted += RT.migrationCommits();
  UseAfterRetire += RT.usesAfterRetire();
  DoubleRetires += RT.doubleRetires();
  for (unsigned K = 0; K < NumImplKinds; ++K)
    AllocByImpl[K] += RT.allocationsWithImpl(static_cast<ImplKind>(K));
}

namespace {

std::vector<const PassSample *> passes(const RunData &Run, bool Traced) {
  std::vector<const PassSample *> Out;
  for (const PassSample &P : Run.Passes)
    if (P.Traced == Traced)
      Out.push_back(&P);
  return Out;
}

template <typename Fn>
Metric medianOf(const std::vector<const PassSample *> &Ps, const char *Unit,
                Fn Get) {
  std::vector<double> V;
  for (const PassSample *P : Ps)
    V.push_back(Get(*P));
  Metric M;
  M.Unit = Unit;
  M.Series = summarize(V);
  M.Value = M.Series.Median;
  return M;
}

Metric medianOf(const std::vector<double> &V, const char *Unit) {
  Metric M;
  M.Unit = Unit;
  M.Series = summarize(V);
  M.Value = M.Series.Median;
  return M;
}

double ratio(double Num, double Den) { return Den == 0 ? 0.0 : Num / Den; }

} // namespace

MetricList perfbench::endToEndMetrics(const RunData &Run, double PeakRssMib) {
  std::vector<const PassSample *> Ps = passes(Run, /*Traced=*/false);
  std::map<std::string, Metric> M;
  M["setup_s"] = medianOf(Run.SetupS, "s");

  const char *LegNames[NumLegs] = {"profile_s", "fixed_run_s", "online_s"};
  for (unsigned L = 0; L < NumLegs; ++L)
    M[LegNames[L]] =
        medianOf(Ps, "s", [L](const PassSample &P) { return P.LegS[L]; });
  M["ops_per_s"] = medianOf(Ps, "1/s", [](const PassSample &P) {
    return ratio(P.Ops, P.totalS());
  });

  // A percentile is taken within each pass, then the median across passes:
  // a slow stretch of the host moves only the passes it covers, where in
  // one pool of every pass's samples it would set the tail.
  for (double Q : {0.5, 0.9}) {
    const std::string Suffix = Q == 0.5 ? "_p50" : "_p90";
    M["epoch_ms" + Suffix] = medianOf(Ps, "ms", [Q](const PassSample &P) {
      return quantile(P.EpochMs, Q);
    });
    M["gc_pause_us" + Suffix] = medianOf(Ps, "us", [Q](const PassSample &P) {
      return quantile(P.GcPauseUs, Q);
    });
  }
  M["peak_live_kib"] =
      medianOf(Ps, "KiB", [](const PassSample &P) { return P.PeakLiveKib; });
  Metric Rss;
  Rss.Unit = "MiB";
  Rss.Value = PeakRssMib;
  Rss.Series = summarize({PeakRssMib});
  M["peak_rss_mib"] = Rss;
  return MetricList(M.begin(), M.end());
}

MetricList perfbench::perLayerMetrics(const RunData &Run) {
  std::vector<const PassSample *> Ps = passes(Run, /*Traced=*/true);
  MetricList M;
  auto Per = [&](const std::string &Name, const char *Unit, auto Get) {
    M.emplace_back(Name, medianOf(Ps, Unit, [&](const PassSample &P) {
                     return static_cast<double>(Get(P.Layer));
                   }));
  };
  using L = LayerTotals;
  Per("runtime.gc.cycles", "count", [](const L &T) { return T.GcCycles; });
  Per("runtime.gc.busy_ms", "ms",
      [](const L &T) { return T.GcBusyNs / 1e6; });
  Per("runtime.gc.ns_per_live_kib", "ns/KiB", [](const L &T) {
    return ratio(static_cast<double>(T.GcBusyNs), T.GcLiveBytes / 1024.0);
  });
  Per("runtime.gc.freed_ratio", "ratio", [](const L &T) {
    return ratio(static_cast<double>(T.GcFreedBytes),
                 static_cast<double>(T.GcFreedBytes + T.GcLiveBytes));
  });
  Per("runtime.gc.emergency_collects", "count",
      [](const L &T) { return T.EmergencyCollects; });
  Per("runtime.alloc.objects", "count",
      [](const L &T) { return T.AllocObjects; });
  Per("runtime.alloc.mib", "MiB",
      [](const L &T) { return T.AllocBytes / (1024.0 * 1024.0); });
  Per("profiler.ctx_acquisitions", "count",
      [](const L &T) { return T.CtxAcquisitions; });
  Per("profiler.ctx_cache_hit_ratio", "ratio", [](const L &T) {
    return ratio(static_cast<double>(T.CtxCacheHits),
                 static_cast<double>(T.CtxCacheHits + T.CtxCacheMisses));
  });
  Per("profiler.contexts", "count", [](const L &T) { return T.Contexts; });
  Per("profiler.sampled_out", "count",
      [](const L &T) { return T.SampledOut; });
  Per("profiler.dropped", "count", [](const L &T) { return T.Dropped; });
  M.emplace_back("rules.load_ms", medianOf(Run.RulesLoadMs, "ms"));
  Per("rules.analysis_ms", "ms", [](const L &T) { return T.AnalysisMs; });
  Per("rules.suggestions", "count",
      [](const L &T) { return T.Suggestions; });
  Per("core.online.evaluations", "count",
      [](const L &T) { return T.OnlineEvaluations; });
  Per("core.online.replacements", "count",
      [](const L &T) { return T.OnlineReplacements; });
  Per("core.online.replace_ratio", "ratio", [](const L &T) {
    return ratio(static_cast<double>(T.OnlineReplacements),
                 static_cast<double>(T.OnlineAllocations));
  });
  Per("collections.migrations.attempted", "count",
      [](const L &T) { return T.MigrationsAttempted; });
  Per("collections.migrations.committed", "count",
      [](const L &T) { return T.MigrationsCommitted; });
  Per("collections.migrations.commit_ratio", "ratio", [](const L &T) {
    return ratio(static_cast<double>(T.MigrationsCommitted),
                 static_cast<double>(T.MigrationsAttempted));
  });
  Per("collections.use_after_retire", "count",
      [](const L &T) { return T.UseAfterRetire; });
  Per("collections.double_retires", "count",
      [](const L &T) { return T.DoubleRetires; });
  for (unsigned K = 0; K < NumImplKinds; ++K)
    Per(std::string("collections.alloc_by_impl.") +
            implKindName(static_cast<ImplKind>(K)),
        "count", [K](const L &T) { return T.AllocByImpl[K]; });
  M.emplace_back("apps.trace.generate_ms", medianOf(Run.TraceGenerateMs, "ms"));
  M.emplace_back("apps.trace.write_ms", medianOf(Run.TraceWriteMs, "ms"));
  M.emplace_back("apps.trace.read_ms", medianOf(Run.TraceReadMs, "ms"));
  M.emplace_back("apps.trace.mib",
                 medianOf({Run.TraceBytes / (1024.0 * 1024.0)}, "MiB"));
  Per("apps.replay.ops", "count", [](const L &T) { return T.ReplayOps; });
  Per("apps.replay.tasks", "count",
      [](const L &T) { return T.ReplayTasks; });
  Per("apps.replay.mutator_ms", "ms",
      [](const L &T) { return T.ReplayMutatorMs; });
  Per("apps.mutator_ms", "ms", [](const L &T) { return T.MutatorMs; });
  Per("fleet.capture_ms", "ms", [](const L &T) { return T.FleetCaptureMs; });
  Per("fleet.commit_ms", "ms", [](const L &T) { return T.FleetCommitMs; });
  Per("fleet.aggregate_ms", "ms",
      [](const L &T) { return T.FleetAggregateMs; });
  Per("fleet.epochs_committed", "count",
      [](const L &T) { return T.EpochsCommitted; });
  Per("fleet.updates_applied", "count",
      [](const L &T) { return T.UpdatesApplied; });
  for (unsigned I = 0; I < NumLayers; ++I) {
    const char *Layer = Layers[I];
    std::string Name = "self_ms.";
    Name += Layer;
    M.emplace_back(Name, medianOf(Ps, "ms", [Layer](const PassSample &P) {
                     auto It = P.SelfMs.find(Layer);
                     return It == P.SelfMs.end() ? 0.0 : It->second;
                   }));
  }
  // Tracing overhead: the median pass time of the traced passes against
  // the untraced passes of the same run, which alternate with them.
  auto Total = [](const PassSample &P) { return P.totalS(); };
  Metric Overhead;
  Overhead.Unit = "%";
  Overhead.Value =
      100.0 * (ratio(medianOf(Ps, "s", Total).Value,
                     medianOf(passes(Run, /*Traced=*/false), "s", Total).Value) -
               1.0);
  Overhead.Series = summarize({Overhead.Value});
  M.emplace_back("trace.overhead_pct", Overhead);
  M.emplace_back("trace.spans",
                 medianOf({static_cast<double>(Run.SpanCount)}, "count"));
  return M;
}

double perfbench::peakRssMib() {
  struct rusage Self;
  if (getrusage(RUSAGE_SELF, &Self) != 0)
    return 0.0;
  return static_cast<double>(Self.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}
