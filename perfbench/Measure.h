//===--- Measure.h - Benchmark clocks, quantiles and results ----*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark shares: the clock, the
/// quantile rule, the per-pass sample it fills in, and the run-level result
/// it reports (end-to-end metrics, per-layer metrics, the correctness
/// ledger). See README.md for the metric definitions.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_PERFBENCH_MEASURE_H
#define CHAMELEON_PERFBENCH_MEASURE_H

#include "collections/CollectionRuntime.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// Linear-interpolation quantile (the "inclusive" method of Python's
/// statistics.quantiles) of \p Values at \p Q in [0, 1]. Empty input
/// yields 0.
double quantile(std::vector<double> Values, double Q);

/// Median, quartiles and sample count of a series.
struct Summary {
  double Median = 0, Q1 = 0, Q3 = 0;
  size_t N = 0;
};
Summary summarize(const std::vector<double> &Values);

/// One metric as reported: its value, unit, and the series it came from.
struct Metric {
  double Value = 0;
  const char *Unit = "";
  /// Spread of the series behind Value: the per-pass values for a leg
  /// time, rate or percentile, the repetitions for a set-up median.
  Summary Series;
};

/// Correctness ledger: every checked unit of work, and those that failed.
struct Ledger {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;

  /// Counts one checked unit; records \p What when \p Ok is false.
  void check(bool Ok, const std::string &What);
};

/// Raw per-layer counters of one pass, summed over every run in it. The
/// reported per-layer metrics (ratios included) are derived from these.
struct LayerTotals {
  // runtime
  uint64_t GcCycles = 0;
  uint64_t GcBusyNs = 0;
  uint64_t GcLiveBytes = 0;  ///< summed over cycles
  uint64_t GcFreedBytes = 0; ///< summed over cycles
  uint64_t EmergencyCollects = 0;
  uint64_t AllocObjects = 0;
  uint64_t AllocBytes = 0;
  // profiler
  uint64_t CtxAcquisitions = 0;
  uint64_t CtxCacheHits = 0;
  uint64_t CtxCacheMisses = 0;
  uint64_t Contexts = 0;
  uint64_t SampledOut = 0;
  uint64_t Dropped = 0;
  // rules
  double AnalysisMs = 0;
  uint64_t Suggestions = 0;
  // core
  uint64_t OnlineEvaluations = 0;
  uint64_t OnlineReplacements = 0;
  uint64_t OnlineAllocations = 0; ///< collections allocated in online runs
  // collections
  uint64_t MigrationsAttempted = 0;
  uint64_t MigrationsCommitted = 0;
  uint64_t UseAfterRetire = 0;
  uint64_t DoubleRetires = 0;
  std::array<uint64_t, chameleon::NumImplKinds> AllocByImpl{};
  // apps (trace preparation is set-up work, kept in RunData)
  uint64_t ReplayOps = 0, ReplayTasks = 0;
  double ReplayMutatorMs = 0;
  double MutatorMs = 0;
  // fleet
  double FleetCaptureMs = 0, FleetCommitMs = 0, FleetAggregateMs = 0;
  uint64_t EpochsCommitted = 0;
  uint64_t UpdatesApplied = 0;

  /// Adds one run's GC cycle records.
  void addCycles(const std::vector<chameleon::GcCycleRecord> &Cycles);
  /// Adds the counters a finished run left in \p RT: allocation totals,
  /// profiler, retire and migration counters, allocations per impl.
  void addRuntime(const chameleon::CollectionRuntime &RT);
};

/// The modes a workload's program is run in, each pass.
enum Leg : unsigned {
  ProfileLeg, ///< profiled run + rule evaluation (Chameleon::profile)
  FixedLeg,   ///< uninstrumented run with the plan (Chameleon::run)
  OnlineLeg,  ///< run under the online adaptor (Chameleon::profileOnline)
  NumLegs
};

/// Collections \p RT allocated, over every implementation.
uint64_t collectionsAllocated(const chameleon::CollectionRuntime &RT);

/// Everything one pass of a workload measured.
struct PassSample {
  /// Wall time of each leg: the six Chameleon calls of that mode
  /// (paper-apps), or one replay leg (server-zipf).
  std::array<double, NumLegs> LegS{};
  /// The units epoch_ms is taken over (ms).
  std::vector<double> EpochMs;
  /// Every GC cycle of the pass (us).
  std::vector<double> GcPauseUs;
  /// Units of program work completed over all legs: managed-heap
  /// allocations (paper-apps) or trace ops replayed (server-zipf).
  double Ops = 0;
  double PeakLiveKib = 0;
  /// Per-layer counters of this pass (filled on every pass; only traced
  /// passes' values are reported).
  LayerTotals Layer;
  /// Layer self times from this pass's spans (traced passes only).
  std::map<std::string, double> SelfMs;
  bool Traced = false;

  double totalS() const {
    return LegS[ProfileLeg] + LegS[FixedLeg] + LegS[OnlineLeg];
  }
};

/// A workload run: set-up samples, passes, and the correctness ledger.
struct RunData {
  std::vector<double> SetupS;
  /// Constructing a Chameleon tool (builtin rules parse + sema), per set-up.
  std::vector<double> RulesLoadMs;
  /// Trace preparation per set-up (server workload only).
  std::vector<double> TraceGenerateMs, TraceWriteMs, TraceReadMs;
  uint64_t TraceBytes = 0;
  size_t SpanCount = 0;
  /// Wall time of the untimed warm-up pass, for the pass-time line.
  double WarmUpS = 0;
  std::vector<PassSample> Passes;
  Ledger Checks;
  /// Workload-specific notes printed with the result (sample counts etc.).
  std::vector<std::string> Notes;
};

/// Metrics by name, in report order.
using MetricList = std::vector<std::pair<std::string, Metric>>;

/// Builds the end-to-end metrics from untraced passes: leg times,
/// ops_per_s and the percentiles (each taken within one pass) are medians
/// across passes, and setup_s is the median of the set-up repetitions.
MetricList endToEndMetrics(const RunData &Run, double PeakRssMib);

/// Builds the per-layer metrics from traced passes, plus the tracing
/// overhead against the untraced passes of the same run.
MetricList perLayerMetrics(const RunData &Run);

/// Peak resident set of this process so far, in MiB.
double peakRssMib();

} // namespace perfbench

#endif // CHAMELEON_PERFBENCH_MEASURE_H
