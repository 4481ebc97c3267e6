//===--- main.cpp - The repository benchmark binary -----------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload and prints its metrics: a table for people, then, as
/// the last line, one JSON object for run.py. Exit status 0 when every
/// correctness check passed, 1 when one failed, 2 on a usage error.
///
///   perfbench --workload paper-apps|server-zipf|server-phase-shift
///             [--seed N] [--seconds S]
///             [--trace 0|1] [--refs DIR] [--write-refs] [--spans-out FILE]
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cerrno>
#include <string>
#include <thread>

#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS "unknown"
#endif

using namespace perfbench;

SpanRecorder &perfbench::runSpans() {
  static SpanRecorder Recorder;
  return Recorder;
}

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper-apps|server-zipf|server-phase-shift [--seed N] "
               "[--seconds S] "
               "[--trace 0|1] [--refs DIR] [--write-refs] [--spans-out FILE]\n",
               Why);
  return 2;
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 0);
  if (errno != 0 || End == S || *End != '\0')
    return false;
  Out = V;
  return true;
}

/// JSON string escaping for the few free-text fields.
std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

void printTable(const MetricList &Ms) {
  std::printf("%-40s %16s %-7s %6s %16s %16s\n", "metric", "value", "unit",
              "n", "q1", "q3");
  for (const auto &[Name, M] : Ms) {
    std::printf("%-40s %16.6g %-7s %6zu %16.6g %16.6g\n", Name.c_str(),
                M.Value, M.Unit, M.Series.N, M.Series.Q1,
                M.Series.Q3);
  }
}

} // namespace

int main(int argc, char **argv) {
  Options Opt;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    uint64_t V = 0;
    if (A == "--write-refs") {
      Opt.WriteRefs = true;
      continue;
    }
    const char *Arg = Next();
    if (!Arg)
      return usage(("missing value for " + A).c_str());
    if (A == "--workload") {
      Opt.Workload = Arg;
    } else if (A == "--refs") {
      Opt.RefsDir = Arg;
    } else if (A == "--spans-out") {
      Opt.SpansOut = Arg;
    } else if (!parseUnsigned(Arg, V)) {
      return usage(("bad number for " + A).c_str());
    } else if (A == "--seed") {
      Opt.Seed = V;
    } else if (A == "--seconds") {
      Opt.Seconds = static_cast<double>(V);
    } else if (A == "--trace") {
      Opt.Trace = V != 0;
    } else {
      return usage(("unknown option " + A).c_str());
    }
  }

  RunData Run;
  if (Opt.Workload == "paper-apps") {
    if (Opt.RefsDir.empty())
      return usage("paper-apps needs --refs DIR");
    runPaperApps(Opt, Run);
  } else if (Opt.Workload == "server-zipf") {
    runServerTrace(Opt, Run, "zipf");
  } else if (Opt.Workload == "server-phase-shift") {
    runServerTrace(Opt, Run, "phase-shift");
  } else {
    return usage("unknown workload");
  }
  Run.SpanCount = runSpans().spans().size();

  MetricList Ms = Opt.Trace ? perLayerMetrics(Run)
                            : endToEndMetrics(Run, peakRssMib());

  size_t Traced = 0;
  for (const PassSample &P : Run.Passes)
    Traced += P.Traced;
  std::printf("workload %s, seed %llu, %zu timed passes (%zu traced), %zu "
              "set-ups\n",
              Opt.Workload.c_str(), static_cast<unsigned long long>(Opt.Seed),
              Run.Passes.size(), Traced, Run.SetupS.size());
  for (const std::string &N : Run.Notes)
    std::printf("  %s\n", N.c_str());
  // Every pass of a workload has the same number of percentile samples.
  const size_t EpochSamples =
      Run.Passes.empty() ? 0 : Run.Passes.front().EpochMs.size();
  const size_t PauseSamples =
      Run.Passes.empty() ? 0 : Run.Passes.front().GcPauseUs.size();
  std::printf("  percentiles: taken in each pass over its %zu epochs and %zu "
              "GC pauses, then the median across passes\n",
              EpochSamples, PauseSamples);
  std::printf("  pass times (s): warm-up %.3f, then%s", Run.WarmUpS,
              Opt.Trace ? " (*traced)" : "");
  for (const PassSample &P : Run.Passes)
    std::printf(" %.3f%s", P.totalS(), P.Traced ? "*" : "");
  std::printf("\n");
  printTable(Ms);
  if (Opt.Trace) {
    std::printf("self time per layer (ms per traced pass; profiler work "
                "runs inside apps calls and has no span of its own):\n");
    for (const auto &[Name, M] : Ms)
      if (Name.rfind("self_ms.", 0) == 0)
        std::printf("  %-12s %12.3f\n", Name.c_str() + 8, M.Value);
  }
  for (const std::string &F : Run.Checks.Failures)
    std::printf("FAILED: %s\n", F.c_str());
  std::printf("checks: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(Run.Checks.Attempted),
              static_cast<unsigned long long>(Run.Checks.Failed));

  bool SpansOk = true;
  if (Opt.Trace && !Opt.SpansOut.empty())
    SpansOk = runSpans().write(Opt.SpansOut, Opt.Workload);
  if (!SpansOk)
    std::printf("FAILED: cannot write spans to %s\n", Opt.SpansOut.c_str());

  std::string Json = "{\"workload\": " + jsonString(Opt.Workload);
  Json += ", \"seed\": " + std::to_string(Opt.Seed);
  Json += ", \"trace\": " + std::string(Opt.Trace ? "1" : "0");
  Json += ", \"correct\": " +
          std::string(Run.Checks.Failed == 0 ? "true" : "false");
  Json += ", \"attempted\": " + std::to_string(Run.Checks.Attempted);
  Json += ", \"failed\": " + std::to_string(Run.Checks.Failed);
  Json += ", \"passes\": " + std::to_string(Run.Passes.size());
  Json += ", \"traced_passes\": " + std::to_string(Traced);
  Json += ", \"setups\": " + std::to_string(Run.SetupS.size());
  Json += ", \"epoch_samples_per_pass\": " + std::to_string(EpochSamples);
  Json += ", \"gc_pause_samples_per_pass\": " + std::to_string(PauseSamples);
  Json += ", \"nproc\": " +
          std::to_string(std::thread::hardware_concurrency());
  Json += ", \"build_flags\": " + jsonString(PERFBENCH_BUILD_FLAGS);
  Json += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, M] : Ms) {
    char Buf[512];
    std::snprintf(Buf, sizeof(Buf),
                  "%s%s: {\"value\": %.17g, \"unit\": %s, \"n\": %zu, "
                  "\"q1\": %.17g, \"median\": %.17g, \"q3\": %.17g}",
                  First ? "" : ", ", jsonString(Name).c_str(), M.Value,
                  jsonString(M.Unit).c_str(), M.Series.N, M.Series.Q1,
                  M.Series.Median, M.Series.Q3);
    Json += Buf;
    First = false;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return Run.Checks.Failed == 0 && SpansOk ? 0 : 1;
}
