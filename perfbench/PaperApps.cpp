//===--- PaperApps.cpp - The paper-apps workload --------------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The six paper programs (bloat, fop, findbugs, pmd, soot, tvla) taken
/// through the paper's two modes at each program's ProfileHeapLimit:
/// offline (Chameleon::profile, then Chameleon::run with the resulting
/// plan — Fig. 7's fixed program) and fully automatic online replacement
/// (Chameleon::profileOnline — §5.4). The programs are fixed inputs; the
/// seed does not change them.
///
/// The benchmark wraps the Workload callable it hands to Chameleon, so it
/// can time App.Run alone and read the runtime's counters after the
/// program returns.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "apps/AppSpec.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

using namespace chameleon;
using namespace chameleon::apps;
using namespace perfbench;

namespace {

/// What the wrapped App.Run observed in one execution.
struct AppProbe {
  double RunS = 0;
  uint64_t GcNs = 0;
  uint64_t Collections = 0; ///< collections allocated
};

/// The plan as text, one decision per line in label order.
std::string renderPlan(const ReplacementPlan &Plan) {
  std::vector<std::string> Lines;
  for (const auto &[Label, D] : Plan.decisions()) {
    std::string Line = Label + " ->";
    if (D.Impl)
      Line += std::string(" impl=") + implKindName(*D.Impl);
    if (D.Capacity)
      Line += " capacity=" + std::to_string(*D.Capacity);
    Lines.push_back(Line);
  }
  std::sort(Lines.begin(), Lines.end());
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}

/// Every output of one app's pass that must stay bit-identical.
std::string renderOutputs(const AppSpec &App, const RunResult &Profiled,
                          const RunResult &Fixed, const RunResult &Online) {
  std::ostringstream Out;
  Out << "app " << App.Name << "\n";
  Out << "profile.gc_cycles " << Profiled.GcCycles << "\n";
  Out << "profile.peak_live_bytes " << Profiled.PeakLiveBytes << "\n";
  Out << "profile.allocated_objects " << Profiled.TotalAllocatedObjects
      << "\n";
  Out << "fixed.gc_cycles " << Fixed.GcCycles << "\n";
  Out << "fixed.allocated_objects " << Fixed.TotalAllocatedObjects << "\n";
  Out << "online.gc_cycles " << Online.GcCycles << "\n";
  Out << "online.peak_live_bytes " << Online.PeakLiveBytes << "\n";
  Out << "online.replacements " << Online.OnlineReplacements << "\n";
  Out << "online.evaluations " << Online.OnlineEvaluations << "\n";
  Out << "== plan ==\n" << renderPlan(Profiled.Plan);
  Out << "== report ==\n" << Profiled.Report;
  return Out.str();
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return {};
  std::ostringstream S;
  S << In.rdbuf();
  return S.str();
}

/// First line where \p A and \p B differ, for the failure message.
std::string firstDifference(const std::string &A, const std::string &B) {
  std::istringstream SA(A), SB(B);
  std::string LA, LB;
  for (unsigned Line = 1;; ++Line) {
    bool HA = static_cast<bool>(std::getline(SA, LA));
    bool HB = static_cast<bool>(std::getline(SB, LB));
    if (!HA && !HB)
      return "no difference";
    if (!HA || !HB || LA != LB)
      return "line " + std::to_string(Line) + ": got '" + LA +
             "', expected '" + LB + "'";
  }
}

} // namespace

void perfbench::runPaperApps(const Options &Opt, RunData &Run) {
  const std::vector<AppSpec> &Apps = allApps();

  // Set-up: constructing the tool parses and checks the builtin rules.
  std::optional<Chameleon> Tool;
  auto Setup = [&] {
    Clock::time_point T0 = Clock::now();
    {
      SpanScope S("Chameleon::Chameleon", "rules");
      Tool.emplace();
    }
    double S = secondsBetween(T0, Clock::now());
    Run.SetupS.push_back(S);
    Run.RulesLoadMs.push_back(S * 1e3);
  };

  std::vector<std::string> Refs(Apps.size());
  if (!Opt.WriteRefs)
    for (size_t A = 0; A < Apps.size(); ++A)
      Refs[A] = readFile(Opt.RefsDir + "/" + Apps[A].Name + ".txt");
  std::vector<std::string> Written(Apps.size());

  auto OnePass = [&](PassSample &P, unsigned PassIndex) {
    for (size_t A = 0; A < Apps.size(); ++A) {
      const AppSpec &App = Apps[A];
      const uint64_t Id = PassIndex * Apps.size() + A;
      AppProbe Probe;
      LayerTotals &L = P.Layer;
      Workload Wrapped = [&](CollectionRuntime &RT) {
        SpanScope S("App.Run", "apps", Id);
        Clock::time_point T0 = Clock::now();
        App.Run(RT);
        Clock::time_point T1 = Clock::now();
        Probe.RunS = secondsBetween(T0, T1);
        Probe.GcNs = 0;
        for (const GcCycleRecord &R : RT.heap().cycles())
          Probe.GcNs += R.DurationNanos;
        Probe.Collections = collectionsAllocated(RT);
        L.addRuntime(RT);
        if (ActiveSpans) {
          int64_t End = ActiveSpans->nowNs();
          ActiveSpans->add("gc", "runtime", Id,
                           End - static_cast<int64_t>(Probe.GcNs), End,
                           /*Derived=*/true);
        }
      };

      auto RunLeg = [&](const char *Name, Leg Mode, auto Call) {
        Clock::time_point T0 = Clock::now();
        RunResult R;
        {
          SpanScope S(Name, "core", Id);
          R = Call();
        }
        double Wall = secondsBetween(T0, Clock::now());
        P.LegS[Mode] += Wall;
        P.EpochMs.push_back(Wall * 1e3);
        P.Ops += static_cast<double>(R.TotalAllocatedObjects);
        for (const GcCycleRecord &C : R.Cycles)
          P.GcPauseUs.push_back(C.DurationNanos / 1e3);
        L.addCycles(R.Cycles);
        L.MutatorMs += (Probe.RunS - Probe.GcNs / 1e9) * 1e3;
        Run.Checks.check(R.Completed, App.Name + " " + Name +
                                          " ran out of memory");
        return R;
      };

      RunResult Profiled =
          RunLeg("Chameleon::profile", ProfileLeg, [&] {
            return Tool->profile(Wrapped, App.ProfileHeapLimit);
          });
      L.AnalysisMs += P.EpochMs.back() - Probe.RunS * 1e3;
      L.Suggestions += Profiled.Suggestions.size();

      RunResult Fixed = RunLeg("Chameleon::run", FixedLeg, [&] {
        return Tool->run(Wrapped, &Profiled.Plan, App.ProfileHeapLimit);
      });

      RunResult Online =
          RunLeg("Chameleon::profileOnline", OnlineLeg, [&] {
            return Tool->profileOnline(Wrapped, App.ProfileHeapLimit);
          });
      L.OnlineEvaluations += Online.OnlineEvaluations;
      L.OnlineReplacements += Online.OnlineReplacements;
      L.OnlineAllocations += Probe.Collections;
      P.PeakLiveKib += Online.PeakLiveBytes / 1024.0;

      std::string Outputs = renderOutputs(App, Profiled, Fixed, Online);
      if (Opt.WriteRefs) {
        if (Written[A].empty())
          Written[A] = Outputs;
        Run.Checks.check(Outputs == Written[A],
                         App.Name + ": outputs differ between passes: " +
                             firstDifference(Outputs, Written[A]));
      } else {
        Run.Checks.check(Outputs == Refs[A],
                         App.Name + ": outputs differ from " + App.Name +
                             ".txt: " + firstDifference(Outputs, Refs[A]));
      }
    }
  };
  timedPasses(Opt, Run, /*InitialSetups=*/5, /*NominalPassS=*/5, Setup,
              OnePass);

  if (Opt.WriteRefs)
    for (size_t A = 0; A < Apps.size(); ++A) {
      std::ofstream Out(Opt.RefsDir + "/" + Apps[A].Name + ".txt",
                        std::ios::binary);
      Out << Written[A];
      Run.Checks.check(static_cast<bool>(Out),
                       "cannot write reference for " + Apps[A].Name);
    }

  Run.Notes.push_back("epoch = one Chameleon call on one app (" +
                      std::to_string(3 * Apps.size()) + " per pass)");
  Run.Notes.push_back("ops = managed-heap allocations");
}
