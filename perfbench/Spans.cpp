//===--- Spans.cpp - In-memory spans around calls into the layers ---------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;

const char *const perfbench::Layers[] = {"runtime", "profiler", "collections",
                                         "rules",   "core",     "apps",
                                         "fleet"};
const unsigned perfbench::NumLayers = sizeof(Layers) / sizeof(Layers[0]);

SpanRecorder *perfbench::ActiveSpans = nullptr;

SpanRecorder::SpanRecorder() : Origin(Clock::now()) { All.reserve(1 << 16); }

int64_t SpanRecorder::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Origin)
      .count();
}

int32_t SpanRecorder::openAt(const char *Name, const char *Layer, uint64_t Id,
                             int64_t StartNs) {
  Span S;
  S.Name = Name;
  S.Layer = Layer;
  S.Id = Id;
  S.StartNs = StartNs;
  S.Parent = Open.empty() ? -1 : Open.back();
  All.push_back(S);
  int32_t Index = static_cast<int32_t>(All.size() - 1);
  Open.push_back(Index);
  return Index;
}

int32_t SpanRecorder::open(const char *Name, const char *Layer, uint64_t Id) {
  return openAt(Name, Layer, Id, nowNs());
}

void SpanRecorder::close(int32_t Index) {
  All[Index].EndNs = nowNs();
  // Spans close in LIFO order on the one thread that records them.
  if (!Open.empty() && Open.back() == Index)
    Open.pop_back();
}

int32_t SpanRecorder::add(const char *Name, const char *Layer, uint64_t Id,
                          int64_t StartNs, int64_t EndNs, bool Derived) {
  Span S;
  S.Name = Name;
  S.Layer = Layer;
  S.Id = Id;
  S.StartNs = StartNs;
  S.EndNs = EndNs;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Derived = Derived;
  All.push_back(S);
  return static_cast<int32_t>(All.size() - 1);
}

std::map<std::string, double>
SpanRecorder::selfMsByLayer(size_t From) const {
  std::vector<int64_t> ChildNs(All.size(), 0);
  for (size_t I = From; I < All.size(); ++I)
    if (All[I].Parent >= static_cast<int32_t>(From))
      ChildNs[All[I].Parent] += All[I].EndNs - All[I].StartNs;
  std::map<std::string, double> Self;
  for (unsigned L = 0; L < NumLayers; ++L)
    Self[Layers[L]] = 0.0;
  for (size_t I = From; I < All.size(); ++I) {
    auto It = Self.find(All[I].Layer);
    if (It == Self.end())
      continue; // the benchmark's own pass spans
    int64_t SelfNs =
        std::max<int64_t>(0, All[I].EndNs - All[I].StartNs - ChildNs[I]);
    It->second += static_cast<double>(SelfNs) / 1e6;
  }
  return Self;
}

bool SpanRecorder::write(const std::string &Path,
                         const std::string &Workload) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"workload\": \"%s\", \"spans\": [", Workload.c_str());
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    std::fprintf(F,
                 "%s\n{\"i\": %zu, \"name\": \"%s\", \"layer\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %d, "
                 "\"id\": %llu, \"derived\": %s}",
                 I ? "," : "", I, S.Name, S.Layer,
                 static_cast<long long>(S.StartNs),
                 static_cast<long long>(S.EndNs), S.Parent,
                 static_cast<unsigned long long>(S.Id),
                 S.Derived ? "true" : "false");
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}
