//===--- Spans.h - In-memory spans around calls into the layers -*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracer. Spans are recorded by the benchmark's own code
/// around each public call it makes into a layer (the `src/` module that
/// owns the called function), kept in memory, and written out when the run
/// ends. A layer's self time is the duration of its spans minus the part
/// their child spans cover.
///
/// Spans are recorded only while a recorder is installed (traced passes);
/// otherwise `SpanScope` costs one null check.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_PERFBENCH_SPANS_H
#define CHAMELEON_PERFBENCH_SPANS_H

#include "Measure.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// The layers spans are attributed to, in report order.
extern const char *const Layers[];
extern const unsigned NumLayers;

struct Span {
  const char *Name = "";
  const char *Layer = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  /// Index of the enclosing span, -1 for a root.
  int32_t Parent = -1;
  /// One id per app-pass (paper apps) or per epoch (server replay).
  uint64_t Id = 0;
  /// Reconstructed from a counter rather than timed around a call: GC
  /// time inside an app run (placed at the run's end), or an epoch's GC
  /// pause (placed just before its barrier callback).
  bool Derived = false;
};

class SpanRecorder {
public:
  SpanRecorder();

  /// Opens a span under the innermost open one; returns its index.
  int32_t open(const char *Name, const char *Layer, uint64_t Id);
  void close(int32_t Index);
  /// Records a finished span [StartNs, EndNs] under the innermost open
  /// span.
  int32_t add(const char *Name, const char *Layer, uint64_t Id,
              int64_t StartNs, int64_t EndNs, bool Derived);
  /// Opens a span that started at \p StartNs (epochs: the interval is
  /// known to have begun when the previous barrier released the workers).
  int32_t openAt(const char *Name, const char *Layer, uint64_t Id,
                 int64_t StartNs);

  int64_t nowNs() const;

  const std::vector<Span> &spans() const { return All; }

  /// Self time per layer, in ms, over the spans recorded since \p From.
  std::map<std::string, double> selfMsByLayer(size_t From) const;

  /// Writes every span as JSON to \p Path. False on I/O failure.
  bool write(const std::string &Path, const std::string &Workload) const;

private:
  Clock::time_point Origin;
  std::vector<Span> All;
  std::vector<int32_t> Open;
};

/// The recorder of traced passes; null in untraced ones.
extern SpanRecorder *ActiveSpans;

/// RAII span around one call, recorded only when ActiveSpans is set.
class SpanScope {
public:
  SpanScope(const char *Name, const char *Layer, uint64_t Id = 0)
      : Rec(ActiveSpans), Index(Rec ? Rec->open(Name, Layer, Id) : -1) {}
  ~SpanScope() {
    if (Rec)
      Rec->close(Index);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  SpanRecorder *Rec;
  int32_t Index;
};

} // namespace perfbench

#endif // CHAMELEON_PERFBENCH_SPANS_H
