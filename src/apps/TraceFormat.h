//===--- TraceFormat.h - Recorded-workload trace format --------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The versioned on-disk format for recorded collection workloads
/// (DESIGN.md §14). A trace is the canonical per-task op stream of one
/// run: a boot task allocating the long-lived per-session collections,
/// then epochs of request tasks, each a flat sequence of collection
/// operations against *registers* (global slots for session state, temp
/// slots for request-scoped collections).
///
/// A serialized trace is a human-readable text header — magic, format
/// version, generator, seed, workload shape, the frame table in intern
/// order, and a config digest — followed by a binary payload of
/// length-prefixed task blocks (seekable without decoding op bytes),
/// epoch-end markers, and a checksummed end marker. The reader is fully
/// bounds-checked: truncated, corrupted, or version-skewed input is
/// rejected with a diagnostic, never undefined behaviour.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_APPS_TRACEFORMAT_H
#define CHAMELEON_APPS_TRACEFORMAT_H

#include "collections/Kinds.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace chameleon::apps {

/// First header line: magic and format version.
inline constexpr const char *TraceMagic = "CHAMTRACE";
inline constexpr uint32_t TraceFormatVersion = 1;

/// Session number carried by the boot task (executed on the main thread
/// before the worker pool starts).
inline constexpr uint32_t TraceBootSession = 0xFFFFFFFFu;

/// Operation vocabulary. Every opcode maps 1:1 onto a handle call in
/// collections/Handles.h, so replaying a trace drives exactly the op
/// stream (and thus the profile) the recording run executed.
enum class TraceOpCode : uint8_t {
  Alloc = 1,       ///< allocate a collection into a register
  Retire = 2,      ///< CollectionHandleBase::retire()
  MapPut = 3,      ///< Map::put(A, B)
  MapGet = 4,      ///< Map::get(A)
  MapContainsKey = 5,
  MapRemove = 6,   ///< Map::remove(A)
  ListAdd = 7,     ///< List::add(A)
  ListAddAt = 8,   ///< List::add(A, B)
  ListGet = 9,     ///< List::get(A)
  ListSet = 10,    ///< List::set(A, B)
  ListRemoveAt = 11,
  ListRemoveFirst = 12,
  ListContains = 13,
  SetAdd = 14,
  SetContains = 15,
  SetRemove = 16,
  Size = 17,       ///< size() — a counted op, so replayed literally
  Clear = 18,
};

/// Operand shape of an opcode (drives the wire encoding).
enum class TraceOperands : uint8_t {
  None,     ///< Retire, ListRemoveFirst, Size, Clear
  Val,      ///< one value operand in A
  ValVal,   ///< key in A, value in B (MapPut)
  Idx,      ///< one index operand in A
  IdxVal,   ///< index in A, value in B
  Alloc,    ///< Adt, Impl, SiteIdx, Capacity
  Invalid,  ///< not a known opcode
};

/// The operand shape of \p Code (Invalid for unknown byte values).
TraceOperands traceOperandsOf(uint8_t Code);

/// Diagnostic spelling of an opcode.
const char *traceOpCodeName(TraceOpCode Code);

/// Register addressing: bit 0 selects the namespace (0 = global slot,
/// persistent for the run; 1 = temp slot, scoped to one task), the rest
/// is the slot index.
inline constexpr uint32_t traceGlobalReg(uint32_t Slot) { return Slot << 1; }
inline constexpr uint32_t traceTempReg(uint32_t Slot) {
  return (Slot << 1) | 1;
}
inline constexpr bool traceRegIsTemp(uint32_t Reg) { return (Reg & 1) != 0; }
inline constexpr uint32_t traceRegSlot(uint32_t Reg) { return Reg >> 1; }

/// One recorded operation. Only the fields the opcode's operand shape
/// names are meaningful; the rest stay zero so encoding is canonical.
/// Fields are ordered so the struct packs into 32 bytes (two ops per cache
/// line): a replayed trace streams hundreds of megabytes of them.
struct TraceOp {
  TraceOpCode Code = TraceOpCode::Size;
  /// Alloc only: the abstract type and requested implementation.
  AdtKind Adt = AdtKind::List;
  ImplKind Impl = ImplKind::ArrayList;
  /// Target register (traceGlobalReg / traceTempReg encoding).
  uint32_t Target = 0;
  /// Alloc only: allocation-site index into TraceHeader::Frames.
  uint32_t SiteIdx = 0;
  /// Alloc only: requested capacity.
  uint32_t Capacity = 0;
  /// Value or index operands (see TraceOperands).
  int64_t A = 0;
  int64_t B = 0;

  bool operator==(const TraceOp &O) const {
    return Code == O.Code && Target == O.Target && Adt == O.Adt
           && Impl == O.Impl && SiteIdx == O.SiteIdx
           && Capacity == O.Capacity && A == O.A && B == O.B;
  }
};
static_assert(sizeof(TraceOp) == 32, "TraceOp must stay packed");

/// One task: a globally unique id, the owning session (TraceBootSession
/// for boot), the call-frame under which every op runs, and the ops.
struct TraceTask {
  uint64_t Id = 0;
  uint32_t Session = 0;
  /// Index into TraceHeader::Frames of the task's call frame.
  uint32_t FrameIdx = 0;
  std::vector<TraceOp> Ops;
};

/// The text header. Every field participates in the config digest, so a
/// header edited out-of-band no longer opens.
struct TraceHeader {
  uint32_t Version = TraceFormatVersion;
  /// Which recorder/generator produced the trace (one token, no spaces).
  std::string Generator = "unknown";
  uint64_t Seed = 0;
  uint32_t Sessions = 0;
  uint32_t Epochs = 0;
  /// Total request tasks (boot excluded); informational.
  uint64_t Requests = 0;
  /// The recording workload's history bound; informational.
  uint32_t HistoryBound = 0;
  /// Number of global registers.
  uint32_t Globals = 0;
  /// Frame labels in profiler intern order. The replayer interns these
  /// up front on the main thread, which is what makes FrameIds — and so
  /// context identities — match the recording run exactly.
  std::vector<std::string> Frames;

  /// FNV-1a digest over the semantic header fields.
  uint64_t digest() const;
};

/// A complete trace.
struct Trace {
  TraceHeader Header;
  /// The boot task (session TraceBootSession), if any.
  std::optional<TraceTask> Boot;
  /// Request tasks, one vector per epoch, in execution (task-id) order.
  std::vector<std::vector<TraceTask>> Epochs;

  /// Total request tasks (boot excluded).
  uint64_t taskCount() const {
    uint64_t N = 0;
    for (const std::vector<TraceTask> &E : Epochs)
      N += E.size();
    return N;
  }

  /// Total ops, boot included.
  uint64_t opCount() const;
};

/// Serializes \p T (header + payload) into a byte string. The encoding is
/// canonical: equal traces serialize to equal bytes.
std::string writeTrace(const Trace &T);

/// Parses a serialized trace. Returns false — with a diagnostic in
/// \p Error when non-null — on any malformed input: bad magic, wrong
/// version, digest or checksum mismatch, truncation, unknown opcodes, or
/// out-of-range structure. \p Out is unspecified on failure.
bool readTrace(const std::string &Bytes, Trace &Out,
               std::string *Error = nullptr);

/// File convenience wrappers around writeTrace / readTrace.
bool writeTraceFile(const std::string &Path, const Trace &T,
                    std::string *Error = nullptr);
bool readTraceFile(const std::string &Path, Trace &Out,
                   std::string *Error = nullptr);

/// Structural validation beyond what the wire decoder enforces — the
/// replay-safety rules of DESIGN.md §14: frame and register indices in
/// range, globals allocated (with a fixed ADT) only in boot, each global
/// owned by exactly one session, temps allocated before use and never
/// used after retire, every op's shape matching its register's ADT, and
/// task ids unique. A trace that passes replays safely on any
/// MutatorThreads count.
bool validateTrace(const Trace &T, std::string *Error = nullptr);

} // namespace chameleon::apps

#endif // CHAMELEON_APPS_TRACEFORMAT_H
