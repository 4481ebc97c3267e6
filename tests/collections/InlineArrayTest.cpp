//===--- InlineArrayTest.cpp - Inline element storage tests ----*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inline-storage contract of the variable-length heap objects
/// (`ValueArray`, `IntArray`, `DataObject`; DESIGN.md §12): one allocator
/// block holds the object followed by its elements. Each type is checked at
/// length 0, 1, and one element past what the largest pooled size class
/// holds (the allocator's direct path): the block covers header, object
/// and elements; every index round-trips through get/set; `trace` visits
/// every slot in order; and a collection frees the object with the heap
/// verifying clean. Runs under ASan in both allocator modes in CI.
///
//===----------------------------------------------------------------------===//

#include "collections/CollectionRuntime.h"
#include "collections/Internals.h"
#include "runtime/ThreadCache.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace chameleon;

namespace {

/// Records every non-null reference a `trace` call reports, in order.
class RecordingTracer : public GcTracer {
public:
  std::vector<ObjectRef> Seen;

protected:
  void visitNonNull(ObjectRef Ref) override { Seen.push_back(Ref); }
};

/// Lengths 0, 1, and one past what the largest pooled block can hold.
std::vector<uint32_t> lengthsFor(size_t ElemBytes) {
  return {0, 1, static_cast<uint32_t>(alloc::kMaxPooledSize / ElemBytes) + 1};
}

/// Expects \p Obj's allocator block to hold the block header, the \p T
/// object and \p Length elements of \p Elem, with oversize blocks on the
/// direct path.
template <typename T, typename Elem>
void expectBlockHoldsElements(const T &Obj, uint32_t Length) {
  const size_t Needed = sizeof(alloc::BlockHeader) + sizeof(T)
                        + size_t{Length} * sizeof(Elem);
  const alloc::BlockHeader *B =
      alloc::blockOfPayload(const_cast<T *>(&Obj));
  if (B->State == alloc::kDirectTag) {
    EXPECT_GE(B->ClassOrSize, Needed) << "length " << Length;
    return;
  }
  ASSERT_EQ(B->State, alloc::kLiveTag) << "length " << Length;
  EXPECT_LE(Needed, alloc::kMaxPooledSize) << "length " << Length;
  EXPECT_GE(alloc::classSize(static_cast<uint32_t>(B->ClassOrSize)), Needed)
      << "length " << Length;
}

struct InlineArrayTest : ::testing::Test {
  CollectionRuntime RT;

  /// Drops \p Root, collects, and expects exactly \p Freed objects gone
  /// with the heap still verifying.
  void expectCollectionFrees(Handle &Root, uint64_t Freed) {
    std::string Error;
    ASSERT_TRUE(RT.heap().verifyHeap(&Error)) << Error;
    RT.heap().collect(/*Forced=*/true);
    const uint64_t Before = RT.heap().objectsInUse();
    Root.reset();
    RT.heap().collect(/*Forced=*/true);
    EXPECT_EQ(RT.heap().objectsInUse(), Before - Freed);
    EXPECT_TRUE(RT.heap().verifyHeap(&Error)) << Error;
  }

  /// Fills a fresh reference container (a ValueArray or a DataObject) of
  /// \p Length with one payload object per slot, then checks the block,
  /// the round trip, the trace, and the collection.
  template <typename T, typename AllocFn, typename GetFn, typename SetFn>
  void checkReferenceContainer(uint32_t Length, AllocFn Alloc, GetFn Get,
                               SetFn Set) {
    Handle Root(RT.heap(), Alloc(Length));
    std::vector<Value> Stored;
    for (uint32_t I = 0; I < Length; ++I) {
      Value Payload = RT.allocData(0);
      Set(RT.heap().getAs<T>(Root.ref()), I, Payload);
      Stored.push_back(Payload);
    }
    const T &Obj = RT.heap().getAs<T>(Root.ref());
    expectBlockHoldsElements<T, Value>(Obj, Length);
    for (uint32_t I = 0; I < Length; ++I)
      ASSERT_EQ(Get(Obj, I), Stored[I]) << "index " << I;

    RecordingTracer Tracer;
    Obj.trace(Tracer);
    ASSERT_EQ(Tracer.Seen.size(), Length);
    for (uint32_t I = 0; I < Length; ++I)
      ASSERT_EQ(Tracer.Seen[I], Stored[I].asRef()) << "slot " << I;

    expectCollectionFrees(Root, 1 + Length);
  }
};

TEST_F(InlineArrayTest, ValueArrayHoldsItsSlotsInline) {
  for (uint32_t Length : lengthsFor(sizeof(Value))) {
    SCOPED_TRACE(Length);
    checkReferenceContainer<ValueArray>(
        Length, [&](uint32_t N) { return RT.allocValueArray(N); },
        [](const ValueArray &A, uint32_t I) { return A.get(I); },
        [](ValueArray &A, uint32_t I, Value V) { A.set(I, V); });
    Handle Fresh(RT.heap(), RT.allocValueArray(Length));
    const ValueArray &A = RT.heap().getAs<ValueArray>(Fresh.ref());
    EXPECT_EQ(A.length(), Length);
    for (uint32_t I = 0; I < Length; ++I)
      ASSERT_TRUE(A.get(I).isNull()) << "slots start null, index " << I;
  }
}

TEST_F(InlineArrayTest, DataObjectHoldsItsFieldsInline) {
  for (uint32_t Length : lengthsFor(sizeof(Value))) {
    SCOPED_TRACE(Length);
    checkReferenceContainer<DataObject>(
        Length, [&](uint32_t N) { return RT.allocData(N).asRef(); },
        [](const DataObject &D, uint32_t I) { return D.getField(I); },
        [](DataObject &D, uint32_t I, Value V) { D.setField(I, V); });
    Handle Fresh(RT.heap(), RT.allocData(Length).asRef());
    const DataObject &D = RT.heap().getAs<DataObject>(Fresh.ref());
    EXPECT_EQ(D.fieldCount(), Length);
    for (uint32_t I = 0; I < Length; ++I)
      ASSERT_TRUE(D.getField(I).isNull()) << "fields start null, index " << I;
  }
}

TEST_F(InlineArrayTest, IntArrayHoldsItsSlotsInline) {
  for (uint32_t Length : lengthsFor(sizeof(int64_t))) {
    SCOPED_TRACE(Length);
    Handle Root(RT.heap(), RT.allocIntArray(Length));
    IntArray &A = RT.heap().getAs<IntArray>(Root.ref());
    ASSERT_EQ(A.length(), Length);
    expectBlockHoldsElements<IntArray, int64_t>(A, Length);
    for (uint32_t I = 0; I < Length; ++I)
      ASSERT_EQ(A.get(I), 0) << "slots start zeroed, index " << I;
    // Distinct values that use every byte of the 8-byte slot.
    auto Pattern = [](uint32_t I) {
      return static_cast<int64_t>(0x0101010101010101ull * (I % 255 + 1)) - I;
    };
    for (uint32_t I = 0; I < Length; ++I)
      A.set(I, Pattern(I));
    for (uint32_t I = 0; I < Length; ++I)
      ASSERT_EQ(A.get(I), Pattern(I)) << "index " << I;

    RecordingTracer Tracer;
    A.trace(Tracer);
    EXPECT_TRUE(Tracer.Seen.empty()) << "int slots hold no references";

    expectCollectionFrees(Root, 1);
  }
}

} // namespace
