//===--- Internals.h - Heap objects internal to collections ----*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The internal heap objects collection ADTs consist of: backing arrays,
/// chained map entries, linked-list entries, linked-hash entries, and the
/// per-iteration iterator objects the paper observes being massively
/// allocated (§5.4 "Iterators"). All are `TypeKind::CollectionInternal`:
/// their bytes are accounted through the owning wrapper's semantic map.
/// `DataObject` is the one *plain* object here — the payload applications
/// store in collections.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_COLLECTIONS_INTERNALS_H
#define CHAMELEON_COLLECTIONS_INTERNALS_H

#include "collections/Value.h"
#include "runtime/HeapObject.h"
#include "runtime/ThreadCache.h"

#include <memory>
#include <span>
#include <type_traits>

namespace chameleon {

/// Base of the variable-length heap objects: a length fixed at creation
/// and that many \p Elem elements stored inline right after the
/// \p Derived object, in the same allocator block (DESIGN.md §12) — the
/// header-then-slots layout `MemoryModel::arrayBytes` models. `create` is
/// the only way to make one; elements start value-initialised and are
/// never resized. `HeapObject::operator delete` frees the whole block by
/// its header, so the sized delete's `sizeof(Derived)` does no harm.
template <typename Derived, typename Elem>
class InlineElements : public HeapObject {
  static_assert(std::is_trivially_destructible_v<Elem>);

public:
  static std::unique_ptr<Derived> create(TypeId Type, uint64_t Bytes,
                                         uint32_t Length) {
    static_assert(alignof(Elem) <= alignof(Derived));
    void *Mem = alloc::allocateBlock(sizeof(Derived)
                                     + size_t{Length} * sizeof(Elem));
    std::unique_ptr<Derived> Obj(::new (Mem) Derived(Type, Bytes, Length));
    std::uninitialized_value_construct_n(Obj->data(), Length);
    return Obj;
  }

protected:
  InlineElements(TypeId Type, uint64_t Bytes, uint32_t Length)
      : HeapObject(Type, Bytes), Length(Length) {}

  std::span<const Elem> elements() const { return {data(), Length}; }

  Elem &at(uint32_t Index) const {
    assert(Index < Length && "array index out of bounds");
    return data()[Index];
  }

  const uint32_t Length;

private:
  Elem *data() const {
    return reinterpret_cast<Elem *>(
        const_cast<Derived *>(static_cast<const Derived *>(this)) + 1);
  }
};

/// A fixed-length reference array (the simulated `Object[]`).
class ValueArray : public InlineElements<ValueArray, Value> {
public:
  uint32_t length() const { return Length; }
  Value get(uint32_t Index) const { return at(Index); }
  void set(uint32_t Index, Value V) { at(Index) = V; }

  void trace(GcTracer &Tracer) const override {
    for (Value V : elements())
      Tracer.visit(V.refOrNull());
  }

private:
  friend InlineElements;
  ValueArray(TypeId Type, uint64_t Bytes, uint32_t Length)
      : InlineElements(Type, Bytes, Length) {}
};

/// A fixed-length primitive int array (4-byte slots under the 32-bit
/// model); backs IntArrayList.
class IntArray : public InlineElements<IntArray, int64_t> {
public:
  uint32_t length() const { return Length; }
  int64_t get(uint32_t Index) const { return at(Index); }
  void set(uint32_t Index, int64_t X) { at(Index) = X; }

private:
  friend InlineElements;
  IntArray(TypeId Type, uint64_t Bytes, uint32_t Length)
      : InlineElements(Type, Bytes, Length) {}
};

/// A chained hash-map entry: header + three references (key, value, next) —
/// the 24-byte object of the paper's §2.3 space analysis.
class MapEntry : public HeapObject {
public:
  MapEntry(TypeId Type, uint64_t Bytes, Value Key, Value Val, ObjectRef Next)
      : HeapObject(Type, Bytes), Key(Key), Val(Val), Next(Next) {}

  Value Key;
  Value Val;
  ObjectRef Next;

  void trace(GcTracer &Tracer) const override {
    Tracer.visit(Key.refOrNull());
    Tracer.visit(Val.refOrNull());
    Tracer.visit(Next);
  }
};

/// A doubly-linked list entry: header + item, prev, next (24 bytes).
class LinkedEntry : public HeapObject {
public:
  LinkedEntry(TypeId Type, uint64_t Bytes, Value Item, ObjectRef Prev,
              ObjectRef Next)
      : HeapObject(Type, Bytes), Item(Item), Prev(Prev), Next(Next) {}

  Value Item;
  ObjectRef Prev;
  ObjectRef Next;

  void trace(GcTracer &Tracer) const override {
    Tracer.visit(Item.refOrNull());
    Tracer.visit(Prev);
    Tracer.visit(Next);
  }
};

/// A linked-hash entry: header + item, bucket-chain next, order links
/// before/after, cached hash (32 bytes under the 32-bit model).
class LinkedHashEntry : public HeapObject {
public:
  LinkedHashEntry(TypeId Type, uint64_t Bytes, Value Item, ObjectRef Chain)
      : HeapObject(Type, Bytes), Item(Item), Chain(Chain) {}

  Value Item;
  ObjectRef Chain;  ///< next entry in the same hash bucket
  ObjectRef Before; ///< previous entry in insertion order
  ObjectRef After;  ///< next entry in insertion order

  void trace(GcTracer &Tracer) const override {
    Tracer.visit(Item.refOrNull());
    Tracer.visit(Chain);
    Tracer.visit(Before);
    Tracer.visit(After);
  }
};

/// The object allocated by every `iterator()` call (header + collection
/// reference + cursor; 16 bytes). Exists purely so iterator allocation
/// pressure is visible to the heap, as the paper discusses.
class IteratorObject : public HeapObject {
public:
  IteratorObject(TypeId Type, uint64_t Bytes, ObjectRef Coll)
      : HeapObject(Type, Bytes), Coll(Coll) {}

  ObjectRef Coll;

  void trace(GcTracer &Tracer) const override { Tracer.visit(Coll); }
};

/// A plain application payload object with \p PointerFields reference
/// fields — what workloads store inside collections.
class DataObject : public InlineElements<DataObject, Value> {
public:
  uint32_t fieldCount() const { return Length; }
  Value getField(uint32_t Index) const { return at(Index); }
  void setField(uint32_t Index, Value V) { at(Index) = V; }

  void trace(GcTracer &Tracer) const override {
    for (Value V : elements())
      Tracer.visit(V.refOrNull());
  }

private:
  friend InlineElements;
  DataObject(TypeId Type, uint64_t Bytes, uint32_t PointerFields)
      : InlineElements(Type, Bytes, PointerFields) {}
};

} // namespace chameleon

#endif // CHAMELEON_COLLECTIONS_INTERNALS_H
