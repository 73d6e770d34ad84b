//===- support/Arena.h ------------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Arena-based dynamic memory allocation (paper Section 4.3): HLO groups the
/// objects that are optimized together — e.g. everything making up a single
/// IR routine — into a dense set of pages so that locality is explicit and a
/// whole pool can be returned to the allocator at once. The arena does not
/// support per-object deallocation; compaction reclaims garbage by copying
/// the reachable objects out and dropping the pool (Section 4.2.2), and so
/// does RoutineBody::repack: when an LTRANS task ends, for the bodies a
/// roomy budget never compacts, and when a body is born (frontend, object
/// read, loader expansion), to drop its growth slabs' tails.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_SUPPORT_ARENA_H
#define SCMO_SUPPORT_ARENA_H

#include "support/MemoryTracker.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

namespace scmo {

/// A bump allocator over malloc'd slabs, with byte accounting.
///
/// Objects allocated in an arena must be trivially destructible or have their
/// destructors managed by the owner: the arena never runs destructors. All
/// bytes are charged to a MemoryTracker category so the NAIM machinery can
/// observe exactly how much memory each pool holds.
class Arena {
public:
  /// Creates an arena charging \p Cat in \p Tracker. \p Tracker may be null
  /// for untracked scratch arenas (tests).
  explicit Arena(MemoryTracker *Tracker = nullptr,
                 MemCategory Cat = MemCategory::Other,
                 size_t SlabSize = 64 * 1024)
      : Tracker(Tracker), Cat(Cat), SlabSize(SlabSize) {}

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  Arena(Arena &&Other) noexcept { *this = std::move(Other); }

  Arena &operator=(Arena &&Other) noexcept {
    if (this == &Other)
      return *this;
    reset();
    Tracker = Other.Tracker;
    Cat = Other.Cat;
    SlabSize = Other.SlabSize;
    Slabs = std::move(Other.Slabs);
    Cur = Other.Cur;
    End = Other.End;
    Allocated = Other.Allocated;
    Used = Other.Used;
    LastGrowth = Other.LastGrowth;
    Other.Slabs.clear();
    Other.Cur = Other.End = nullptr;
    Other.Allocated = 0;
    Other.Used = 0;
    Other.LastGrowth = 0;
    return *this;
  }

  ~Arena() { reset(); }

  /// Allocates \p Bytes with \p Align alignment.
  void *allocate(size_t Bytes, size_t Align = alignof(std::max_align_t)) {
    assert((Align & (Align - 1)) == 0 && "alignment must be a power of two");
    uintptr_t P = reinterpret_cast<uintptr_t>(Cur);
    uintptr_t Aligned = (P + Align - 1) & ~(Align - 1);
    if (Aligned + Bytes > reinterpret_cast<uintptr_t>(End)) {
      growSlab(Bytes + Align);
      P = reinterpret_cast<uintptr_t>(Cur);
      Aligned = (P + Align - 1) & ~(Align - 1);
    }
    Cur = reinterpret_cast<char *>(Aligned + Bytes);
    Used += Bytes;
    return reinterpret_cast<void *>(Aligned);
  }

  /// Constructs a T in the arena. T must not require destruction.
  template <typename T, typename... Args> T *create(Args &&...CtorArgs) {
    void *Mem = allocate(sizeof(T), alignof(T));
    return new (Mem) T(std::forward<Args>(CtorArgs)...);
  }

  /// Allocates an uninitialized array of \p N elements of T.
  template <typename T> T *allocateArray(size_t N) {
    return static_cast<T *>(allocate(sizeof(T) * N, alignof(T)));
  }

  /// Frees every slab and returns the arena to its initial state. This is
  /// the "return the pool's memory to the free list" operation from the
  /// paper's garbage collection discussion.
  void reset() {
    for (auto &S : Slabs)
      std::free(S.first);
    if (Tracker && Allocated) {
      Tracker->noteArenaWaste(Cat, Allocated > Used ? Allocated - Used : 0);
      Tracker->release(Cat, Allocated);
    }
    Slabs.clear();
    Cur = End = nullptr;
    Allocated = 0;
    Used = 0;
    LastGrowth = 0;
  }

  /// Total bytes held by this arena's slabs (capacity, not just used bytes —
  /// the quantity that actually occupies process memory).
  uint64_t bytesAllocated() const { return Allocated; }

  /// Bytes actually handed out to callers (excludes slab tails and
  /// alignment padding). bytesAllocated() - usedBytes() is the arena's
  /// current over-reservation.
  uint64_t usedBytes() const { return Used; }

  /// Number of slabs currently held.
  size_t slabCount() const { return Slabs.size(); }

  /// The tracker this arena charges (null for untracked arenas).
  MemoryTracker *tracker() const { return Tracker; }

  /// Makes one new slab of exactly \p Bytes current, skipping the growth
  /// policy's first-slab minimum and 1.5x steps. A caller that knows its
  /// total up front (RoutineBody::repack) fills it with no tail; any later
  /// overflow falls back to the normal growth policy, which steps from the
  /// last slab it made itself: a few instructions appended to an
  /// exact-size body must not buy a slab 1.5x the body. No-op for 0.
  void reserveExact(size_t Bytes) {
    if (Bytes)
      addSlab(Bytes);
  }

  /// Upper bound for one slab: doubling stops here so long-lived arenas
  /// never over-reserve more than this in one step (requests larger than
  /// the cap still get a dedicated exact-size slab).
  static constexpr size_t MaxSlabBytes = 8u << 20;

private:
  void growSlab(size_t MinBytes) {
    // Start small — most arenas (one per routine body) stay tiny, and a
    // full SlabSize first slab is pure waste for them — then grow by 1.5x
    // toward SlabSize and beyond, capped so huge arenas stop
    // over-reserving. The gentler factor trades a few extra mallocs on big
    // arenas for a much smaller unused tail on the final slab, which is
    // what peak-resident accounting actually sees.
    size_t Size = SlabSize / 8 < 256 ? size_t(256) : SlabSize / 8;
    if (LastGrowth) {
      Size = LastGrowth + LastGrowth / 2;
      if (Size > MaxSlabBytes)
        Size = MaxSlabBytes;
    }
    if (Size < MinBytes)
      Size = MinBytes;
    addSlab(Size);
    LastGrowth = Size;
  }

  void addSlab(size_t Size) {
    void *Mem = std::malloc(Size);
    if (!Mem) {
      // Out of host memory: nothing sensible to do in a no-exceptions
      // library; abort with a clear message.
      std::abort();
    }
    Slabs.emplace_back(Mem, Size);
    Cur = static_cast<char *>(Mem);
    End = Cur + Size;
    Allocated += Size;
    if (Tracker)
      Tracker->allocate(Cat, Size);
  }

  MemoryTracker *Tracker = nullptr;
  MemCategory Cat = MemCategory::Other;
  size_t SlabSize = 64 * 1024;
  std::vector<std::pair<void *, size_t>> Slabs;
  char *Cur = nullptr;
  char *End = nullptr;
  uint64_t Allocated = 0;
  uint64_t Used = 0;
  size_t LastGrowth = 0; ///< Size of the last growSlab slab, 0 if none.
};

/// A byte buffer charged to a MemoryTracker category. Used for compacted
/// (relocatable) object pools so their residency is visible to the NAIM
/// accounting, and released when offloaded to the disk repository.
class TrackedBuffer {
public:
  TrackedBuffer() = default;
  TrackedBuffer(MemoryTracker *Tracker, MemCategory Cat)
      : Tracker(Tracker), Cat(Cat) {}

  TrackedBuffer(const TrackedBuffer &) = delete;
  TrackedBuffer &operator=(const TrackedBuffer &) = delete;

  TrackedBuffer(TrackedBuffer &&Other) noexcept { *this = std::move(Other); }

  TrackedBuffer &operator=(TrackedBuffer &&Other) noexcept {
    if (this == &Other)
      return *this;
    clear();
    Tracker = Other.Tracker;
    Cat = Other.Cat;
    Data = std::move(Other.Data);
    Charged = Other.Charged;
    Other.Charged = 0;
    Other.Data.clear();
    return *this;
  }

  ~TrackedBuffer() { clear(); }

  /// Adopts \p Bytes as the buffer contents, charging the tracker. The
  /// buffer is trimmed first: encode buffers carry geometric-growth slack,
  /// and a compacted pool that quietly occupied twice its payload would
  /// undercut the whole point of compaction.
  void assign(std::vector<uint8_t> Bytes) {
    clear();
    Bytes.shrink_to_fit();
    Data = std::move(Bytes);
    Charged = Data.capacity();
    if (Tracker)
      Tracker->allocate(Cat, Charged);
  }

  /// Releases contents and un-charges the tracker.
  void clear() {
    if (Tracker && Charged)
      Tracker->release(Cat, Charged);
    Charged = 0;
    Data.clear();
    Data.shrink_to_fit();
  }

  /// Moves the contents out, un-charging the tracker.
  std::vector<uint8_t> take() {
    if (Tracker && Charged)
      Tracker->release(Cat, Charged);
    Charged = 0;
    std::vector<uint8_t> Out = std::move(Data);
    Data.clear();
    return Out;
  }

  bool empty() const { return Data.empty(); }
  size_t size() const { return Data.size(); }
  const std::vector<uint8_t> &bytes() const { return Data; }

private:
  MemoryTracker *Tracker = nullptr;
  MemCategory Cat = MemCategory::Other;
  std::vector<uint8_t> Data;
  uint64_t Charged = 0;
};

} // namespace scmo

#endif // SCMO_SUPPORT_ARENA_H
