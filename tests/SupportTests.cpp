//===- tests/SupportTests.cpp ---------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"
#include "support/ArenaAllocator.h"
#include "support/Fold.h"
#include "support/MemoryTracker.h"
#include "support/Prng.h"
#include "support/RegBitSet.h"
#include "support/Statistics.h"
#include "support/StringInterner.h"
#include "support/VarInt.h"

#include <gtest/gtest.h>

#include <limits>

using namespace scmo;

//===----------------------------------------------------------------------===//
// MemoryTracker
//===----------------------------------------------------------------------===//

TEST(MemoryTracker, TracksLiveAndPeakPerCategory) {
  MemoryTracker T;
  T.allocate(MemCategory::HloIr, 100);
  T.allocate(MemCategory::Llo, 50);
  EXPECT_EQ(T.liveBytes(MemCategory::HloIr), 100u);
  EXPECT_EQ(T.totalLiveBytes(), 150u);
  T.release(MemCategory::HloIr, 40);
  EXPECT_EQ(T.liveBytes(MemCategory::HloIr), 60u);
  EXPECT_EQ(T.peakBytes(MemCategory::HloIr), 100u);
  EXPECT_EQ(T.totalPeakBytes(), 150u);
}

TEST(MemoryTracker, HloAggregateExcludesLlo) {
  MemoryTracker T;
  T.allocate(MemCategory::HloIr, 10);
  T.allocate(MemCategory::HloSymtab, 20);
  T.allocate(MemCategory::HloGlobal, 30);
  T.allocate(MemCategory::HloCompact, 40);
  T.allocate(MemCategory::Llo, 1000);
  EXPECT_EQ(T.hloLiveBytes(), 100u);
  T.takeHloSample();
  EXPECT_EQ(T.hloPeakBytes(), 100u);
}

TEST(MemoryTracker, HeapCapLatchesExhaustion) {
  MemoryTracker T;
  T.setHeapCap(100);
  T.allocate(MemCategory::Other, 90);
  EXPECT_FALSE(T.heapExhausted());
  T.allocate(MemCategory::Other, 20);
  EXPECT_TRUE(T.heapExhausted());
  // Releasing does not clear the latch: the compile already failed.
  T.release(MemCategory::Other, 110);
  EXPECT_TRUE(T.heapExhausted());
  T.resetPeaks();
  EXPECT_FALSE(T.heapExhausted());
}

//===----------------------------------------------------------------------===//
// Arena
//===----------------------------------------------------------------------===//

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  Arena A;
  void *P1 = A.allocate(10, 8);
  void *P2 = A.allocate(10, 8);
  EXPECT_NE(P1, P2);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P1) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P2) % 8, 0u);
  int *Val = A.create<int>(42);
  EXPECT_EQ(*Val, 42);
}

TEST(Arena, ChargesAndReleasesTracker) {
  MemoryTracker T;
  {
    Arena A(&T, MemCategory::HloIr, 1024);
    A.allocate(100);
    EXPECT_GT(T.liveBytes(MemCategory::HloIr), 0u);
  }
  EXPECT_EQ(T.liveBytes(MemCategory::HloIr), 0u);
}

TEST(Arena, GrowsSlabsForLargeRequests) {
  Arena A(nullptr, MemCategory::Other, 64);
  void *Big = A.allocate(10000);
  EXPECT_NE(Big, nullptr);
  EXPECT_GE(A.bytesAllocated(), 10000u);
}

TEST(Arena, ResetReturnsAllMemory) {
  MemoryTracker T;
  Arena A(&T, MemCategory::HloIr);
  for (int I = 0; I != 1000; ++I)
    A.allocate(64);
  EXPECT_GT(T.liveBytes(MemCategory::HloIr), 0u);
  A.reset();
  EXPECT_EQ(T.liveBytes(MemCategory::HloIr), 0u);
  EXPECT_EQ(A.bytesAllocated(), 0u);
}

TEST(Arena, MoveTransfersCharge) {
  MemoryTracker T;
  Arena A(&T, MemCategory::HloIr);
  A.allocate(100);
  uint64_t Live = T.liveBytes(MemCategory::HloIr);
  Arena B = std::move(A);
  EXPECT_EQ(T.liveBytes(MemCategory::HloIr), Live);
  B.reset();
  EXPECT_EQ(T.liveBytes(MemCategory::HloIr), 0u);
}

TEST(TrackedBuffer, AssignTakeClearAccounting) {
  MemoryTracker T;
  TrackedBuffer Buf(&T, MemCategory::HloCompact);
  Buf.assign(std::vector<uint8_t>(100, 7));
  EXPECT_GE(T.liveBytes(MemCategory::HloCompact), 100u);
  std::vector<uint8_t> Out = Buf.take();
  EXPECT_EQ(Out.size(), 100u);
  EXPECT_EQ(T.liveBytes(MemCategory::HloCompact), 0u);
  Buf.assign(std::move(Out));
  Buf.clear();
  EXPECT_EQ(T.liveBytes(MemCategory::HloCompact), 0u);
}

TEST(TrackedBuffer, MoveDoesNotDoubleRelease) {
  MemoryTracker T;
  TrackedBuffer A(&T, MemCategory::HloCompact);
  A.assign(std::vector<uint8_t>(64, 1));
  TrackedBuffer B = std::move(A);
  EXPECT_EQ(B.size(), 64u);
  B.clear();
  EXPECT_EQ(T.liveBytes(MemCategory::HloCompact), 0u);
  // A's destructor must not release again (would assert in the tracker).
}

//===----------------------------------------------------------------------===//
// VarInt
//===----------------------------------------------------------------------===//

TEST(VarInt, UnsignedRoundTrip) {
  std::vector<uint8_t> Buf;
  const uint64_t Values[] = {0,     1,    127,        128,
                             16383, 16384, 0xffffffff, ~0ull};
  for (uint64_t V : Values)
    encodeVarUInt(Buf, V);
  ByteReader Reader(Buf);
  for (uint64_t V : Values)
    EXPECT_EQ(Reader.readVarUInt(), V);
  EXPECT_TRUE(Reader.atEnd());
  EXPECT_FALSE(Reader.hadError());
}

TEST(VarInt, SignedRoundTrip) {
  std::vector<uint8_t> Buf;
  const int64_t Values[] = {0,  -1, 1, -64, 63, -65,
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()};
  for (int64_t V : Values)
    encodeVarInt(Buf, V);
  ByteReader Reader(Buf);
  for (int64_t V : Values)
    EXPECT_EQ(Reader.readVarInt(), V);
  EXPECT_FALSE(Reader.hadError());
}

TEST(VarInt, SmallValuesAreOneByte) {
  std::vector<uint8_t> Buf;
  encodeVarUInt(Buf, 127);
  EXPECT_EQ(Buf.size(), 1u);
  encodeVarUInt(Buf, 128);
  EXPECT_EQ(Buf.size(), 3u);
}

TEST(VarInt, TruncatedInputSetsError) {
  std::vector<uint8_t> Buf;
  encodeVarUInt(Buf, 1u << 20);
  Buf.pop_back();
  ByteReader Reader(Buf);
  Reader.readVarUInt();
  EXPECT_TRUE(Reader.hadError());
}

TEST(VarInt, ReadBytesBoundsChecked) {
  std::vector<uint8_t> Buf = {1, 2, 3};
  ByteReader Reader(Buf);
  uint8_t Out[8];
  EXPECT_TRUE(Reader.readBytes(Out, 3));
  EXPECT_FALSE(Reader.readBytes(Out, 1));
  EXPECT_TRUE(Reader.hadError());
}

TEST(VarInt, OverlongEncodingIsAnError) {
  // 11 continuation bytes exceed a 64-bit value.
  std::vector<uint8_t> Buf(11, 0x80);
  Buf.push_back(0x01);
  ByteReader Reader(Buf);
  Reader.readVarUInt();
  EXPECT_TRUE(Reader.hadError());
}

//===----------------------------------------------------------------------===//
// Prng
//===----------------------------------------------------------------------===//

TEST(Prng, DeterministicForSeed) {
  Prng A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Prng, DifferentSeedsDiffer) {
  Prng A(1), B(2);
  int Same = 0;
  for (int I = 0; I != 64; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 4);
}

TEST(Prng, RangesRespectBounds) {
  Prng R(7);
  for (int I = 0; I != 1000; ++I) {
    EXPECT_LT(R.nextBelow(10), 10u);
    int64_t V = R.nextRange(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Prng, HeavyTailStaysInRange) {
  Prng R(9);
  uint64_t MaxSeen = 0;
  for (int I = 0; I != 10000; ++I) {
    uint64_t V = R.nextHeavyTail(1000);
    EXPECT_GE(V, 1u);
    EXPECT_LE(V, 1000u);
    MaxSeen = std::max(MaxSeen, V);
  }
  EXPECT_GT(MaxSeen, 100u); // The tail actually reaches high values.
}

TEST(Prng, ForkIsIndependent) {
  Prng A(5);
  Prng Child = A.fork();
  uint64_t C1 = Child.next();
  // Advancing the parent does not change what an identical fork produces.
  Prng B(5);
  Prng Child2 = B.fork();
  EXPECT_EQ(Child2.next(), C1);
}

//===----------------------------------------------------------------------===//
// StringInterner / Statistics / RegBitSet
//===----------------------------------------------------------------------===//

TEST(StringInterner, DenseStableIds) {
  StringInterner SI;
  StrId A = SI.intern("alpha");
  StrId B = SI.intern("beta");
  EXPECT_NE(A, B);
  EXPECT_EQ(SI.intern("alpha"), A);
  EXPECT_EQ(SI.text(A), "alpha");
  EXPECT_EQ(SI.intern(""), 0u);
}

TEST(Statistics, AccumulatesAndSorts) {
  Statistics S;
  S.add("b.count");
  S.add("a.count", 5);
  S.add("b.count", 2);
  EXPECT_EQ(S.get("b.count"), 3u);
  EXPECT_EQ(S.get("a.count"), 5u);
  EXPECT_EQ(S.get("missing"), 0u);
  EXPECT_EQ(S.all().begin()->first, "a.count");
}

TEST(Statistics, ViewKeysNameTheSameCounters) {
  Statistics S;
  std::string Owned = "dce.instrs";
  std::string_view Prefix = std::string_view("dce.nops.extra").substr(0, 8);
  S.add(Owned, 4);
  S.add("dce.instrs");
  S.set(Prefix, 7);
  S.add("dce.nops", 0);
  EXPECT_EQ(S.get(std::string_view("dce.instrs")), 5u);
  EXPECT_EQ(S.get("dce.nops"), 7u);
  EXPECT_EQ(S.all().size(), 2u);
  Statistics T;
  T.merge(S);
  T.merge(S);
  EXPECT_EQ(T.get("dce.instrs"), 10u);
  EXPECT_EQ(T.get("dce.nops"), 14u);
}

TEST(RegBitSet, SetTestResetMerge) {
  RegBitSet A(200), B(200);
  A.set(0);
  A.set(63);
  A.set(64);
  A.set(199);
  EXPECT_TRUE(A.test(63));
  EXPECT_FALSE(A.test(100));
  B.set(100);
  EXPECT_TRUE(B.merge(A));
  EXPECT_FALSE(B.merge(A)); // Second merge changes nothing.
  EXPECT_TRUE(B.test(199));
  B.reset(199);
  EXPECT_FALSE(B.test(199));
}

TEST(RegBitSet, MergeMinusMasksDefs) {
  RegBitSet In(64), Out(64), Def(64);
  Out.set(3);
  Out.set(5);
  Def.set(5);
  In.mergeMinus(Out, Def);
  EXPECT_TRUE(In.test(3));
  EXPECT_FALSE(In.test(5));
}

TEST(RegBitSet, ForEachVisitsAscending) {
  RegBitSet A(300);
  const uint32_t Bits[] = {1, 64, 65, 128, 299};
  for (uint32_t B : Bits)
    A.set(B);
  std::vector<uint32_t> Seen;
  A.forEach([&](uint32_t R) { Seen.push_back(R); });
  EXPECT_EQ(Seen, std::vector<uint32_t>(std::begin(Bits), std::end(Bits)));
}

//===----------------------------------------------------------------------===//
// Fold semantics (must match the VM exactly)
//===----------------------------------------------------------------------===//

TEST(Fold, DivisionEdgeCasesAreDefined) {
  EXPECT_EQ(safeDiv(10, 0), 0);
  EXPECT_EQ(safeRem(10, 0), 0);
  int64_t Min = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(safeDiv(Min, -1), Min);
  EXPECT_EQ(safeRem(Min, -1), 0);
  EXPECT_EQ(safeDiv(7, 2), 3);
  EXPECT_EQ(safeDiv(-7, 2), -3);
  EXPECT_EQ(safeRem(-7, 2), -1);
}

TEST(Fold, WrappingArithmetic) {
  int64_t Max = std::numeric_limits<int64_t>::max();
  int64_t Min = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(wrapAdd(Max, 1), Min);
  EXPECT_EQ(wrapSub(Min, 1), Max);
  EXPECT_EQ(wrapNeg(Min), Min);
  EXPECT_EQ(wrapMul(Max, 2), -2);
}

//===----------------------------------------------------------------------===//
// ArenaAllocator
//===----------------------------------------------------------------------===//

TEST(ArenaAllocator, NullArenaFallsBackToHeap) {
  ArenaAllocator<int> Alloc; // no arena
  int *P = Alloc.allocate(4);
  ASSERT_NE(P, nullptr);
  P[0] = 1;
  P[3] = 4;
  Alloc.deallocate(P, 4); // real operator delete, not a no-op
  ArenaVector<int> V;     // default-constructed container is heap-backed
  V.assign({1, 2, 3});
  EXPECT_EQ(V.get_allocator().arena(), nullptr);
  EXPECT_EQ(V[2], 3);
}

TEST(ArenaAllocator, PooledAllocationsRespectAlignment) {
  Arena A(nullptr, MemCategory::Other, 512);
  ArenaAllocator<char> CharAlloc(&A);
  ArenaAllocator<double> DblAlloc(&A);
  // Interleave odd-sized char requests with doubles; every double block
  // must still come back correctly aligned.
  for (int I = 0; I != 8; ++I) {
    char *C = CharAlloc.allocate(3);
    ASSERT_NE(C, nullptr);
    double *D = DblAlloc.allocate(2);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(D) % alignof(double), 0u);
    D[0] = 1.5;
    D[1] = 2.5;
  }
}

TEST(ArenaAllocator, ContainerRoundTripsInPool) {
  Arena A(nullptr, MemCategory::Other, 1024);
  ArenaVector<uint32_t> V{ArenaAllocator<uint32_t>(&A)};
  for (uint32_t I = 0; I != 200; ++I)
    V.push_back(I * 3);
  ASSERT_EQ(V.size(), 200u);
  EXPECT_EQ(V[199], 597u);
  EXPECT_GT(A.usedBytes(), 200u * sizeof(uint32_t) - 1);

  ArenaAllocator<std::pair<const int, int>> MapAlloc(&A);
  ArenaMap<int, int> M(MapAlloc);
  for (int I = 0; I != 50; ++I)
    M.try_emplace(I, I * I);
  EXPECT_EQ(M.at(7), 49);
  EXPECT_EQ(M.size(), 50u);

  ArenaAllocator<int> SetAlloc(&A);
  ArenaSet<int> S(std::less<int>(), SetAlloc);
  S.insert(3);
  S.insert(1);
  S.insert(3);
  EXPECT_EQ(S.size(), 2u);
  EXPECT_TRUE(S.count(1));
}

TEST(ArenaAllocator, TrackerChargeFollowsArenaReset) {
  MemoryTracker T;
  Arena A(&T, MemCategory::HloDerived, 1024);
  {
    ArenaVector<uint64_t> V{ArenaAllocator<uint64_t>(&A)};
    for (uint64_t I = 0; I != 500; ++I)
      V.push_back(I);
    // Growth charged the tracker with slab capacity.
    EXPECT_GE(T.liveBytes(MemCategory::HloDerived),
              500 * sizeof(uint64_t));
    // deallocate() during vector growth must not release anything: the
    // pool gives memory back only at reset().
    EXPECT_EQ(T.liveBytes(MemCategory::HloDerived), A.bytesAllocated());
  }
  A.reset();
  EXPECT_EQ(T.liveBytes(MemCategory::HloDerived), 0u);
  EXPECT_GT(T.peakBytes(MemCategory::HloDerived), 0u);
}

TEST(ArenaAllocator, CopyConstructionInheritsArena) {
  Arena A(nullptr, MemCategory::Other, 512);
  ArenaVector<int> Proto{ArenaAllocator<int>(&A)};
  Proto.assign({1, 2, 3});
  // The prototype pattern: fill-constructing copies of a pooled element
  // keeps the copies in the same pool.
  std::vector<ArenaVector<int>> Rows(4, Proto);
  for (const ArenaVector<int> &R : Rows) {
    EXPECT_EQ(R.get_allocator().arena(), &A);
    EXPECT_EQ(R.back(), 3);
  }
  // Copy-assign does NOT propagate: a heap-backed destination assigned
  // from a pooled source stays heap-backed (and owns its own copy).
  ArenaVector<int> HeapDst;
  HeapDst = Proto;
  EXPECT_EQ(HeapDst.get_allocator().arena(), nullptr);
  EXPECT_EQ(HeapDst.size(), 3u);
}

TEST(ArenaAllocator, MoveKeepsElementsValid) {
  Arena A(nullptr, MemCategory::Other, 512);
  ArenaVector<int> Src{ArenaAllocator<int>(&A)};
  Src.assign({7, 8, 9});
  ArenaVector<int> Dst(std::move(Src)); // move-construct: adopts buffer
  EXPECT_EQ(Dst.get_allocator().arena(), &A);
  ASSERT_EQ(Dst.size(), 3u);
  EXPECT_EQ(Dst[0], 7);
}

//===----------------------------------------------------------------------===//
// Arena growth policy and waste accounting
//===----------------------------------------------------------------------===//

TEST(Arena, SlabGrowthIsCappedAndUsedIsTracked) {
  Arena A(nullptr, MemCategory::Other);
  uint64_t PrevAllocated = 0;
  for (int I = 0; I != 64; ++I) {
    A.allocate(1 << 20); // 1 MiB requests force repeated slab growth
    uint64_t Grew = A.bytesAllocated() - PrevAllocated;
    if (Grew) {
      EXPECT_LE(Grew, Arena::MaxSlabBytes);
    }
    PrevAllocated = A.bytesAllocated();
  }
  EXPECT_EQ(A.usedBytes(), 64u << 20);
  EXPECT_GE(A.bytesAllocated(), A.usedBytes());
}

TEST(Arena, ResetReportsWasteToTracker) {
  MemoryTracker T;
  Arena A(&T, MemCategory::Llo, 4096);
  A.allocate(100); // slab capacity exceeds the 100 bytes handed out
  uint64_t Expected = A.bytesAllocated() - A.usedBytes();
  ASSERT_GT(Expected, 0u);
  EXPECT_EQ(T.arenaWasteBytes(MemCategory::Llo), 0u);
  A.reset();
  EXPECT_EQ(T.arenaWasteBytes(MemCategory::Llo), Expected);
  EXPECT_EQ(T.liveBytes(MemCategory::Llo), 0u);
}

//===----------------------------------------------------------------------===//
// Stage-scope allocation profile
//===----------------------------------------------------------------------===//

TEST(MemoryTracker, StageScopesAttributeToInnermost) {
  MemoryTracker T;
  {
    StageScope Outer(&T, "wpa");
    T.allocate(MemCategory::HloGlobal, 100);
    {
      StageScope Inner(&T, "ltrans");
      T.allocate(MemCategory::HloIr, 40);
      T.release(MemCategory::HloIr, 40);
    }
    EXPECT_EQ(T.currentStageName(), "wpa"); // pop restored the outer scope
    T.allocate(MemCategory::HloGlobal, 10);
  }
  EXPECT_EQ(T.currentStageName(), "");
  MemoryProfile P = T.snapshot();
  ASSERT_EQ(P.numStages(), 2u);
  EXPECT_EQ(P.StageNames[0], "wpa"); // first-push order
  EXPECT_EQ(P.StageNames[1], "ltrans");
  const MemoryProfile::Cell &Wpa = P.cell(0, MemCategory::HloGlobal);
  EXPECT_EQ(Wpa.Allocs, 2u);
  EXPECT_EQ(Wpa.AllocBytes, 110u);
  const MemoryProfile::Cell &Lt = P.cell(1, MemCategory::HloIr);
  EXPECT_EQ(Lt.Allocs, 1u);
  EXPECT_EQ(Lt.AllocBytes, 40u);
  EXPECT_EQ(Lt.ReleaseBytes, 40u);
  // The inner allocation must not leak into the outer stage's cell.
  EXPECT_EQ(P.cell(0, MemCategory::HloIr).AllocBytes, 0u);
}

TEST(MemoryTracker, StageReentryAccumulatesIntoOneRow) {
  MemoryTracker T;
  for (int I = 0; I != 3; ++I) {
    StageScope S(&T, "llo");
    T.allocate(MemCategory::Llo, 10);
    T.release(MemCategory::Llo, 10);
  }
  MemoryProfile P = T.snapshot();
  ASSERT_EQ(P.numStages(), 1u);
  EXPECT_EQ(P.cell(0, MemCategory::Llo).Allocs, 3u);
  EXPECT_EQ(P.cell(0, MemCategory::Llo).AllocBytes, 30u);
}

TEST(MemoryTracker, ArenaWasteLandsInEnclosingStage) {
  MemoryTracker T;
  {
    StageScope S(&T, "dce");
    Arena A(&T, MemCategory::HloDerived, 4096);
    A.allocate(64);
    A.reset(); // waste is noted by reset, inside the stage scope
  }
  MemoryProfile P = T.snapshot();
  ASSERT_EQ(P.numStages(), 1u);
  uint64_t Waste = P.cell(0, MemCategory::HloDerived).WasteBytes;
  EXPECT_GT(Waste, 0u);
  EXPECT_EQ(P.CategoryWaste[static_cast<unsigned>(MemCategory::HloDerived)],
            Waste);
  EXPECT_EQ(Waste, T.arenaWasteBytes(MemCategory::HloDerived));
}

TEST(MemoryTracker, BalancedReleasesRecordNoUnderflow) {
  MemoryTracker T;
  T.allocate(MemCategory::Other, 64);
  T.release(MemCategory::Other, 64);
  EXPECT_EQ(T.underflowEvents(), 0u);
  EXPECT_EQ(T.underflowCategory(), -1);
}

#ifdef NDEBUG
// Only meaningful in release builds: debug builds assert on over-release
// instead of saturating.
TEST(MemoryTracker, OverReleaseSaturatesAndRecordsDiagnostic) {
  MemoryTracker T;
  T.allocate(MemCategory::Llo, 50);
  T.release(MemCategory::Llo, 80); // caller bug: 30 bytes over
  EXPECT_EQ(T.liveBytes(MemCategory::Llo), 0u); // clamped, not wrapped
  EXPECT_EQ(T.totalLiveBytes(), 0u);
  EXPECT_EQ(T.underflowEvents(), 1u);
  EXPECT_EQ(T.underflowCategory(),
            static_cast<int>(MemCategory::Llo));
  // Later traffic keeps working on sane counters.
  T.allocate(MemCategory::Llo, 10);
  EXPECT_EQ(T.liveBytes(MemCategory::Llo), 10u);
}
#endif
