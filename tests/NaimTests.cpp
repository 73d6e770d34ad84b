//===- tests/NaimTests.cpp ------------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The NAIM machinery: repository I/O, the loader state machine, thresholds,
/// LRU eviction, and the memory accounting the scaling figures rely on.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "bytecode/Compact.h"
#include "bytecode/ObjectFile.h"
#include "frontend/Frontend.h"
#include "naim/Loader.h"
#include "naim/Repository.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace scmo;
using namespace scmo::test;

//===----------------------------------------------------------------------===//
// Repository
//===----------------------------------------------------------------------===//

TEST(Repository, StoreAndFetchRoundTrip) {
  Repository Repo;
  std::vector<uint8_t> A = {1, 2, 3, 4};
  std::vector<uint8_t> B = {9, 8, 7};
  uint64_t OffA = *Repo.store(A);
  uint64_t OffB = *Repo.store(B);
  EXPECT_NE(OffA, OffB);
  std::vector<uint8_t> Out;
  ASSERT_TRUE(Repo.fetch(OffA, A.size(), Out).ok());
  EXPECT_EQ(Out, A);
  ASSERT_TRUE(Repo.fetch(OffB, B.size(), Out).ok());
  EXPECT_EQ(Out, B);
  // Random re-reads work (not just last-written).
  ASSERT_TRUE(Repo.fetch(OffA, A.size(), Out).ok());
  EXPECT_EQ(Out, A);
  EXPECT_EQ(Repo.storeCount(), 2u);
  EXPECT_EQ(Repo.fetchCount(), 3u);
  EXPECT_EQ(Repo.bytesStored(), 7u);
}

TEST(Repository, FetchBeforeAnyStoreFails) {
  Repository Repo;
  std::vector<uint8_t> Out;
  Status S = Repo.fetch(0, 4, Out);
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::Unavailable);
}

TEST(Repository, AnonymousBackingStorageHasNoName) {
  // Anonymous repositories never expose a path: the backing file is
  // O_TMPFILE (or created-and-unlinked where that is unsupported), so a
  // builder SIGKILLed mid-build cannot leave repository files littering /tmp.
  Repository Repo;
  std::vector<uint8_t> Payload = {1, 2, 3};
  uint64_t Off = *Repo.store(Payload);
  EXPECT_TRUE(Repo.path().empty());
  std::vector<uint8_t> Out;
  ASSERT_TRUE(Repo.fetch(Off, Payload.size(), Out).ok());
  EXPECT_EQ(Out, Payload);
}

TEST(Repository, NamedBackingFileIsRemovedOnDestruction) {
  std::string Path =
      "/tmp/scmo-named-repo-" + std::to_string(::getpid()) + ".naim";
  {
    Repository Repo(Path);
    Repo.store({1, 2, 3});
    ASSERT_EQ(Repo.path(), Path);
    std::vector<uint8_t> Probe;
    EXPECT_TRUE(readFile(Path, Probe));
  }
  std::vector<uint8_t> Probe;
  EXPECT_FALSE(readFile(Path, Probe));
}

//===----------------------------------------------------------------------===//
// Loader
//===----------------------------------------------------------------------===//

namespace {

/// Program with N routines, each a distinct small body.
struct LoaderFixture {
  MemoryTracker Tracker;
  Program P{&Tracker};
  std::vector<RoutineId> Routines;

  explicit LoaderFixture(unsigned N) {
    ModuleId M = P.addModule("m");
    Prng Rng(1234);
    for (unsigned I = 0; I != N; ++I) {
      RoutineId R =
          P.declareRoutine(M, "r" + std::to_string(I), 0, false);
      auto Body = std::make_unique<RoutineBody>(&Tracker);
      Body->NumParams = 0;
      Body->NextReg = 1;
      Body->newBlock();
      // Give each body a recognizable payload and some bulk.
      for (unsigned K = 0; K != 20 + I; ++K) {
        Instr *MovI = Body->newInstr(Opcode::Mov);
        MovI->Dst = 0;
        MovI->A = Operand::imm(int64_t(I) * 1000 + K);
        Body->Blocks[0].Instrs.push_back(MovI);
      }
      Instr *Ret = Body->newInstr(Opcode::Ret);
      Ret->A = Operand::imm(int64_t(I));
      Body->Blocks[0].Instrs.push_back(Ret);
      P.defineRoutine(R, M, std::move(Body));
      Routines.push_back(R);
    }
  }
};

int64_t retValueOf(const RoutineBody &Body) {
  return Body.Blocks[0].Instrs.back()->A.asImm();
}

} // namespace

//===----------------------------------------------------------------------===//
// Exact-size resident bodies
//===----------------------------------------------------------------------===//

namespace {

/// Instruction and argument bytes the block lists of \p Body name: what an
/// exact-size body holds and nothing more.
uint64_t liveIlBytes(const RoutineBody &Body) {
  uint64_t Bytes = 0;
  for (const BasicBlock &BB : Body.Blocks)
    for (const Instr *I : BB.Instrs)
      Bytes += sizeof(Instr) + I->NumArgs * sizeof(Operand);
  return Bytes;
}

/// Large enough bodies that a growth arena keeps a slab tail.
constexpr const char *ExactSizeSource = R"(
func mix(a, b, c) {
  var x = a * 3 + b;
  var y = x - c * 7;
  while (y > 100) { y = y / 2 + a; x = x + 1; }
  if (x < y) { x = y - x; } else { x = x - y; }
  return x + y + a + b + c;
}
func main() {
  var s = 0;
  var i = 0;
  while (i < 40) {
    s = s + mix(i, s, 3) + mix(s, i, 5) + mix(1, 2, i);
    if (s > 100000) { s = s % 977; }
    i = i + 1;
  }
  print s;
  print mix(s, i, 9);
  return 0;
}
)";

} // namespace

TEST(Loader, ResidentBodiesAreBornAtTheirLiveSize) {
  // The frontend, an object read and a loader expansion each hand over a
  // body that stays resident; none may keep its growth slabs' tails.
  MemoryTracker Tracker;
  Program P(&Tracker);
  FrontendResult FR = compileSource(P, "m", ExactSizeSource);
  ASSERT_TRUE(FR.Ok) << FR.Error;
  const ModuleId M = FR.Module;
  unsigned Bodies = 0;
  for (RoutineId R : P.module(M).Routines) {
    const RoutineBody &Body = P.body(R);
    EXPECT_EQ(Body.irBytes(), liveIlBytes(Body)) << "frontend " << R;
    // The control: a plain decode of the same body keeps a tail.
    std::unique_ptr<RoutineBody> Grown =
        expandRoutine(compactRoutine(Body), &Tracker);
    ASSERT_TRUE(Grown);
    EXPECT_GT(Grown->irBytes(), liveIlBytes(*Grown)) << R;
    ++Bodies;
  }
  ASSERT_EQ(Bodies, 2u);

  const std::vector<uint8_t> Obj = writeObject(P, M);
  MemoryTracker ReadTracker;
  Program Read(&ReadTracker);
  std::string Err;
  ObjectIndex Index;
  ModuleId RM = readObject(Read, Obj, Err, &Index);
  ASSERT_NE(RM, InvalidId) << Err;
  for (RoutineId R : Read.module(RM).Routines)
    EXPECT_EQ(Read.body(R).irBytes(), liveIlBytes(Read.body(R)))
        << "readObject " << R;
  for (size_t B = 0; B != Index.DefinedHere.size(); ++B) {
    std::unique_ptr<RoutineBody> Body =
        expandBodyFromObject(Obj, Index, B, &ReadTracker);
    ASSERT_TRUE(Body);
    EXPECT_EQ(Body->irBytes(), liveIlBytes(*Body)) << "object body " << B;
  }

  NaimConfig C;
  C.Mode = NaimMode::CompactIr;
  C.ExpandedCacheBytes = 0; // Every release compacts.
  Loader L(Read, C);
  L.releaseAll();
  for (RoutineId R : Read.module(RM).Routines) {
    ASSERT_EQ(Read.routine(R).Slot.State, PoolState::Compact);
    const RoutineBody &Body = L.acquireRead(R);
    EXPECT_EQ(Body.irBytes(), liveIlBytes(Body)) << "expansion " << R;
    L.release(R);
  }
  EXPECT_EQ(L.stats().Expansions, 2u);
}

TEST(Loader, SnapshotDecodesKeepTheirGrowthArena) {
  // A snapshot decode lives only as long as the LTRANS task that asked for
  // it, so expandSnapshot spends no repack on it: no arena is dropped (a
  // repack would note the decode arena's waste) and the tail is still
  // there. Both snapshot kinds: compact bytes and a repository record.
  for (NaimMode Mode : {NaimMode::CompactIr, NaimMode::Offload}) {
    MemoryTracker Tracker;
    Program P(&Tracker);
    FrontendResult FR = compileSource(P, "m", ExactSizeSource);
    ASSERT_TRUE(FR.Ok) << FR.Error;
    const RoutineId R = P.findRoutine("main");
    NaimConfig C;
    C.Mode = Mode;
    C.ExpandedCacheBytes = Mode == NaimMode::Offload ? 0 : 64u << 20;
    C.CompactResidentBytes = 0;
    Loader L(P, C);
    L.releaseAll();
    PoolSnapshot Snap = L.snapshotPool(R);
    ASSERT_EQ(Snap.isRecord(), Mode == NaimMode::Offload);
    const uint64_t Waste = Tracker.arenaWasteBytes(MemCategory::HloIr);
    std::unique_ptr<RoutineBody> Body = L.expandSnapshot(R, Snap);
    ASSERT_TRUE(Body);
    EXPECT_TRUE(L.firstError().ok()) << L.firstError().toString();
    EXPECT_EQ(Tracker.arenaWasteBytes(MemCategory::HloIr), Waste)
        << int(Mode);
    EXPECT_GT(Body->irBytes(), liveIlBytes(*Body)) << int(Mode);
    EXPECT_EQ(L.stats().Expansions, 0u) << int(Mode);
  }
}

TEST(Loader, OffModeNeverCompacts) {
  LoaderFixture F(8);
  NaimConfig C;
  C.Mode = NaimMode::Off;
  C.ExpandedCacheBytes = 1; // Would force eviction if the mode allowed it.
  Loader L(F.P, C);
  for (RoutineId R : F.Routines) {
    L.acquire(R);
    L.release(R);
  }
  EXPECT_EQ(L.stats().Compactions, 0u);
  for (RoutineId R : F.Routines)
    EXPECT_EQ(F.P.routine(R).Slot.State, PoolState::Expanded);
}

TEST(Loader, TightBudgetCompactsLruFirst) {
  LoaderFixture F(8);
  NaimConfig C;
  C.Mode = NaimMode::CompactIr;
  C.ExpandedCacheBytes = 0; // Evict everything on release.
  Loader L(F.P, C);
  for (RoutineId R : F.Routines) {
    L.acquire(R);
    L.release(R);
  }
  EXPECT_EQ(L.stats().Compactions, 8u);
  for (RoutineId R : F.Routines)
    EXPECT_EQ(F.P.routine(R).Slot.State, PoolState::Compact);
  // Re-acquire expands and the contents survive.
  RoutineBody &Body = L.acquire(F.Routines[3]);
  EXPECT_EQ(retValueOf(Body), 3);
  EXPECT_EQ(L.stats().Expansions, 1u);
}

TEST(Loader, EvictsLeastRecentlyUsedFirst) {
  // Park r0..r3 under a budget that holds exactly them, touch r0 again,
  // then park r4: the budget must be met by evicting from the cold end
  // (r1 first), never the pools just used.
  LoaderFixture F(8);
  NaimConfig C;
  C.Mode = NaimMode::CompactIr;
  C.ExpandedCacheBytes = 0;
  for (unsigned I = 0; I != 4; ++I)
    C.ExpandedCacheBytes += F.P.routine(F.Routines[I]).Slot.Body->irBytes();
  Loader L(F.P, C);
  for (unsigned I : {0u, 1u, 2u, 3u, 0u, 4u}) {
    L.acquire(F.Routines[I]);
    L.release(F.Routines[I]);
  }
  auto state = [&](unsigned I) {
    return F.P.routine(F.Routines[I]).Slot.State;
  };
  EXPECT_EQ(state(1), PoolState::Compact);
  EXPECT_EQ(state(0), PoolState::Expanded);
  EXPECT_EQ(state(3), PoolState::Expanded);
  EXPECT_EQ(state(4), PoolState::Expanded);
  EXPECT_EQ(L.stats().CacheHits, 1u);
}

TEST(Loader, CacheHitAvoidsExpansionWork) {
  LoaderFixture F(4);
  NaimConfig C;
  C.Mode = NaimMode::CompactIr;
  C.ExpandedCacheBytes = 1u << 20; // Roomy: releases stay cached.
  Loader L(F.P, C);
  L.acquire(F.Routines[0]);
  L.release(F.Routines[0]);
  L.acquire(F.Routines[0]);
  EXPECT_EQ(L.stats().CacheHits, 1u);
  EXPECT_EQ(L.stats().Compactions, 0u);
  EXPECT_EQ(L.stats().Expansions, 0u);
}

TEST(Loader, PinnedPoolsAreNeverEvicted) {
  LoaderFixture F(4);
  NaimConfig C;
  C.Mode = NaimMode::CompactIr;
  C.ExpandedCacheBytes = 0;
  Loader L(F.P, C);
  RoutineBody &Pinned = L.acquire(F.Routines[0]);
  // Churn through the others with an evict-everything budget.
  for (unsigned I = 1; I != 4; ++I) {
    L.acquire(F.Routines[I]);
    L.release(F.Routines[I]);
  }
  EXPECT_EQ(F.P.routine(F.Routines[0]).Slot.State, PoolState::Expanded);
  EXPECT_EQ(retValueOf(Pinned), 0); // Still valid memory.
}

TEST(Loader, OffloadRoundTripsThroughRepository) {
  LoaderFixture F(6);
  NaimConfig C;
  C.Mode = NaimMode::Offload;
  C.ExpandedCacheBytes = 0;
  C.CompactResidentBytes = 0;
  Loader L(F.P, C);
  for (RoutineId R : F.Routines) {
    L.acquire(R);
    L.release(R);
  }
  EXPECT_GT(L.stats().Offloads, 0u);
  for (RoutineId R : F.Routines)
    EXPECT_EQ(F.P.routine(R).Slot.State, PoolState::Offloaded);
  // Everything comes back intact, in arbitrary access order.
  const unsigned Order[] = {5, 0, 3, 1, 4, 2};
  for (unsigned I : Order) {
    RoutineBody &Body = L.acquire(F.Routines[I]);
    EXPECT_EQ(retValueOf(Body), int64_t(I));
    L.release(F.Routines[I]);
  }
  EXPECT_EQ(L.stats().Fetches, 6u);
}

TEST(Loader, CompactionReducesTrackedIrBytes) {
  LoaderFixture F(6);
  uint64_t ExpandedBytes = F.Tracker.liveBytes(MemCategory::HloIr);
  ASSERT_GT(ExpandedBytes, 0u);
  NaimConfig C;
  C.Mode = NaimMode::CompactIr;
  C.ExpandedCacheBytes = 0;
  Loader L(F.P, C);
  L.releaseAll();
  EXPECT_EQ(F.Tracker.liveBytes(MemCategory::HloIr), 0u);
  uint64_t CompactBytes = F.Tracker.liveBytes(MemCategory::HloCompact);
  EXPECT_GT(CompactBytes, 0u);
  EXPECT_LT(CompactBytes, ExpandedBytes / 2); // Substantial shrink.
}

TEST(Loader, EnforceBudgetEverythingCompactsTheCache) {
  LoaderFixture F(5);
  NaimConfig C;
  C.Mode = NaimMode::CompactIr;
  C.ExpandedCacheBytes = 1u << 20;
  Loader L(F.P, C);
  L.releaseAll();
  EXPECT_EQ(L.stats().Compactions, 0u); // All fit in the cache.
  L.enforceBudget(/*Everything=*/true);
  EXPECT_EQ(L.stats().Compactions, 5u);
  EXPECT_EQ(L.cachedPoolCount(), 0u);
}

TEST(Loader, AutoModeStaysExpandedUnderThreshold) {
  LoaderFixture F(4);
  NaimConfig C = NaimConfig::autoFor(1ull << 30); // Huge machine.
  Loader L(F.P, C);
  L.releaseAll();
  EXPECT_EQ(L.stats().Compactions, 0u);
  // Thresholds of a machine near the top of the uint64 range must not
  // wrap: 3 x this size is 2 MiB past 2^64.
  F.Tracker.allocate(MemCategory::Other, 1u << 20);
  Loader Big(F.P, NaimConfig::autoFor(5864062014806ull << 20));
  EXPECT_FALSE(Big.offloadEnabled());
  F.Tracker.release(MemCategory::Other, 1u << 20);
}

TEST(Loader, SymtabCompactionFollowsMode) {
  LoaderFixture F(2);
  F.P.module(0).Symtab.addRecord("some debug data");
  {
    NaimConfig C;
    C.Mode = NaimMode::CompactIr;
    Loader L(F.P, C);
    L.maybeCompactSymtabs();
    EXPECT_EQ(F.P.module(0).Symtab.state(), PoolState::Expanded);
  }
  {
    NaimConfig C;
    C.Mode = NaimMode::CompactIrSt;
    Loader L(F.P, C);
    L.maybeCompactSymtabs();
    EXPECT_EQ(F.P.module(0).Symtab.state(), PoolState::Compact);
    EXPECT_EQ(L.stats().SymtabCompactions, 1u);
  }
}

TEST(Loader, BodiesIdenticalAfterCompactionRoundTrip) {
  LoaderFixture F(3);
  // Snapshot one body before eviction.
  auto Bytes0 = compactRoutine(*F.P.routine(F.Routines[1]).Slot.Body);
  NaimConfig C;
  C.Mode = NaimMode::CompactIr;
  C.ExpandedCacheBytes = 0;
  Loader L(F.P, C);
  L.releaseAll();
  RoutineBody &Body = L.acquire(F.Routines[1]);
  EXPECT_EQ(compactRoutine(Body), Bytes0);
}

//===----------------------------------------------------------------------===//
// Fault tolerance: framing, injection, retry, degradation, recovery
//===----------------------------------------------------------------------===//

namespace {

std::shared_ptr<FaultInjector> injector(const std::string &Spec) {
  std::string Error;
  auto FI = FaultInjector::fromSpec(Spec, Error);
  EXPECT_TRUE(FI) << Error;
  return FI;
}

} // namespace

TEST(FaultInjector, RejectsMalformedSpecs) {
  std::string Error;
  EXPECT_FALSE(FaultInjector::fromSpec("bogus", Error));
  EXPECT_FALSE(FaultInjector::fromSpec("store:explode-nth=1", Error));
  EXPECT_FALSE(FaultInjector::fromSpec("read:enospc-nth=1", Error));
  EXPECT_FALSE(FaultInjector::fromSpec("store:flip-nth=1", Error));
  EXPECT_FALSE(FaultInjector::fromSpec("store:fail-nth=0", Error));
  EXPECT_FALSE(FaultInjector::fromSpec("store:fail-rate=2.0", Error));
  // A clause names a site, never one instance of it: the loader has one
  // repository, so 'store@2' is an unknown site rather than a silent no-op.
  EXPECT_FALSE(FaultInjector::fromSpec("store@2:fail-nth=1", Error));
  EXPECT_NE(Error.find("unknown fault site"), std::string::npos) << Error;
  EXPECT_TRUE(FaultInjector::fromSpec(
      "seed=7,store:fail-nth=3,read:flip-rate=0.25", Error))
      << Error;
  // An empty spec means "no injection", not an error.
  EXPECT_FALSE(FaultInjector::fromSpec("", Error));
  EXPECT_TRUE(Error.empty());
}

TEST(Repository, ChecksumDetectsOnDiskBitRot) {
  // Needs a named file: the corruption below is applied through the
  // filesystem path, which an anonymous repository does not have.
  std::string Path =
      "/tmp/scmo-bitrot-" + std::to_string(::getpid()) + ".naim";
  Repository Repo(Path);
  std::vector<uint8_t> Payload(256, 0x2a);
  uint64_t Off = *Repo.store(Payload);
  // Flip one payload byte directly in the backing file, as a dying disk
  // would, bypassing the injector entirely.
  std::FILE *F = std::fopen(Repo.path().c_str(), "r+b");
  ASSERT_NE(F, nullptr);
  std::fseek(F, long(Off + Repository::FrameHeaderBytes + 17), SEEK_SET);
  std::fputc(0x55, F);
  std::fclose(F);
  std::vector<uint8_t> Out;
  Status S = Repo.fetch(Off, Payload.size(), Out);
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::Corruption);
}

TEST(Repository, TruncatedFrameIsDetected) {
  Repository Repo;
  std::vector<uint8_t> Payload(128, 7);
  uint64_t Off = *Repo.store(Payload);
  std::vector<uint8_t> Out;
  // Lying about the size (beyond the watermark) must fail before any
  // allocation, and an oversized claim is corruption, not an allocation.
  EXPECT_EQ(Repo.fetch(Off, Payload.size() + 1, Out).code(),
            StatusCode::Corruption);
  EXPECT_EQ(Repo.fetch(Off, Repository::MaxRecordBytes + 1, Out).code(),
            StatusCode::Corruption);
  EXPECT_EQ(Repo.fetch(Off + 1, Payload.size(), Out).code(),
            StatusCode::Corruption);
}

TEST(Repository, UserPathIsNeverClobbered) {
  std::string Path = "/tmp/scmo-precious-" + std::to_string(::getpid());
  ASSERT_TRUE(writeFile(Path, {'k', 'e', 'e', 'p'}));
  {
    Repository Repo(Path);
    Expected<uint64_t> Off = Repo.store({1, 2, 3});
    ASSERT_FALSE(Off.ok());
    EXPECT_EQ(Off.status().code(), StatusCode::Exists);
  }
  // The pre-existing file survives, byte for byte.
  std::vector<uint8_t> Probe;
  ASSERT_TRUE(readFile(Path, Probe));
  EXPECT_EQ(Probe, (std::vector<uint8_t>{'k', 'e', 'e', 'p'}));
  std::remove(Path.c_str());
}

TEST(Repository, EintrAndShortWritesAreAbsorbed) {
  Repository Repo("", injector("store:eintr-nth=1,store:short-nth=2,"
                               "read:eintr-nth=1"));
  std::vector<uint8_t> A(512, 1), B(512, 2);
  uint64_t OffA = *Repo.store(A); // EINTR on the header write, retried.
  uint64_t OffB = *Repo.store(B); // Short first write, resumed.
  std::vector<uint8_t> Out;
  ASSERT_TRUE(Repo.fetch(OffA, A.size(), Out).ok()); // EINTR, retried.
  EXPECT_EQ(Out, A);
  ASSERT_TRUE(Repo.fetch(OffB, B.size(), Out).ok());
  EXPECT_EQ(Out, B);
  EXPECT_GE(Repo.transientRetryCount(), 3u);
}

TEST(Repository, FailedStoreDoesNotAdvanceTheWatermark) {
  Repository Repo("", injector("store:enospc-nth=2"));
  std::vector<uint8_t> A(64, 1), B(64, 2), C(64, 3);
  uint64_t OffA = *Repo.store(A);
  Expected<uint64_t> Fail = Repo.store(B); // Injected disk-full.
  ASSERT_FALSE(Fail.ok());
  EXPECT_EQ(Fail.status().code(), StatusCode::NoSpace);
  // The next store overwrites the torn frame and everything reads back.
  uint64_t OffC = *Repo.store(C);
  std::vector<uint8_t> Out;
  ASSERT_TRUE(Repo.fetch(OffA, A.size(), Out).ok());
  EXPECT_EQ(Out, A);
  ASSERT_TRUE(Repo.fetch(OffC, C.size(), Out).ok());
  EXPECT_EQ(Out, C);
  EXPECT_EQ(Repo.storeCount(), 2u); // Failed stores are not counted.
}

TEST(Repository, InjectedStoreCorruptionFailsTheChecksum) {
  Repository Repo("", injector("store:corrupt-nth=1"));
  std::vector<uint8_t> Payload(256, 0x3c);
  uint64_t Off = *Repo.store(Payload); // Store "succeeds"; disk is wrong.
  std::vector<uint8_t> Out;
  Status S = Repo.fetch(Off, Payload.size(), Out);
  EXPECT_EQ(S.code(), StatusCode::Corruption);
  // Persistent: a re-read sees the same rotten bytes.
  EXPECT_EQ(Repo.fetch(Off, Payload.size(), Out).code(),
            StatusCode::Corruption);
}

TEST(Repository, InjectedReadFlipIsTransient) {
  Repository Repo("", injector("read:flip-nth=1"));
  std::vector<uint8_t> Payload(256, 0x51);
  uint64_t Off = *Repo.store(Payload);
  std::vector<uint8_t> Out;
  EXPECT_EQ(Repo.fetch(Off, Payload.size(), Out).code(),
            StatusCode::Corruption);
  // The flip happened in memory; the platter is fine and a re-read heals.
  ASSERT_TRUE(Repo.fetch(Off, Payload.size(), Out).ok());
  EXPECT_EQ(Out, Payload);
}

TEST(Loader, SpillFailureDegradesToResidentMode) {
  LoaderFixture F(6);
  NaimConfig C;
  C.Mode = NaimMode::Offload;
  C.ExpandedCacheBytes = 0;
  C.CompactResidentBytes = 0;
  C.Injector = injector("store:fail-nth=2");
  Loader L(F.P, C);
  for (RoutineId R : F.Routines) {
    L.acquire(R);
    L.release(R);
  }
  // One spill landed, the second failed, and the loader gave up on the
  // repository: every remaining pool stays compact in memory.
  EXPECT_TRUE(L.degraded());
  EXPECT_EQ(L.stats().SpillFailures, 1u);
  EXPECT_EQ(L.stats().Offloads, 1u);
  EXPECT_TRUE(L.firstError().ok()); // Degradation is not an error.
  std::vector<LoaderEvent> Events = L.takeEvents();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].K, LoaderEvent::Kind::SpillDegraded);
  // Every body — offloaded, resident or never spilled — reads back intact.
  for (unsigned I = 0; I != 6; ++I) {
    EXPECT_EQ(retValueOf(L.acquire(F.Routines[I])), int64_t(I));
    L.release(F.Routines[I]);
  }
}

TEST(Loader, TransientFetchCorruptionHealsByRetry) {
  LoaderFixture F(4);
  NaimConfig C;
  C.Mode = NaimMode::Offload;
  C.ExpandedCacheBytes = 0;
  C.CompactResidentBytes = 0;
  C.Injector = injector("read:flip-nth=1");
  Loader L(F.P, C);
  for (RoutineId R : F.Routines) {
    L.acquire(R);
    L.release(R);
  }
  for (unsigned I = 0; I != 4; ++I) {
    EXPECT_EQ(retValueOf(L.acquire(F.Routines[I])), int64_t(I));
    L.release(F.Routines[I]);
  }
  EXPECT_EQ(L.stats().FetchRetries, 1u);
  EXPECT_EQ(L.stats().PoisonedPools, 0u);
  EXPECT_TRUE(L.firstError().ok());
}

TEST(Loader, PersistentCorruptionRecoversThroughHandler) {
  LoaderFixture F(4);
  // A pristine twin provides the "object file" bytes the handler returns.
  LoaderFixture Clean(4);
  NaimConfig C;
  C.Mode = NaimMode::Offload;
  C.ExpandedCacheBytes = 0;
  C.CompactResidentBytes = 0;
  C.Injector = injector("store:corrupt-nth=1");
  Loader L(F.P, C);
  unsigned Recovered = 0;
  L.setRecoveryHandler([&](RoutineId R) {
    ++Recovered;
    std::vector<uint8_t> Bytes =
        compactRoutine(*Clean.P.routine(R).Slot.Body);
    return expandRoutine(Bytes, F.P.tracker());
  });
  for (RoutineId R : F.Routines) {
    L.acquire(R);
    L.release(R);
  }
  for (unsigned I = 0; I != 4; ++I) {
    EXPECT_EQ(retValueOf(L.acquire(F.Routines[I])), int64_t(I));
    L.release(F.Routines[I]);
  }
  EXPECT_EQ(Recovered, 1u);
  EXPECT_EQ(L.stats().Recoveries, 1u);
  EXPECT_EQ(L.stats().PoisonedPools, 0u);
  EXPECT_TRUE(L.firstError().ok());
  bool SawRecovery = false;
  for (const LoaderEvent &E : L.takeEvents())
    SawRecovery |= E.K == LoaderEvent::Kind::Recovered;
  EXPECT_TRUE(SawRecovery);
}

//===----------------------------------------------------------------------===//
// The spill I/O path: synchronous stores, elision
//===----------------------------------------------------------------------===//

TEST(Loader, CleanRoundTripsElideRepositoryStores) {
  LoaderFixture F(5);
  NaimConfig C;
  C.Mode = NaimMode::Offload;
  C.ExpandedCacheBytes = 0;
  C.CompactResidentBytes = 0;
  Loader L(F.P, C);
  for (RoutineId R : F.Routines) {
    L.acquire(R);
    L.release(R);
  }
  const uint64_t FirstPassStores = L.repository().storeCount();
  EXPECT_EQ(FirstPassStores, 5u);
  // A read-only round trip leaves every pool clean since its repository
  // record: eviction drops them straight back to those records — no
  // re-encode, no new stores.
  for (RoutineId R : F.Routines) {
    L.acquireRead(R);
    L.release(R);
  }
  EXPECT_EQ(L.repository().storeCount(), FirstPassStores);
  EXPECT_EQ(L.stats().SpillElisions, 5u);
  EXPECT_EQ(L.stats().Offloads, 10u); // Elided offloads still count.
  // Actually mutating a body defeats both elisions and forces a store.
  RoutineBody &Body = L.acquire(F.Routines[0]);
  Body.Blocks[0].Instrs.back()->A = Operand::imm(42);
  L.release(F.Routines[0]);
  EXPECT_EQ(L.repository().storeCount(), FirstPassStores + 1);
  EXPECT_EQ(retValueOf(L.acquire(F.Routines[0])), 42);
}

TEST(Loader, SpillOutcomesAreVisibleWhenTheReleaseReturns) {
  // Offloads store inside the releasing call: after every release the
  // repository already holds exactly the records the counters claim, with
  // nothing to drain or join first.
  LoaderFixture F(8);
  NaimConfig C;
  C.Mode = NaimMode::Offload;
  C.ExpandedCacheBytes = 0;
  C.CompactResidentBytes = 0;
  {
    Loader L(F.P, C);
    for (bool Mutable : {true, false}) {
      for (RoutineId R : F.Routines) {
        if (Mutable)
          L.acquire(R);
        else
          L.acquireRead(R); // Clean: its offload elides the store.
        L.release(R);
        LoaderStats S = L.stats();
        EXPECT_EQ(L.repository().storeCount(), S.Offloads - S.SpillElisions);
        EXPECT_EQ(F.P.routine(R).Slot.State, PoolState::Offloaded);
      }
    }
    EXPECT_EQ(L.repository().storeCount(), 8u);
    EXPECT_EQ(L.stats().SpillElisions, 8u);
  }
  // A failing store degrades the loader before the release returns.
  LoaderFixture G(4);
  C.Injector = injector("store:fail-nth=1");
  Loader L(G.P, C);
  L.acquire(G.Routines[0]);
  L.release(G.Routines[0]);
  EXPECT_TRUE(L.degraded());
  EXPECT_EQ(L.stats().SpillFailures, 1u);
  EXPECT_EQ(G.P.routine(G.Routines[0]).Slot.State, PoolState::Compact);
  std::vector<LoaderEvent> Events = L.takeEvents();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].K, LoaderEvent::Kind::SpillDegraded);
  EXPECT_EQ(Events[0].Routine, G.Routines[0]);
}

TEST(Loader, UnrecoverableCorruptionPoisonsInsteadOfAborting) {
  LoaderFixture F(4);
  NaimConfig C;
  C.Mode = NaimMode::Offload;
  C.ExpandedCacheBytes = 0;
  C.CompactResidentBytes = 0;
  C.Injector = injector("store:corrupt-nth=1");
  Loader L(F.P, C); // No recovery handler installed.
  for (RoutineId R : F.Routines) {
    L.acquire(R);
    L.release(R);
  }
  // Acquiring the rotten pool yields a safe stub — the process survives —
  // and the latched error tells the driver the results are unusable.
  for (RoutineId R : F.Routines)
    L.acquire(R);
  EXPECT_EQ(L.stats().PoisonedPools, 1u);
  EXPECT_FALSE(L.firstError().ok());
  EXPECT_EQ(L.firstError().code(), StatusCode::Corruption);
  bool SawPoison = false;
  for (const LoaderEvent &E : L.takeEvents())
    SawPoison |= E.K == LoaderEvent::Kind::PoolPoisoned;
  EXPECT_TRUE(SawPoison);
}

TEST(Loader, RetireFreesTheBodyAndKeepsItsSummary) {
  // Retirement is not the spill path: under a budget that would compact
  // every release, retiring encodes, stores and counts nothing, returns
  // the body's bytes to the tracker and leaves a summary for later
  // whole-set readers, which then never touch the pool.
  LoaderFixture F(4);
  NaimConfig C;
  C.Mode = NaimMode::Offload;
  C.ExpandedCacheBytes = 0;
  C.CompactResidentBytes = 0;
  Loader L(F.P, C);
  const uint64_t Before = F.Tracker.liveBytes(MemCategory::HloIr);
  const uint64_t Body0 = F.P.routine(F.Routines[0]).Slot.Body->irBytes();
  L.acquireRead(F.Routines[0]);
  L.retire(F.Routines[0]);
  const RoutineSlot &S = F.P.routine(F.Routines[0]).Slot;
  EXPECT_EQ(S.State, PoolState::Retired);
  EXPECT_EQ(S.Body, nullptr);
  EXPECT_EQ(F.Tracker.liveBytes(MemCategory::HloIr), Before - Body0);
  LoaderStats St = L.stats();
  EXPECT_EQ(St.Compactions, 0u);
  EXPECT_EQ(St.Offloads, 0u);
  EXPECT_EQ(L.repository().storeCount(), 0u);
  const RoutineIlSummary *Sum = L.routineSummary(F.Routines[0]);
  ASSERT_NE(Sum, nullptr);
  EXPECT_EQ(Sum->InstrCount, 21u);
  EXPECT_EQ(L.stats().Acquires, St.Acquires);
  EXPECT_TRUE(L.firstError().ok());
  // A mutable acquire drops the summary; retire recomputes it from the
  // body the caller still holds.
  RoutineBody &B1 = L.acquire(F.Routines[1]);
  B1.Blocks[0].Instrs.erase(B1.Blocks[0].Instrs.begin());
  L.retire(F.Routines[1]);
  ASSERT_NE(L.routineSummary(F.Routines[1]), nullptr);
  EXPECT_EQ(L.routineSummary(F.Routines[1])->InstrCount, 21u);
  // While another holder pins the routine, retire drops one pin only.
  L.acquireRead(F.Routines[2]);
  L.acquireRead(F.Routines[2]);
  L.retire(F.Routines[2]);
  EXPECT_EQ(F.P.routine(F.Routines[2]).Slot.State, PoolState::Expanded);
  L.retire(F.Routines[2]);
  EXPECT_EQ(F.P.routine(F.Routines[2]).Slot.State, PoolState::Retired);
}

TEST(Loader, AcquiringARetiredRoutineIsAStructuredError) {
  // Nothing may read IL after it was lowered; a phase that does anyway
  // gets the poisoned pool's stub body (it runs to completion) and the
  // latched error names the routine, so the driver fails the build.
  LoaderFixture F(2);
  NaimConfig C;
  C.Mode = NaimMode::Off;
  Loader L(F.P, C);
  L.acquireRead(F.Routines[1]);
  L.retire(F.Routines[1]);
  const RoutineBody &Stub = L.acquireRead(F.Routines[1]);
  ASSERT_EQ(Stub.Blocks.size(), 1u);
  EXPECT_EQ(Stub.Blocks[0].Instrs.back()->Op, Opcode::Ret);
  L.release(F.Routines[1]);
  Status Err = L.firstError();
  ASSERT_FALSE(Err.ok());
  EXPECT_EQ(Err.code(), StatusCode::Unavailable);
  EXPECT_NE(Err.message().find("r1"), std::string::npos) << Err.message();
  EXPECT_NE(Err.message().find("retired"), std::string::npos);
  std::vector<LoaderEvent> Events = L.takeEvents();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].K, LoaderEvent::Kind::PoolPoisoned);
  EXPECT_EQ(Events[0].Routine, F.Routines[1]);
  // The other routine is untouched.
  EXPECT_EQ(retValueOf(L.acquireRead(F.Routines[0])), 0);
}

TEST(Loader, ConcurrentTrafficKeepsTheBudget) {
  // The race oracle for the budget check (run under TSan in CI): eight
  // threads acquire and release random routines on one offloading loader
  // whose budget holds only a few bodies, so evictions, spills and fetches
  // interleave under its one lock.
  constexpr unsigned N = 48, NumThreads = 8;
  LoaderFixture F(N);
  NaimConfig C;
  C.Mode = NaimMode::Offload;
  C.ExpandedCacheBytes = 3 * F.P.routine(F.Routines[0]).Slot.Body->irBytes();
  C.CompactResidentBytes = 2048;
  Loader L(F.P, C);
  L.releaseAll();
  std::atomic<unsigned> Mismatches{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      Prng Rng(500 + T);
      for (unsigned I = 0; I != 400; ++I) {
        unsigned K = static_cast<unsigned>(Rng.nextBelow(N));
        const RoutineBody &Body = Rng.nextBool(0.5)
                                      ? L.acquire(F.Routines[K])
                                      : L.acquireRead(F.Routines[K]);
        if (retValueOf(Body) != int64_t(K))
          ++Mismatches;
        L.release(F.Routines[K]);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  L.enforceBudget();
  EXPECT_EQ(Mismatches.load(), 0u);
  EXPECT_LE(L.cacheBytes(), C.ExpandedCacheBytes);
  EXPECT_TRUE(L.firstError().ok());
  EXPECT_GT(L.stats().Fetches, 0u); // The spill path really was exercised.
  for (unsigned I = 0; I != N; ++I) {
    EXPECT_EQ(retValueOf(L.acquireRead(F.Routines[I])), int64_t(I));
    L.release(F.Routines[I]);
  }
}

