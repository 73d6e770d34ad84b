//===- bench/micro_naim.cpp -----------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the NAIM primitives whose costs the
/// paper's Figure 5 trade-offs are built from: compaction (encode+swizzle),
/// uncompaction (decode+eager swizzle), loader cache hits vs misses,
/// repository store/fetch, and arena allocation vs malloc.
///
//===----------------------------------------------------------------------===//

#include "bytecode/Compact.h"
#include "frontend/Frontend.h"
#include "naim/Loader.h"
#include "naim/Repository.h"
#include "support/Arena.h"
#include "support/MemoryTracker.h"
#include "workload/Generator.h"

#include <benchmark/benchmark.h>

using namespace scmo;

namespace {

/// A representative routine body (mid-size cold routine). The program gets a
/// memory tracker: stage-2 offload (the path BM_Loader*Offload* exercises)
/// only engages when the program can account residency.
std::unique_ptr<Program> makeProgram() {
  static MemoryTracker Tracker; // Benches run serially; shared is fine.
  auto P = std::make_unique<Program>(&Tracker);
  WorkloadParams Params;
  Params.Seed = 1;
  Params.NumModules = 1;
  Params.ColdRoutinesPerModule = 8;
  Params.HotRoutines = 2;
  GeneratedProgram GP = generateProgram(Params);
  for (const GeneratedModule &GM : GP.Modules) {
    FrontendResult FR = compileSource(*P, GM.Name, GM.Source);
    if (!FR.Ok)
      std::abort();
  }
  return P;
}

RoutineId firstDefined(const Program &P) {
  for (RoutineId R = 0; R != P.numRoutines(); ++R)
    if (P.routine(R).IsDefined)
      return R;
  std::abort();
}

void BM_CompactRoutine(benchmark::State &State) {
  auto P = makeProgram();
  const RoutineBody &Body = *P->routine(firstDefined(*P)).Slot.Body;
  uint64_t Instrs = Body.instrCount();
  for (auto _ : State) {
    auto Bytes = compactRoutine(Body);
    benchmark::DoNotOptimize(Bytes.data());
  }
  State.SetItemsProcessed(State.iterations() * Instrs);
}
BENCHMARK(BM_CompactRoutine);

void BM_ExpandRoutine(benchmark::State &State) {
  auto P = makeProgram();
  auto Bytes = compactRoutine(*P->routine(firstDefined(*P)).Slot.Body);
  uint64_t Instrs = P->routine(firstDefined(*P)).Slot.Body->instrCount();
  for (auto _ : State) {
    auto Body = expandRoutine(Bytes, nullptr);
    benchmark::DoNotOptimize(Body.get());
  }
  State.SetItemsProcessed(State.iterations() * Instrs);
}
BENCHMARK(BM_ExpandRoutine);

void BM_LoaderCacheHit(benchmark::State &State) {
  auto P = makeProgram();
  NaimConfig C;
  C.Mode = NaimMode::CompactIr;
  C.ExpandedCacheBytes = 1ull << 30; // Everything stays cached.
  Loader L(*P, C);
  RoutineId R = firstDefined(*P);
  for (auto _ : State) {
    RoutineBody &Body = L.acquire(R);
    benchmark::DoNotOptimize(&Body);
    L.release(R);
  }
}
BENCHMARK(BM_LoaderCacheHit);

void BM_LoaderCompactionRoundTrip(benchmark::State &State) {
  auto P = makeProgram();
  NaimConfig C;
  C.Mode = NaimMode::CompactIr;
  C.ExpandedCacheBytes = 0; // Every release compacts; every acquire expands.
  Loader L(*P, C);
  RoutineId R = firstDefined(*P);
  L.acquire(R);
  L.release(R);
  for (auto _ : State) {
    RoutineBody &Body = L.acquire(R);
    benchmark::DoNotOptimize(&Body);
    L.release(R);
  }
}
BENCHMARK(BM_LoaderCompactionRoundTrip);

void BM_LoaderOffloadRoundTrip(benchmark::State &State) {
  auto P = makeProgram();
  NaimConfig C;
  C.Mode = NaimMode::Offload;
  C.ExpandedCacheBytes = 0;
  C.CompactResidentBytes = 0;
  Loader L(*P, C);
  RoutineId R = firstDefined(*P);
  L.acquire(R);
  L.release(R);
  for (auto _ : State) {
    RoutineBody &Body = L.acquire(R);
    benchmark::DoNotOptimize(&Body);
    L.release(R);
  }
}
BENCHMARK(BM_LoaderOffloadRoundTrip);

void BM_LoaderReadOnlyOffloadRoundTrip(benchmark::State &State) {
  // The read-only round trip: the pool stays clean, so each eviction drops
  // it back to its record (an elided store) and each acquire fetches it.
  auto P = makeProgram();
  NaimConfig C;
  C.Mode = NaimMode::Offload;
  C.ExpandedCacheBytes = 0;
  C.CompactResidentBytes = 0;
  Loader L(*P, C);
  RoutineId R = firstDefined(*P);
  L.acquire(R);
  L.release(R);
  for (auto _ : State) {
    const RoutineBody &Body = L.acquireRead(R);
    benchmark::DoNotOptimize(&Body);
    L.release(R);
  }
  LoaderStats S = L.stats();
  State.counters["stored_bytes"] = double(S.CompressedBytes);
  State.counters["elisions"] = double(S.SpillElisions);
}
BENCHMARK(BM_LoaderReadOnlyOffloadRoundTrip);

void BM_RepositoryStoreFetch(benchmark::State &State) {
  Repository Repo;
  std::vector<uint8_t> Payload(State.range(0), 0x5a);
  std::vector<uint8_t> Out;
  for (auto _ : State) {
    uint64_t Off = *Repo.store(Payload);
    bool Ok = Repo.fetch(Off, Payload.size(), Out).ok();
    benchmark::DoNotOptimize(Ok);
  }
  State.SetBytesProcessed(State.iterations() * State.range(0) * 2);
}
BENCHMARK(BM_RepositoryStoreFetch)->Arg(1 << 10)->Arg(16 << 10);

void BM_ArenaAllocation(benchmark::State &State) {
  for (auto _ : State) {
    Arena A;
    for (int I = 0; I != 1000; ++I)
      benchmark::DoNotOptimize(A.allocate(64));
  }
  State.SetItemsProcessed(State.iterations() * 1000);
}
BENCHMARK(BM_ArenaAllocation);

void BM_MallocBaseline(benchmark::State &State) {
  for (auto _ : State) {
    std::vector<void *> Ptrs;
    Ptrs.reserve(1000);
    for (int I = 0; I != 1000; ++I)
      Ptrs.push_back(std::malloc(64));
    for (void *Ptr : Ptrs)
      std::free(Ptr);
  }
  State.SetItemsProcessed(State.iterations() * 1000);
}
BENCHMARK(BM_MallocBaseline);

} // namespace

BENCHMARK_MAIN();
