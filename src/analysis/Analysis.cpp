//===- analysis/Analysis.cpp ----------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"

#include "analysis/Interproc.h"
#include "analysis/Passes.h"
#include "analysis/SummaryCache.h"
#include "cache/ArtifactCache.h"
#include "ir/Verifier.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <map>
#include <utility>
#include <vector>

using namespace scmo;

namespace {

/// Charges one routine's transient dataflow scratch to the tracker — the
/// bit-vectors themselves died when the scan returned; this replays their
/// peak so the bench's memory rows include analysis scratch. Also replayed
/// for cache-hit routines (ScratchBytes is part of the cached record), so a
/// warm run samples the same peaks a cold run would.
void chargeScratch(MemoryTracker *Tracker, uint64_t Bytes) {
  if (!Tracker || !Bytes)
    return;
  Tracker->allocate(MemCategory::HloDerived, Bytes);
  Tracker->takeHloSample();
  Tracker->release(MemCategory::HloDerived, Bytes);
}

} // namespace

AnalysisResult scmo::runAnalysis(Program &P, Loader &L,
                                 MemoryTracker *Tracker,
                                 const AnalysisOptions &Opts) {
  AnalysisResult Result;
  Timer Total;

  std::vector<RoutineId> Ids;
  std::vector<size_t> PosOf(P.numRoutines(), SIZE_MAX);
  for (RoutineId R = 0; R != P.numRoutines(); ++R)
    if (P.routine(R).IsDefined) {
      PosOf[R] = Ids.size();
      Ids.push_back(R);
    }
  Result.RoutinesAnalyzed = Ids.size();

  // Phase 1: streaming scan. One acquire/release pair per routine;
  // per-routine fact slots keep the merged output independent of scheduling.
  std::vector<RoutineFacts> Facts(Ids.size());
  ThreadPool Pool(Opts.Jobs);
  Timer StreamT;

  auto ScanOne = [&](size_t I) {
    RoutineId R = Ids[I];
    RoutineBody &Body = L.acquire(R);
    DiagnosticEngine Verify;
    bool Clean =
        !Opts.Verify || verifyRoutine(P, R, Body, Verify, Opts.NumProbes);
    if (!Clean) {
      // Malformed IL: report only the verifier finding; the lint passes
      // assume invariants the verifier just disproved. The interprocedural
      // phase still needs the routine on the call graph, so extract the
      // assume-anything minimal summary.
      Facts[I].Diags = Verify.diagnostics();
      extractMinimalSummary(P, Body, Facts[I].Summary);
    } else {
      runLocalChecks(R, Body, Facts[I]);
    }
    L.release(R);
    chargeScratch(Tracker, Facts[I].ScratchBytes);
  };

  const bool Incremental = Opts.Incremental && !Opts.CacheDir.empty();
  if (!Incremental) {
    Pool.parallelFor(Ids.size(), ScanOne);
    Result.RoutinesRescanned = Ids.size();
  } else {
    // Warm path. Hashing touches every body (acquire + content hash — cheap
    // next to verify plus the dataflow solves), then whole modules are
    // either replayed from their artifact or rescanned and stored.
    std::vector<uint64_t> Hashes(P.numRoutines(), 0);
    Pool.parallelFor(Ids.size(), [&](size_t I) {
      RoutineId R = Ids[I];
      RoutineBody &Body = L.acquire(R);
      Hashes[R] = contentHash(P, Body);
      L.release(R);
    });

    AnalysisSummaryCache Cache(Opts.CacheDir, L.faultInjector());
    std::vector<size_t> Rescan; // positions in Ids, ascending
    struct PendingStore {
      ModuleId M;
      AnalysisSummaryCache::ModuleKey K;
    };
    std::vector<PendingStore> Stores;

    for (ModuleId M = 0; M != P.numModules(); ++M) {
      std::vector<size_t> Owned; // positions of M's defined routines
      for (RoutineId R : P.module(M).Routines)
        if (P.routine(R).IsDefined && P.routine(R).Owner == M)
          Owned.push_back(PosOf[R]);
      if (Owned.empty())
        continue;

      AnalysisSummaryCache::ModuleKey K =
          Cache.keys(P, M, Hashes, Opts.Verify, Opts.NumProbes);
      std::vector<std::pair<RoutineId, RoutineFacts>> Loaded;
      if (Cache.load(P, M, K, Loaded) && Loaded.size() == Owned.size()) {
        for (size_t J = 0; J != Owned.size(); ++J) {
          Facts[Owned[J]] = std::move(Loaded[J].second);
          chargeScratch(Tracker, Facts[Owned[J]].ScratchBytes);
        }
      } else {
        Rescan.insert(Rescan.end(), Owned.begin(), Owned.end());
        Stores.push_back({M, K});
      }
    }

    Pool.parallelFor(Rescan.size(), [&](size_t J) { ScanOne(Rescan[J]); });
    Result.RoutinesRescanned = Rescan.size();

    for (const PendingStore &PS : Stores) {
      std::vector<std::pair<RoutineId, const RoutineFacts *>> Records;
      for (RoutineId R : P.module(PS.M).Routines)
        if (P.routine(R).IsDefined && P.routine(R).Owner == PS.M)
          Records.emplace_back(R, &Facts[PosOf[R]]);
      Cache.store(P, PS.K, Records);
    }

    Result.CacheHits = Cache.Hits;
    Result.CacheMisses = Cache.Misses;
    Result.CacheStores = Cache.Stores;
  }
  Result.StreamSeconds = StreamT.seconds();

  DiagnosticEngine Engine;
  for (RoutineFacts &F : Facts)
    Engine.addAll(std::move(F.Diags));

  // Phase 2: interprocedural checks, driven entirely by the summaries —
  // identical whether those came from a scan or from the cache.
  Timer InterT;
  InterprocStats IS = runInterprocChecks(P, Ids, Facts, Pool, Engine);
  Result.InterprocSeconds = InterT.seconds();
  Result.Sccs = IS.Sccs;
  Result.Waves = IS.Waves;
  Result.ReachableRoutines = IS.Reachable;

  Engine.filterCodes(Opts.Filter);
  Engine.sortDeterministic();

  Result.Errors = Engine.count(Severity::Error);
  Result.Warnings = Engine.count(Severity::Warning);
  Result.Notes = Engine.count(Severity::Note);
  Result.Report = Opts.Json ? Engine.renderAllJson(P) : Engine.renderAll(P);
  Result.Diagnostics = Engine.diagnostics();
  Result.Seconds = Total.seconds();
  Result.PeakBytes = Tracker ? Tracker->totalPeakBytes() : 0;
  Result.Ok = true;
  return Result;
}
