//===- hlo/Hlo.cpp --------------------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "hlo/Hlo.h"

#include "hlo/Interprocedural.h"
#include "hlo/PassManager.h"
#include "hlo/RoutinePasses.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <memory>

using namespace scmo;

HloPlan scmo::planHlo(HloContext &Ctx, std::vector<RoutineId> &Set,
                      const HloOptions &Opts) {
  // The whole WPA phase order in one place, sequenced by the pass manager
  // (which also owns the per-pass counters and memory sampling). The
  // planner is created on first use so its virtual world is built after the
  // summary scan has warmed the loader's summary cache.
  HloPassManager PM;
  std::unique_ptr<WpaPlanner> Planner;
  auto planner = [&]() -> WpaPlanner & {
    if (!Planner)
      Planner = std::make_unique<WpaPlanner>(Ctx, Set);
    return *Planner;
  };

  // Phase 0: read in all code and data in the set, computing summaries
  // (fine-grained selectivity requires scanning even unselected bodies).
  PM.add("summaries", [&Opts](HloContext &C, std::vector<RoutineId> &S) {
    computeGlobalSummaries(C, S, Opts.WholeProgram);
  });

  PM.add(
      "ipcp",
      [&planner, &Opts](HloContext &, std::vector<RoutineId> &) {
        planner().planIpcp(Opts.WholeProgram);
      },
      Opts.Interprocedural && Opts.EnableIpcp);

  PM.add(
      "clone",
      [&planner, &Opts](HloContext &, std::vector<RoutineId> &) {
        planner().planClones(Opts.Clone);
      },
      Opts.Interprocedural && Opts.EnableCloning && Opts.Pbo);

  PM.add(
      "inline",
      [&planner, &Opts](HloContext &, std::vector<RoutineId> &) {
        InlineParams Inline = Opts.Inline;
        Inline.UseProfile = Opts.Pbo;
        planner().planInline(Inline);
      },
      Opts.Interprocedural);

  PM.add(
      "deadfn",
      [&planner](HloContext &, std::vector<RoutineId> &) {
        planner().planDeadRoutines();
      },
      Opts.Interprocedural && Opts.WholeProgram);

  // Carve the final set (clones included) for LTRANS. Runs even when the
  // interprocedural phases are off: the partitions also drive the cleanup
  // distribution.
  PM.add("partition", [&planner, &Opts](HloContext &, std::vector<RoutineId> &) {
    planner().partition(Opts.Partitions ? Opts.Partitions : 1);
  });

  PM.run(Ctx, Set);
  return planner().take();
}

namespace {

/// One LTRANS worker: applies the plan and runs cleanup for every member of
/// a partition. Counters go to \p Stats (partition-private in parallel
/// runs); every routine is handled under a single acquire/release so the
/// loader sees one deterministic access per routine regardless of how many
/// rewrites it receives.
void runPartition(HloContext &Ctx, const std::vector<RoutineId> &Members,
                  const HloPlan &Plan, Statistics &Stats) {
  Program &P = Ctx.P;
  MemoryTracker *Tracker = P.tracker();
  // One node pool recycled across the per-routine caches below: each
  // routine's map nodes bump-allocate here, and the reset at the top of
  // the next iteration (after the previous cache is destroyed) reclaims
  // them without returning the slab to the heap. Untracked — the bodies
  // the cache points at carry their own tracked arenas; the map nodes are
  // worker scratch.
  Arena CacheArena(nullptr, MemCategory::HloDerived, /*SlabSize=*/8 * 1024);
  for (RoutineId R : Members) {
    CacheArena.reset();
    // Versioned-callee memo, scoped per routine: one routine's directives
    // reuse the same callee versions heavily, but holding every version for
    // the partition's lifetime would break the Fig. 4 memory shape.
    HloSnapshotCache Cache{
        HloSnapshotCache::key_compare(),
        ArenaAllocator<HloSnapshotCache::value_type>(&CacheArena)};
    if (!P.routine(R).Emit)
      continue; // Dead routines get no materialization and no cleanup.
    if (Plan.cloneFor(R))
      materializeClone(P, R, Plan, Cache);
    const RoutineInfo &RI = P.routine(R);
    if (!RI.IsDefined)
      continue;
    bool Optimize = RI.Selected;
    if (!Optimize && !Plan.ipcpFor(R) && !Plan.opsFor(R))
      continue;
    RoutineBody &Body = Ctx.L.acquire(R);
    applyRoutinePlan(P, Body, R, Plan, Cache);
    if (Optimize) {
      RoutinePassPipeline::cleanup().run(P, Body, Stats);
      Stats.add("hlo.routines_optimized");
    }
    Ctx.L.release(R);
    if (Tracker)
      Tracker->takeHloSample();
  }
}

} // namespace

void scmo::runLtrans(HloContext &Ctx, std::vector<RoutineId> &Set,
                     const HloPlan &Plan, ThreadPool *Pool) {
  HloPassManager PM;

  PM.add("ltrans", [&Plan, Pool](HloContext &C, std::vector<RoutineId> &S) {
    // The partition list; a plan without partitions (partitioning skipped)
    // degenerates to one partition covering the whole set.
    std::vector<std::vector<RoutineId>> Fallback;
    const std::vector<std::vector<RoutineId>> *Parts =
        &Plan.Partitions.Members;
    if (Parts->empty()) {
      Fallback.push_back(S);
      std::sort(Fallback[0].begin(), Fallback[0].end());
      Parts = &Fallback;
    }

    // Shard affinity: with a sharded loader, reorder each partition's
    // members so routines on the same shard are visited consecutively
    // (shard-major, id-ascending within a shard). runPartition handles
    // members independently and work lands in routine-indexed slots, so
    // the executable is byte-identical; what changes is lock locality —
    // a worker stays on one shard's mutex for a run of routines instead
    // of hopping shards every acquire.
    std::vector<std::vector<RoutineId>> Affine;
    if (C.L.shardCount() > 1) {
      Affine = *Parts;
      for (std::vector<RoutineId> &Members : Affine)
        std::stable_sort(Members.begin(), Members.end(),
                         [&C](RoutineId A, RoutineId B) {
                           unsigned SA = C.L.shardOf(A), SB = C.L.shardOf(B);
                           return SA != SB ? SA < SB : A < B;
                         });
      Parts = &Affine;
    }

    if (Pool && Pool->threadCount() > 1 && Parts->size() > 1) {
      // Partition-private counters, merged in ascending partition order:
      // totals are independent of completion order.
      std::vector<Statistics> PartStats(Parts->size());
      ThreadPool &TP = *Pool;
      TP.parallelFor(Parts->size(), [&](size_t I) {
        runPartition(C, (*Parts)[I], Plan, PartStats[I]);
      });
      for (const Statistics &St : PartStats)
        C.Stats.merge(St);
    } else {
      for (const std::vector<RoutineId> &Members : *Parts)
        runPartition(C, Members, Plan, C.Stats);
    }
  });

  PM.add("compact-symtabs", [](HloContext &C, std::vector<RoutineId> &) {
    C.L.maybeCompactSymtabs();
  });

  PM.run(Ctx, Set);
}

void scmo::runHlo(HloContext &Ctx, std::vector<RoutineId> &Set,
                  const HloOptions &Opts, ThreadPool *Pool) {
  HloPlan Plan = planHlo(Ctx, Set, Opts);
  runLtrans(Ctx, Set, Plan, Pool);
}
