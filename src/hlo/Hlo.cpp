//===- hlo/Hlo.cpp --------------------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "hlo/Hlo.h"

#include "hlo/Interprocedural.h"
#include "hlo/PassManager.h"
#include "ir/Verifier.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
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

  PM.run(Ctx, Set);
  return planner().take();
}

namespace {

/// One LTRANS task: everything the backend does to routine \p R before
/// lowering, under a single loader acquire so the loader sees one
/// deterministic access per routine however many rewrites it receives.
/// Counters go to the task-private \p Stats. Returns the verify failure.
std::string ltransRoutine(HloContext &Ctx, RoutineId R, const HloPlan *Plan,
                          bool Verify, Statistics &Stats) {
  Program &P = Ctx.P;
  const RoutineInfo &RI = P.routine(R);
  const bool Cmo = Plan && P.module(RI.Owner).InCmoSet;
  if (Cmo && !RI.Emit)
    return ""; // Dead routines get no materialization, cleanup or verify.
  // Versioned-callee memo, scoped to this routine: its directives reuse the
  // same callee versions heavily, but holding every version for the whole
  // run would break the Fig. 4 memory shape.
  HloSnapshotCache Cache;
  if (Cmo && Plan->cloneFor(R))
    materializeClone(Ctx, R, *Plan, Cache);
  if (!RI.IsDefined)
    return "";
  const bool Transform =
      Cmo ? RI.Selected || Plan->ipcpFor(R) || Plan->opsFor(R)
          : RI.Tier != OptTier::None; // None: quick codegen only (Section 8).
  Verify = Verify && RI.Emit;
  if (!Transform) {
    if (!Verify)
      return "";
    std::string Err = verifyRoutine(P, R, Ctx.L.acquireRead(R));
    Ctx.L.release(R);
    return Err;
  }
  RoutineBody &Body = Ctx.L.acquire(R);
  if (Cmo) {
    applyRoutinePlan(Ctx, Body, R, *Plan, Cache);
    if (RI.Selected) {
      RoutinePassPipeline::cleanup().run(P, Body, Stats);
      Stats.add("hlo.routines_optimized");
    }
  } else if (RI.Tier == OptTier::Basic) {
    RoutinePassPipeline::basicCleanup().run(P, Body, Stats);
  } else {
    RoutinePassPipeline::cleanup().run(P, Body, Stats);
  }
  // Copy-collect what the rewrites left behind: a roomy NAIM budget never
  // compacts this body, so without this its garbage would live to the end
  // of the build. The verify below checks the repacked copy.
  const uint64_t Before = Body.irBytes();
  Body.repack();
  Stats.add("hlo.reclaimed_bytes", Before - Body.irBytes());
  std::string Err = Verify ? verifyRoutine(P, R, Body) : std::string();
  Ctx.L.release(R);
  if (MemoryTracker *Tracker = P.tracker())
    Tracker->takeHloSample();
  return Err;
}

} // namespace

std::string scmo::runLtrans(HloContext &Ctx, std::vector<RoutineId> &Routines,
                            const HloPlan *Plan, bool Verify,
                            ThreadPool *Pool) {
  HloPassManager PM;
  std::string FirstError;

  PM.add("ltrans", [&](HloContext &C, std::vector<RoutineId> &Ids) {
    // Task-private counters and error slots, folded in ascending id order:
    // totals and the reported failure are independent of completion order.
    std::vector<Statistics> TaskStats(Ids.size());
    std::vector<std::string> Errors(Ids.size());
    MemoryTracker *Tracker = C.P.tracker();
    std::atomic<bool> Stop{false};
    auto Task = [&](size_t I) {
      if (Stop.load(std::memory_order_relaxed))
        return;
      Errors[I] = ltransRoutine(C, Ids[I], Plan, Verify, TaskStats[I]);
      if (Tracker && Tracker->heapExhausted())
        Stop.store(true, std::memory_order_relaxed);
    };
    if (Pool)
      Pool->parallelFor(Ids.size(), Task);
    else
      for (size_t I = 0; I != Ids.size(); ++I)
        Task(I);
    for (const Statistics &St : TaskStats)
      C.Stats.merge(St);
    for (std::string &Err : Errors)
      if (!Err.empty()) {
        FirstError = std::move(Err);
        break;
      }
  });

  PM.add("compact-symtabs", [](HloContext &C, std::vector<RoutineId> &) {
    C.L.maybeCompactSymtabs();
  });

  PM.run(Ctx, Routines);
  return FirstError;
}

void scmo::runHlo(HloContext &Ctx, std::vector<RoutineId> &Set,
                  const HloOptions &Opts, ThreadPool *Pool) {
  HloPlan Plan = planHlo(Ctx, Set, Opts);
  std::vector<RoutineId> Ids = Set;
  std::sort(Ids.begin(), Ids.end());
  runLtrans(Ctx, Ids, &Plan, /*Verify=*/false, Pool);
}
