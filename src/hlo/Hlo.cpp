//===- hlo/Hlo.cpp --------------------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "hlo/Hlo.h"

#include "hlo/Interprocedural.h"
#include "hlo/RoutinePasses.h"
#include "ir/Verifier.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <string>

using namespace scmo;

namespace {

/// The bookkeeping that follows every HLO phase: a run counter
/// ("hlo.pass.<name>") and a memory-tracker sample.
void phaseDone(HloContext &Ctx, const char *Name) {
  Ctx.Stats.add(std::string("hlo.pass.") + Name);
  if (MemoryTracker *Tracker = Ctx.P.tracker())
    Tracker->takeHloSample();
}

} // namespace

HloPlan scmo::planHlo(HloContext &Ctx, std::vector<RoutineId> &Set,
                      const HloOptions &Opts) {
  // Phase 0: read in all code and data in the set, computing summaries
  // (fine-grained selectivity requires scanning even unselected bodies).
  computeGlobalSummaries(Ctx, Set, Opts.WholeProgram);
  phaseDone(Ctx, "summaries");

  // The planner's virtual world is built from the summary cache the scan
  // just warmed.
  WpaPlanner Planner(Ctx, Set);
  if (Opts.EnableIpcp) {
    Planner.planIpcp(Opts.WholeProgram);
    phaseDone(Ctx, "ipcp");
  }
  if (Opts.EnableCloning && Opts.Pbo) {
    Planner.planClones(Opts.Clone);
    phaseDone(Ctx, "clone");
  }
  InlineParams Inline = Opts.Inline;
  Inline.UseProfile = Opts.Pbo;
  Planner.planInline(Inline);
  phaseDone(Ctx, "inline");
  if (Opts.WholeProgram) {
    Planner.planDeadRoutines();
    phaseDone(Ctx, "deadfn");
  }
  return Planner.take();
}

namespace {

/// One LTRANS task: everything the backend does to routine \p R, under a
/// single loader acquire so the loader sees one deterministic access per
/// routine however many rewrites it receives. Counters go to the
/// task-private \p Stats, a verify failure to \p Diags.
void ltransRoutine(HloContext &Ctx, size_t I, RoutineId R,
                   const LtransOptions &Opts, Statistics &Stats,
                   DiagnosticEngine &Diags) {
  Program &P = Ctx.P;
  const HloPlan *Plan = Opts.Plan;
  const RoutineInfo &RI = P.routine(R);
  const bool Cmo = Plan && P.module(RI.Owner).InCmoSet;
  if (Cmo && !RI.Emit)
    return; // Dead routines get no materialization, cleanup or verify.
  // Versioned-callee memo, scoped to this routine: its directives reuse the
  // same callee versions heavily, but holding every version for the whole
  // run would break the Fig. 4 memory shape.
  HloSnapshotCache Cache;
  if (Cmo && Plan->cloneFor(R))
    materializeClone(Ctx, R, *Plan, Cache);
  if (!RI.IsDefined)
    return;
  const bool Transform =
      Cmo ? RI.Selected || Plan->ipcpFor(R) || Plan->opsFor(R)
          : Opts.Cleanup &&
                RI.Tier != OptTier::None; // None: quick codegen (Section 8).
  const bool Verify = Opts.Verify && RI.Emit;
  const bool Finish = Opts.Finish && RI.Emit;
  if (!Transform && !Verify && !Finish)
    return;
  const RoutineBody *Done;
  if (Transform) {
    RoutineBody &Body = Ctx.L.acquire(R);
    if (Cmo) {
      applyRoutinePlan(Ctx, Body, R, *Plan, Cache);
      if (RI.Selected) {
        runCleanupPipeline(P, Body, Stats);
        Stats.add("hlo.routines_optimized");
      }
    } else if (RI.Tier == OptTier::Basic) {
      runBasicCleanup(P, Body, Stats);
    } else {
      runCleanupPipeline(P, Body, Stats);
    }
    // Copy-collect what the rewrites left behind: a roomy NAIM budget never
    // compacts this body, so without this its garbage would live until the
    // body is lowered, or to the end of the build when the IL is kept. The
    // verify and the lowering below read the repacked copy.
    const uint64_t Before = Body.irBytes();
    Body.repack();
    Stats.add("hlo.reclaimed_bytes", Before - Body.irBytes());
    Done = &Body;
  } else {
    Done = &Ctx.L.acquireRead(R);
  }
  // A body that fails the verify is never lowered: the backend assumes
  // well-formed IL, and the build ends with the verify error.
  if (Verify && !verifyRoutine(P, R, *Done, Diags)) {
    Ctx.L.release(R);
    return;
  }
  if (Finish)
    Opts.Finish(I, R, *Done);
  if (Finish && Opts.Retire)
    Ctx.L.retire(R);
  else
    Ctx.L.release(R);
  if (MemoryTracker *Tracker = P.tracker())
    Tracker->takeHloSample();
}

} // namespace

std::string scmo::runLtrans(HloContext &Ctx, std::vector<RoutineId> &Routines,
                            const LtransOptions &Opts, ThreadPool *Pool) {
  std::string FirstError;
  {
    // Task-private counters and verify slots, folded in ascending id order:
    // totals and the reported failure are independent of completion order.
    std::vector<Statistics> TaskStats(Routines.size());
    std::vector<DiagnosticEngine> TaskDiags(Routines.size());
    MemoryTracker *Tracker = Ctx.P.tracker();
    std::atomic<bool> Stop{false};
    auto Task = [&](size_t I) {
      if (Stop.load(std::memory_order_relaxed))
        return;
      ltransRoutine(Ctx, I, Routines[I], Opts, TaskStats[I], TaskDiags[I]);
      if (Tracker && Tracker->heapExhausted())
        Stop.store(true, std::memory_order_relaxed);
    };
    if (Pool)
      Pool->parallelFor(Routines.size(), Task);
    else
      for (size_t I = 0; I != Routines.size(); ++I)
        Task(I);
    for (const Statistics &St : TaskStats)
      Ctx.Stats.merge(St);
    for (const DiagnosticEngine &Diags : TaskDiags)
      if (Diags.size()) {
        FirstError = DiagnosticEngine::render(Ctx.P, Diags.diagnostics()[0]);
        break;
      }
  }
  phaseDone(Ctx, "ltrans");
  Ctx.L.maybeCompactSymtabs();
  phaseDone(Ctx, "compact-symtabs");
  return FirstError;
}

void scmo::runHlo(HloContext &Ctx, std::vector<RoutineId> &Set,
                  const HloOptions &Opts, ThreadPool *Pool) {
  HloPlan Plan = planHlo(Ctx, Set, Opts);
  std::vector<RoutineId> Ids = Set;
  std::sort(Ids.begin(), Ids.end());
  LtransOptions LOpts;
  LOpts.Plan = &Plan;
  runLtrans(Ctx, Ids, LOpts, Pool);
}
