//===- hlo/Interprocedural.cpp --------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "hlo/Interprocedural.h"

#include "hlo/Wpa.h"

#include <set>

using namespace scmo;

void scmo::computeGlobalSummaries(HloContext &Ctx,
                                  const std::vector<RoutineId> &Set,
                                  bool WholeProgram) {
  Program &P = Ctx.P;
  // Reset summaries: they are derived data, recomputed per HLO invocation.
  for (GlobalId G = 0; G != P.numGlobals(); ++G) {
    P.global(G).EverStored = false;
    P.global(G).SummaryValid = false;
  }
  std::set<ModuleId> ModulesInSet;
  std::set<RoutineId> SetLookup(Set.begin(), Set.end());
  for (RoutineId R : Set) {
    const RoutineInfo &RI = P.routine(R);
    if (!RI.IsDefined)
      continue;
    ModulesInSet.insert(RI.Owner);
    // Served from the loader's summary cache: after the first computation
    // only routines whose bodies changed cost a body expansion here.
    const RoutineIlSummary *Sum = Ctx.L.routineSummary(R);
    if (!Sum)
      continue;
    for (GlobalId G : Sum->StoredGlobals)
      P.global(G).EverStored = true;
    Ctx.Stats.add("summary.routines_scanned");
  }
  // Validity scope. A module counts as fully covered when every defined
  // routine it owns is in the set.
  std::set<ModuleId> FullyCovered;
  for (ModuleId M : ModulesInSet) {
    bool AllIn = true;
    for (RoutineId R : P.module(M).Routines) {
      if (!P.routine(R).IsDefined || P.routine(R).Owner != M)
        continue;
      if (!SetLookup.count(R)) {
        AllIn = false;
        break;
      }
    }
    if (AllIn)
      FullyCovered.insert(M);
  }
  for (GlobalId G = 0; G != P.numGlobals(); ++G) {
    GlobalVar &GV = P.global(G);
    if (GV.IsStatic)
      GV.SummaryValid = FullyCovered.count(GV.Owner) != 0;
    else
      GV.SummaryValid = WholeProgram;
    if (GV.SummaryValid && !GV.EverStored)
      Ctx.Stats.add("summary.readonly_globals");
  }
}

void scmo::runIpcp(HloContext &Ctx, const std::vector<RoutineId> &Set,
                   const CallGraph & /*Graph*/, bool WholeProgram) {
  // Plan from summaries (the WPA planner reads call-site constants off
  // RoutineIlSummary::ConstArgs, so no caller body is expanded), then apply
  // each routine's entry constants under its own pin. The Graph parameter
  // is retained for source compatibility; sites now come from the summary
  // cache.
  std::vector<RoutineId> Mutable(Set);
  WpaPlanner Planner(Ctx, Mutable);
  Planner.planIpcp(WholeProgram);
  HloPlan Plan = Planner.take();
  HloSnapshotCache Cache;
  for (const auto &KV : Plan.Ipcp) {
    RoutineBody &Body = Ctx.L.acquire(KV.first);
    applyRoutinePlan(Ctx, Body, KV.first, Plan, Cache);
    Ctx.L.release(KV.first);
  }
}
