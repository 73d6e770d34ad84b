//===- hlo/Cloner.cpp -----------------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "hlo/Cloner.h"

#include "hlo/Wpa.h"

using namespace scmo;

CloneResult scmo::runCloner(HloContext &Ctx, std::vector<RoutineId> &Set,
                            const CloneParams &Params) {
  // Plan clones and redirects from the summaries (the planner declares the
  // clone routines and appends them to Set), then materialize the clone
  // bodies and rewrite the redirected call sites.
  WpaPlanner Planner(Ctx, Set);
  Planner.planClones(Params);
  HloPlan Plan = Planner.take();
  for (const auto &KV : Plan.Clones) {
    HloSnapshotCache Cache;
    materializeClone(Ctx, KV.first, Plan, Cache);
  }
  for (const auto &KV : Plan.CallerOps) {
    HloSnapshotCache Cache;
    RoutineBody &Body = Ctx.L.acquire(KV.first);
    applyRoutinePlan(Ctx, Body, KV.first, Plan, Cache);
    Ctx.L.release(KV.first);
  }
  return Plan.CloneStats;
}
