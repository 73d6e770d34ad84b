//===- hlo/Wpa.h ------------------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole-program-analysis (WPA) planner behind the WHOPR-style parallel
/// HLO backend. Every cross-module decision — IPCP constants, clone
/// declarations, site redirects, inline selections, dead-routine marks — is
/// made here, serially, from the loader's routine summaries, and recorded
/// in an HloPlan. The LTRANS phase then applies the plan to each routine
/// independently, which is what makes the per-routine parallel application
/// byte-identical at any job count: the plan never depends on which worker
/// applies it, or when.
///
/// The planner simulates the transformed program in a "virtual world": per
/// caller, an ordered list of virtual blocks each holding an ordered list of
/// virtual call sites. Virtual inlining splits a block at the consumed site
/// and appends the continuation and the callee's inherited sites as new
/// blocks — exactly the block order inlineCallSite produces — so the
/// simulated call-scan order always matches the real body's. That is what
/// lets a plan directive address its site by (callee symbol, ordinal among
/// calls to that symbol) instead of fragile instruction coordinates.
///
/// Inline callees are applied from *versioned* snapshots, never from live
/// (possibly concurrently transformed) bodies. Each inline directive
/// records how many of the callee's own directives had been planned when
/// the inline was decided; application reconstructs the callee at exactly
/// that state by replaying its plan prefix (IPCP entry constants, then the
/// first N directives) onto its snapshot, which the plan holds as the NAIM
/// compact form (paper Section 4.2) or as a reference to the callee's
/// repository record, and decodes per replay. The replay is
/// purely plan-driven, so any task can rebuild any callee version without
/// looking at another routine's live body — this preserves the serial
/// optimizer's semantics (inlined copies carry the callee's redirects,
/// entry constants and earlier inlines) while keeping LTRANS independent.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_HLO_WPA_H
#define SCMO_HLO_WPA_H

#include "hlo/Cloner.h"
#include "hlo/HloContext.h"
#include "hlo/Inliner.h"

#include <map>
#include <memory>
#include <vector>

namespace scmo {

/// A specialization signature: which params are pinned to which constants
/// (ascending parameter order). Shared by the cloner and the WPA planner.
using CloneKey = std::vector<std::pair<uint32_t, int64_t>>;

/// One planned caller rewrite. Matched at application time by scanning the
/// caller's blocks in ascending (block, instruction) order for the
/// Ordinal'th Call whose symbol is MatchCallee. Directives for one caller
/// must be applied in plan-emission order: each was planned against the
/// world state its predecessors left behind.
struct PlanDirective {
  enum class Kind : uint8_t { Redirect, Inline };
  Kind K = Kind::Inline;
  RoutineId MatchCallee = InvalidId; ///< Symbol the site carries when matched.
  uint32_t Ordinal = 0;              ///< Among calls to MatchCallee, scan order.
  RoutineId Target = InvalidId;      ///< Redirect only: the new callee symbol.
  /// Inline only: how many of the callee's own directives were already
  /// planned when this inline was decided. The inlined copy is the callee's
  /// snapshot with its plan prefix of this length replayed onto it.
  uint32_t CalleeVersion = 0;
};

/// One planned IPCP constant (a Mov inserted at the routine entry).
struct PlannedConst {
  uint32_t Param = 0;
  int64_t Value = 0;
};

/// One planned specialization clone. The routine id is declared during WPA
/// (the routine table only grows serially); the body is materialized in
/// LTRANS from the origin at OriginVersion plus the key's entry Movs.
struct PlannedClone {
  RoutineId Clone = InvalidId;
  RoutineId Origin = InvalidId;
  CloneKey Key;
  /// Directive count of the origin's plan at clone-creation time (the
  /// serial cloner copied the origin's live body, which already carried the
  /// redirects planned for it earlier in the clone pass).
  uint32_t OriginVersion = 0;
};

/// The complete output of the WPA phase: everything LTRANS needs to
/// transform any routine without consulting any other routine's live body.
struct HloPlan {
  /// Entry constants per routine, in plan order (application inserts each
  /// at the entry block's front, so the last entry ends up first — the
  /// exact order the serial IPCP pass produced).
  std::map<RoutineId, std::vector<PlannedConst>> Ipcp;

  /// Redirect/inline directives per caller, in emission order.
  std::map<RoutineId, std::vector<PlanDirective>> CallerOps;

  /// Clones keyed by their (pre-declared) routine id.
  std::map<RoutineId, PlannedClone> Clones;

  /// The pre-LTRANS body of every routine the plan inlines or clones from,
  /// keyed by callee id (clone callees resolve through their origin's
  /// snapshot). WPA never expands a parked pool for one
  /// (Loader::snapshotPool):
  ///  - an offloaded callee, or one expanded but unchanged since its record,
  ///    is a reference to that repository record. The record cannot change
  ///    under the plan: the repository is append-only,
  ///    so when LTRANS mutates the callee and offloads it again, the new
  ///    body goes to a new record and the referenced one keeps its bytes;
  ///  - any other callee is its compact encoding, charged to
  ///    MemCategory::HloIr — plan state the NAIM budget cannot evict, so it
  ///    must not count as HloCompact.
  /// Versioned callee bodies are decoded (a record read back first) and
  /// replayed from these on demand; an unreadable record yields a stub and
  /// a latched loader error that fails the build after LTRANS. Read-only
  /// during LTRANS — safe to share across workers.
  std::map<RoutineId, PoolSnapshot> Snapshots;

  InlineResult InlineStats;
  CloneResult CloneStats;

  const std::vector<PlannedConst> *ipcpFor(RoutineId R) const {
    auto It = Ipcp.find(R);
    return It == Ipcp.end() ? nullptr : &It->second;
  }
  const std::vector<PlanDirective> *opsFor(RoutineId R) const {
    auto It = CallerOps.find(R);
    return It == CallerOps.end() ? nullptr : &It->second;
  }
  const PlannedClone *cloneFor(RoutineId R) const {
    auto It = Clones.find(R);
    return It == Clones.end() ? nullptr : &It->second;
  }
};

/// Plans HLO over \p Set. Construct, run the phases in pipeline order, then
/// take() the plan. Each phase mirrors its serial predecessor's heuristics
/// and operation gating; none of them mutates any routine body.
class WpaPlanner {
public:
  /// Builds the virtual world from the loader's summary cache. \p Set may
  /// grow during planning (planClones appends clone ids).
  WpaPlanner(HloContext &Ctx, std::vector<RoutineId> &Set);
  ~WpaPlanner();

  WpaPlanner(const WpaPlanner &) = delete;
  WpaPlanner &operator=(const WpaPlanner &) = delete;

  /// IPCP: for every parameter whose every known call site passes one
  /// identical constant, plan an entry-constant insert. Consumes one
  /// operation per planned constant and counts ipcp.params_propagated.
  void planIpcp(bool WholeProgram);

  /// Cloning: plans constant-specialized clones for hot constant-argument
  /// sites, declares the clone routines (serial — the routine table grows),
  /// emits redirect directives and appends the clone ids to the set.
  void planClones(const CloneParams &Params);

  /// Inlining: multi-round candidate selection and budget walk over the
  /// virtual world, emitting inline directives and snapshot requests.
  void planInline(const InlineParams &Params);

  /// Dead-routine elimination: reachability from main over the final
  /// virtual graph; unreached set members get Emit cleared immediately
  /// (RoutineInfo flags are WPA-owned state, not body state).
  void planDeadRoutines();

  /// Moves the finished plan out; the planner is dead afterwards.
  HloPlan take();

private:
  struct Impl;
  std::unique_ptr<Impl> M;
};

/// Memo table for versioned callee bodies replayed during application,
/// keyed (routine, directive-prefix length). Entries are deterministic
/// functions of the plan, so callers scope one wherever convenient —
/// per routine keeps peak memory flat, per worker trades memory for fewer
/// replays — without affecting the output, and nothing needs locking.
using HloSnapshotCache =
    std::map<std::pair<RoutineId, uint32_t>, std::unique_ptr<RoutineBody>>;

/// Applies the plan's rewrites for routine \p R to its acquired \p Body:
/// IPCP entry constants first (they never shift call ordinals), then the
/// caller directives in emission order. Cleanup is the caller's business.
/// Thread-safe across distinct routines: reads only plan state and
/// snapshots, writes only \p Body and \p Cache (plus the atomic call-graph
/// invalidation; snapshot records are read through \p Ctx's loader).
void applyRoutinePlan(HloContext &Ctx, RoutineBody &Body, RoutineId R,
                      const HloPlan &Plan, HloSnapshotCache &Cache);

/// Defines clone \p R from the plan (origin at OriginVersion + key Movs).
/// Callers that inline the clone replay it from the plan, never from the
/// body defined here, so materialization order is independent of every
/// other routine's application. Thread-safe for distinct clone ids
/// (defineRoutine touches only the clone's own slot).
void materializeClone(HloContext &Ctx, RoutineId R, const HloPlan &Plan,
                      HloSnapshotCache &Cache);

} // namespace scmo

#endif // SCMO_HLO_WPA_H
