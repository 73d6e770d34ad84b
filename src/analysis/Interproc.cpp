//===- analysis/Interproc.cpp ---------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "analysis/Interproc.h"

#include "ir/CallGraph.h"

#include <algorithm>
#include <string>

using namespace scmo;

namespace {

Diagnostic routineDiag(CheckCode Code, RoutineId R, std::string Msg) {
  Diagnostic D;
  D.Sev = defaultSeverity(Code);
  D.Code = Code;
  D.Routine = R;
  D.Message = std::move(Msg);
  return D;
}

Diagnostic siteDiag(CheckCode Code, RoutineId R, BlockId B, uint32_t InstrIdx,
                    uint32_t Line, std::string Msg) {
  Diagnostic D = routineDiag(Code, R, std::move(Msg));
  D.Block = B;
  D.InstrIdx = InstrIdx;
  D.Line = Line;
  return D;
}

/// unused-routine: a defined routine no known call site targets. `main` is
/// the program entry; the whole-program summary set covers every defined
/// routine, so externs and statics are equally provable.
void checkUnusedRoutines(const Program &P, const std::vector<RoutineId> &Ids,
                         const CallGraph &Graph, DiagnosticEngine &Engine) {
  for (RoutineId R : Ids) {
    if (!Graph.sitesTo(R).empty())
      continue;
    if (P.Strings.text(P.routine(R).Name) == "main")
      continue;
    Engine.add(routineDiag(CheckCode::UnusedRoutine, R,
                           "routine is defined but never called"));
  }
}

uint32_t bit(uint32_t Idx) { return Idx < 32 ? (1u << Idx) : 0; }

/// A global a load reads as zero while nothing stores it: arrays are
/// zero-filled, scalars only when Init == 0 (a non-zero-initialized scalar
/// is a deliberate read-only constant).
bool readsZero(const GlobalVar &GV) { return GV.Size > 1 || GV.Init == 0; }

} // namespace

InterprocStats scmo::runInterprocChecks(const Program &P,
                                        const std::vector<RoutineId> &Ids,
                                        const std::vector<RoutineFacts> &Facts,
                                        ThreadPool &Pool,
                                        DiagnosticEngine &Engine) {
  InterprocStats Stats;
  const size_t N = Ids.size();
  std::vector<uint32_t> PosOf(P.numRoutines(), InvalidId);
  for (size_t I = 0; I != N; ++I)
    PosOf[Ids[I]] = static_cast<uint32_t>(I);
  auto Sum = [&](size_t I) -> const AnalysisSummary & {
    return Facts[I].Summary;
  };

  // Replay the call graph from summary sites — every site, including ones
  // in locally-unreachable blocks, so the graph matches a body scan.
  std::vector<CallSite> AllSites;
  for (size_t I = 0; I != N; ++I)
    for (const AnalysisSummary::Site &S : Sum(I).Sites)
      AllSites.push_back({Ids[I], S.Block, S.InstrIdx, S.Callee, 0});
  CallGraph Graph = CallGraph::fromSites(std::move(AllSites));

  checkUnusedRoutines(P, Ids, Graph, Engine);

  // Whole-program reachability: BFS from the entry roots over *executable*
  // sites (a call inside an `if (0)` arm never runs). Roots: main when
  // defined, otherwise every defined extern (callable from outside the
  // visible modules).
  std::vector<bool> Reachable(P.numRoutines(), false);
  std::vector<RoutineId> Worklist;
  auto AddRoot = [&](RoutineId R) {
    if (R < Reachable.size() && !Reachable[R]) {
      Reachable[R] = true;
      Worklist.push_back(R);
    }
  };
  RoutineId Main = P.findRoutine("main");
  if (Main != InvalidId && P.routine(Main).IsDefined) {
    AddRoot(Main);
  } else {
    for (RoutineId R : Ids)
      if (!P.routine(R).IsStatic)
        AddRoot(R);
  }
  while (!Worklist.empty()) {
    RoutineId R = Worklist.back();
    Worklist.pop_back();
    if (PosOf[R] == InvalidId)
      continue;
    for (const AnalysisSummary::Site &S : Sum(PosOf[R]).Sites)
      if (S.Reachable)
        AddRoot(S.Callee);
  }
  for (RoutineId R : Ids)
    if (Reachable[R])
      ++Stats.Reachable;

  // Bottom-up SCC waves. Each level's SCCs run concurrently; the per-level
  // barrier means a worker reading a callee's propagated masks always sees
  // a finished lower level, and each mask slot is written only by the one
  // worker that owns its SCC — determinism needs no locks.
  //
  // The SCC computation's node-keyed scratch pools in a pass-lifetime
  // arena and frees wholesale when this function returns. Untracked:
  // interproc scratch is accounted through the driver's replayed
  // ScratchBytes charges, and double-charging would break that replay.
  Arena SccScratch(nullptr, MemCategory::HloDerived, /*SlabSize=*/16 * 1024);
  CallGraph::Condensation Cond = Graph.condense(Ids, &SccScratch);
  Stats.Sccs = Cond.Members.size();
  Stats.Waves = Cond.Levels.size();

  std::vector<uint32_t> TrapMask(N), LiveMask(N);
  for (size_t I = 0; I != N; ++I) {
    TrapMask[I] = Sum(I).TrapOnZeroParams;
    LiveMask[I] = Sum(I).DirectlyUsedParams;
  }

  for (const std::vector<uint32_t> &Level : Cond.Levels) {
    Pool.parallelFor(Level.size(), [&](size_t K) {
      const std::vector<RoutineId> &Members = Cond.Members[Level[K]];
      // Within the SCC, iterate to the (monotone, therefore finite)
      // fixpoint in member order.
      bool Changed = true;
      while (Changed) {
        Changed = false;
        for (RoutineId R : Members) {
          uint32_t I = PosOf[R];
          uint32_t NewTrap = TrapMask[I];
          uint32_t NewLive = LiveMask[I];
          for (const AnalysisSummary::Site &S : Sum(I).Sites) {
            uint32_t CalleePos =
                S.Callee < PosOf.size() ? PosOf[S.Callee] : InvalidId;
            bool Known = CalleePos != InvalidId && !Sum(CalleePos).Minimal;
            for (size_t A = 0; A != S.Args.size(); ++A) {
              const AnalysisSummary::CallArg &Arg = S.Args[A];
              if (Arg.Kind != AnalysisSummary::ArgKind::ParamCopy)
                continue;
              uint32_t PBit = bit(Arg.Param);
              if (!PBit)
                continue;
              uint32_t ABit = bit(static_cast<uint32_t>(A));
              // Forwarded to an unknown callee or past the mask width:
              // assume live. Otherwise inherit the callee's facts.
              if (!Known || !ABit || (LiveMask[CalleePos] & ABit))
                NewLive |= PBit;
              if (Known && ABit && (TrapMask[CalleePos] & ABit))
                NewTrap |= PBit;
            }
          }
          if (NewTrap != TrapMask[I] || NewLive != LiveMask[I]) {
            TrapMask[I] = NewTrap;
            LiveMask[I] = NewLive;
            Changed = true;
          }
        }
      }
    });
  }

  // Per-global aggregation across every summary.
  struct GUse {
    bool AnyLoad = false, AnyStore = false;
    bool ReachLoad = false, ReachStore = false;
  };
  std::vector<GUse> GU(P.numGlobals());
  for (size_t I = 0; I != N; ++I) {
    bool RReach = Reachable[Ids[I]];
    for (const AnalysisSummary::GlobalSite &L : Sum(I).Loads) {
      GU[L.Global].AnyLoad = true;
      if (RReach && L.Reachable)
        GU[L.Global].ReachLoad = true;
    }
    for (const AnalysisSummary::GlobalSite &St : Sum(I).Stores) {
      GU[St.Global].AnyStore = true;
      if (RReach && St.Reachable)
        GU[St.Global].ReachStore = true;
    }
  }

  // write-only-global: stored somewhere, loaded nowhere at all.
  for (GlobalId G = 0; G != P.numGlobals(); ++G)
    if (GU[G].AnyStore && !GU[G].AnyLoad)
      Engine.add(routineDiag(CheckCode::WriteOnlyGlobal, InvalidId,
                             "global '" + P.Strings.text(P.global(G).Name) +
                                 "' is stored but never loaded"));

  // never-written-global-load: every zero-reading load site of a verified
  // routine, confirmed against the whole-program store aggregate.
  for (size_t I = 0; I != N; ++I) {
    if (Sum(I).Minimal)
      continue;
    for (const AnalysisSummary::GlobalSite &L : Sum(I).Loads) {
      const GlobalVar &GV = P.global(L.Global);
      if (GU[L.Global].AnyStore || !readsZero(GV))
        continue;
      Engine.add(siteDiag(CheckCode::NeverWrittenGlobalLoad, Ids[I], L.Block,
                          L.InstrIdx, L.Line,
                          "load of global '" + P.Strings.text(GV.Name) +
                              "' which is never stored (reads as zero)"));
    }
  }

  // dead-global-store: the global IS loaded somewhere (else write-only
  // fired), but never in any reachable context — every reachable store is
  // dead. Reported per reachable store site.
  // uninit-global-read: the dual — stores exist but only in unreachable
  // contexts, and a reachable load observes the initializer. Restricted to
  // zero-reading globals like never-written-global-load (a non-zero-
  // initialized scalar is a deliberate constant).
  for (size_t I = 0; I != N; ++I) {
    if (!Reachable[Ids[I]])
      continue;
    for (const AnalysisSummary::GlobalSite &St : Sum(I).Stores) {
      const GUse &U = GU[St.Global];
      if (St.Reachable && U.AnyLoad && !U.ReachLoad)
        Engine.add(siteDiag(CheckCode::DeadGlobalStore, Ids[I], St.Block,
                            St.InstrIdx, St.Line,
                            "store to global '" +
                                P.Strings.text(P.global(St.Global).Name) +
                                "' is dead: no reachable code loads it"));
    }
    for (const AnalysisSummary::GlobalSite &L : Sum(I).Loads) {
      const GUse &U = GU[L.Global];
      const GlobalVar &GV = P.global(L.Global);
      if (L.Reachable && readsZero(GV) && U.AnyStore && !U.ReachStore)
        Engine.add(siteDiag(CheckCode::UninitGlobalRead, Ids[I], L.Block,
                            L.InstrIdx, L.Line,
                            "load of global '" + P.Strings.text(GV.Name) +
                                "' reads zero: every store to it is in "
                                "unreachable code"));
    }
  }

  // Per-callee call-site aggregation for ignored-return.
  std::vector<uint32_t> SitesToCount(P.numRoutines(), 0);
  std::vector<uint32_t> SitesResultUsed(P.numRoutines(), 0);
  for (size_t I = 0; I != N; ++I) {
    for (const AnalysisSummary::Site &S : Sum(I).Sites) {
      if (S.Callee >= P.numRoutines())
        continue;
      ++SitesToCount[S.Callee];
      if (S.ResultUsed)
        ++SitesResultUsed[S.Callee];
    }
  }

  for (RoutineId R : Ids) {
    uint32_t I = PosOf[R];
    const AnalysisSummary &S = Sum(I);
    if (S.Minimal || P.Strings.text(P.routine(R).Name) == "main")
      continue;

    // dead-parameter: no direct use and no forwarding chain that reaches
    // one; requires a call site so the finding is actionable (an uncalled
    // routine is unused-routine territory).
    if (SitesToCount[R]) {
      uint32_t Params = std::min<uint32_t>(S.NumParams, 32);
      for (uint32_t Param = 0; Param != Params; ++Param)
        if (!(LiveMask[I] & bit(Param)))
          Engine.add(routineDiag(
              CheckCode::DeadParameter, R,
              "parameter " + std::to_string(Param) +
                  " is never used, directly or through any callee"));
    }

    // ignored-return: the routine computes a return value, yet every call
    // site discards it.
    if (SitesToCount[R] && !SitesResultUsed[R] && S.HasComputedReturn)
      Engine.add(routineDiag(CheckCode::IgnoredReturn, R,
                             "computed return value is ignored at all " +
                                 std::to_string(SitesToCount[R]) +
                                 " call site(s)"));
  }

  // ipcp-constant-trap: a call passes literal zero into a parameter
  // position that (transitively) reaches a divisor unmodified.
  for (size_t I = 0; I != N; ++I) {
    for (const AnalysisSummary::Site &S : Sum(I).Sites) {
      uint32_t CalleePos =
          S.Callee < PosOf.size() ? PosOf[S.Callee] : InvalidId;
      if (CalleePos == InvalidId || Sum(CalleePos).Minimal)
        continue;
      for (size_t A = 0; A != S.Args.size(); ++A) {
        const AnalysisSummary::CallArg &Arg = S.Args[A];
        if (Arg.Kind != AnalysisSummary::ArgKind::Constant || Arg.Imm != 0)
          continue;
        if (!(TrapMask[CalleePos] & bit(static_cast<uint32_t>(A))))
          continue;
        Engine.add(siteDiag(
            CheckCode::IpcpConstantTrap, Ids[I], S.Block, S.InstrIdx, S.Line,
            "call passes constant zero to parameter " + std::to_string(A) +
                " of '" + P.displayName(S.Callee) +
                "', which divides by it (the VM defines the result as 0)"));
      }
    }
  }

  // infinite-recursion: a cyclic SCC where every member must call back
  // into the SCC on every returning path can never unwind.
  for (uint32_t SccIdx = 0; SccIdx != Cond.Members.size(); ++SccIdx) {
    if (!Cond.Cyclic[SccIdx])
      continue;
    const std::vector<RoutineId> &Members = Cond.Members[SccIdx];
    bool AllMustRecurse = true;
    for (RoutineId R : Members) {
      const AnalysisSummary &S = Sum(PosOf[R]);
      bool MustHitScc = false;
      for (RoutineId Callee : S.MustCallees)
        if (std::binary_search(Members.begin(), Members.end(), Callee)) {
          MustHitScc = true;
          break;
        }
      if (S.Minimal || !MustHitScc) {
        AllMustRecurse = false;
        break;
      }
    }
    if (!AllMustRecurse)
      continue;
    for (RoutineId R : Members)
      Engine.add(routineDiag(CheckCode::InfiniteRecursion, R,
                             "every execution path calls back into the "
                             "routine's recursion cycle; no call can return"));
  }

  return Stats;
}
