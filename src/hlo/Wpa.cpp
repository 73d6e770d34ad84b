//===- hlo/Wpa.cpp --------------------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "hlo/Wpa.h"

#include "support/ArenaAllocator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <sstream>

using namespace scmo;

namespace {

/// Deep-copies \p Src into a fresh body charged to \p Tracker (the clone
/// bodies LTRANS materializes from their origin's replayed version).
std::unique_ptr<RoutineBody> copyRoutineBody(const RoutineBody &Src,
                                             MemoryTracker *Tracker) {
  auto Out = std::make_unique<RoutineBody>(Tracker);
  Out->NumParams = Src.NumParams;
  Out->NextReg = Src.NextReg;
  Out->SourceLines = Src.SourceLines;
  Out->HasProfile = Src.HasProfile;
  // The copied block lists still name Src's instructions; the repack copies
  // them into Out's own arena.
  Out->Blocks = Src.Blocks;
  Out->repack();
  return Out;
}

/// One simulated call site. UID is a creation-ordered token: stable across
/// block restructuring, used as the deterministic candidate tie-break (the
/// serial inliner used graph site indices, which are scan-ordered; creation
/// order differs only in how same-caller ties land, and both are
/// deterministic).
struct VirtualSite {
  RoutineId Callee = InvalidId;
  uint64_t Count = 0;
  uint64_t UID = 0;
  uint32_t NumArgs = 0; ///< Inlining adds one argument-binding Mov each.
  bool HasDst = false;  ///< Inlining turns each callee Ret into Mov+Jmp.
};

/// A caller in the virtual world: blocks of sites in scan order. Virtual
/// inlining restructures this list exactly the way inlineCallSite
/// restructures the real body (split block, append continuation, append
/// callee copies), so ordinals computed here match application-time scans.
///
/// The block/site lists — the planner's dominant transient allocation —
/// pool in the planner-lifetime arena passed at construction and free
/// wholesale when the planner dies. New blocks must come from newBlock():
/// a bare emplace_back() would default-construct a heap-backed inner list.
struct VirtualCaller {
  using SiteList = ArenaVector<VirtualSite>;
  using BlockList = ArenaVector<SiteList>;

  BlockList Blocks;
  /// Live instruction count: pristine size plus every planned rewrite's
  /// exact instruction delta — tracks what the loader's re-summarized live
  /// body reported to the serial phases at the same decision points.
  uint64_t Size = 0;
  uint64_t EntryFreq = 0;
  uint32_t RetCount = 0; ///< Invariant under every planned rewrite.
  bool HasProfile = false;

  explicit VirtualCaller(Arena *A = nullptr)
      : Blocks(ArenaAllocator<SiteList>(A)) {}

  Arena *arena() const { return Blocks.get_allocator().arena(); }

  /// Appends an empty site list backed by the caller's own arena.
  SiteList &newBlock() {
    Blocks.emplace_back(SiteList(ArenaAllocator<VirtualSite>(arena())));
    return Blocks.back();
  }
};

/// Callee-side facts resolved per candidate, uniform across set members,
/// planned clones and out-of-set routines.
struct CalleeFacts {
  bool Defined = false;
  bool Selected = false;
  bool HasBody = false;
  ModuleId Owner = InvalidId;
  uint64_t Size = 0;
  uint64_t EntryFreq = 0;
  uint32_t RetCount = 0;
};

} // namespace

struct WpaPlanner::Impl {
  HloContext &Ctx;
  std::vector<RoutineId> &Set;
  HloPlan Plan;

  /// Planner-lifetime pool for the virtual world's node and block/site
  /// storage — built up across every planning phase, freed wholesale when
  /// the planner dies. Declared before the containers that allocate from
  /// it. Untracked: the world is planning scratch, not program state, and
  /// charging it would distort the figure-style HLO peak.
  Arena WorldArena{nullptr, MemCategory::HloGlobal, /*SlabSize=*/32 * 1024};

  /// Simulated callers keyed by id; CallerOrder preserves the set's
  /// iteration order (the order every serial phase scanned sites in).
  ArenaMap<RoutineId, VirtualCaller> World{
      std::less<RoutineId>(),
      ArenaAllocator<std::pair<const RoutineId, VirtualCaller>>(&WorldArena)};
  std::vector<RoutineId> CallerOrder;
  uint64_t NextUID = 0;

  Impl(HloContext &Ctx, std::vector<RoutineId> &Set) : Ctx(Ctx), Set(Set) {
    for (RoutineId R : Set) {
      if (World.count(R))
        continue;
      if (!Ctx.P.routine(R).IsDefined)
        continue;
      const RoutineIlSummary *Sum = Ctx.L.routineSummary(R);
      if (!Sum)
        continue;
      VirtualCaller VC(&WorldArena);
      VC.Size = Sum->InstrCount;
      VC.EntryFreq = Sum->EntryFreq;
      VC.RetCount = Sum->RetCount;
      VC.HasProfile = Sum->HasProfile;
      appendSiteGroups(VC, Sum->Sites, /*Scale=*/-1.0, false);
      World.emplace(R, std::move(VC));
      CallerOrder.push_back(R);
    }
  }

  /// Appends \p Sites to \p VC as fresh blocks, one per distinct source
  /// block (summary sites are in ascending block/instr order, so grouping
  /// consecutive runs reproduces the real block partitioning — which later
  /// block splits depend on). Scale < 0 keeps counts verbatim (world
  /// construction and clone bodies); otherwise counts are rescaled the way
  /// inlineCallSite rescales copied block frequencies.
  void appendSiteGroups(VirtualCaller &VC,
                        const std::vector<RoutineIlSummary::Site> &Sites,
                        double Scale, bool CallerHasProfile) {
    bool First = true;
    BlockId LastBlock = InvalidId;
    for (const RoutineIlSummary::Site &S : Sites) {
      if (First || S.Block != LastBlock) {
        VC.newBlock();
        LastBlock = S.Block;
        First = false;
      }
      uint64_t Count = S.Count;
      if (Scale >= 0.0)
        Count = CallerHasProfile
                    ? static_cast<uint64_t>(double(S.Count) * Scale + 0.5)
                    : 0;
      VC.Blocks.back().push_back({S.Callee, Count, NextUID++, S.NumArgs,
                                  S.HasDst});
    }
  }

  /// Number of directives planned for \p R so far — the version an inlined
  /// copy of R taken right now corresponds to.
  uint32_t versionOf(RoutineId R) const {
    auto It = Plan.CallerOps.find(R);
    return It == Plan.CallerOps.end()
               ? 0
               : static_cast<uint32_t>(It->second.size());
  }

  /// Appends a deep copy of \p Blocks (another caller's current virtual
  /// blocks) to \p VC, block-per-block — the real inlineCallSite copies the
  /// callee's blocks one-to-one. Counts rescale like copied block
  /// frequencies; Scale < 0 keeps them verbatim (clone world entries).
  void appendWorldBlocks(VirtualCaller &VC,
                         const VirtualCaller::BlockList &Blocks,
                         double Scale, bool CallerHasProfile) {
    for (const auto &Blk : Blocks) {
      VC.newBlock();
      for (const VirtualSite &S : Blk) {
        uint64_t Count = S.Count;
        if (Scale >= 0.0)
          Count = CallerHasProfile
                      ? static_cast<uint64_t>(double(S.Count) * Scale + 0.5)
                      : 0;
        VC.Blocks.back().push_back({S.Callee, Count, NextUID++, S.NumArgs,
                                    S.HasDst});
      }
    }
  }

  CalleeFacts factsOf(RoutineId R) {
    CalleeFacts F;
    const RoutineInfo &RI = Ctx.P.routine(R);
    F.Selected = RI.Selected;
    F.Owner = RI.Owner;
    if (Plan.cloneFor(R)) {
      F.Defined = true;
      F.HasBody = true;
      auto It = World.find(R);
      assert(It != World.end() && "planned clone missing from the world");
      F.Size = It->second.Size;
      F.EntryFreq = It->second.EntryFreq;
      F.RetCount = It->second.RetCount;
      return F;
    }
    F.Defined = RI.IsDefined;
    F.HasBody = RI.Slot.State != PoolState::None;
    auto It = World.find(R);
    if (It != World.end()) {
      F.Size = It->second.Size;
      F.EntryFreq = It->second.EntryFreq;
      F.RetCount = It->second.RetCount;
    } else if (F.Defined) {
      if (const RoutineIlSummary *Sum = Ctx.L.routineSummary(R)) {
        F.Size = Sum->InstrCount;
        F.EntryFreq = Sum->EntryFreq;
        F.RetCount = Sum->RetCount;
      }
    }
    return F;
  }

  /// Records \p R's pre-LTRANS body in the plan's snapshot table (a clone
  /// resolves to its origin's body; versions are decoded and replayed from
  /// these at application time). A parked pool is never expanded for it
  /// (Loader::snapshotPool). Serial phase only.
  void ensureSnapshot(RoutineId R) {
    if (const PlannedClone *PC = Plan.cloneFor(R))
      R = PC->Origin;
    if (Plan.Snapshots.count(R))
      return;
    PoolSnapshot Snap = Ctx.L.snapshotPool(R);
    Ctx.Stats.add("wpa.snapshot_bytes", Snap.Bytes.size());
    Ctx.Stats.add("wpa.snapshot_refs", Snap.isRecord() ? 1 : 0);
    Plan.Snapshots.emplace(R, std::move(Snap));
  }

  /// Ordinal of the site at (\p TB, \p TP) among calls to its current
  /// callee, in scan order — the coordinate the application-time scan
  /// recovers.
  uint32_t ordinalOf(const VirtualCaller &VC, size_t TB, size_t TP) const {
    RoutineId Match = VC.Blocks[TB][TP].Callee;
    uint32_t N = 0;
    for (size_t B = 0; B <= TB; ++B) {
      const VirtualCaller::SiteList &Sites = VC.Blocks[B];
      size_t End = B == TB ? TP : Sites.size();
      for (size_t I = 0; I != End; ++I)
        if (Sites[I].Callee == Match)
          ++N;
    }
    return N;
  }

  /// Simulates inlineCallSite on the world: consume the site at (\p B,
  /// \p TP) of \p VC, split its block, append the continuation, then the
  /// callee's inherited sites. The callee contributes its *current* virtual
  /// blocks — it may already carry redirects and inlines of its own, and
  /// the versioned snapshot the application inlines carries exactly the
  /// same state. Count scaling mirrors the real frequency scaling:
  /// SiteCount / callee entry count.
  void virtualInline(VirtualCaller &VC, size_t B, size_t TP) {
    const VirtualSite Consumed = VC.Blocks[B][TP];
    const CalleeFacts F = factsOf(Consumed.Callee);
    double Scale = 0.0;
    if (Consumed.Count && F.EntryFreq)
      Scale = double(Consumed.Count) / double(F.EntryFreq);

    VirtualCaller::SiteList Suffix(VC.Blocks[B].begin() + TP + 1,
                                   VC.Blocks[B].end(),
                                   ArenaAllocator<VirtualSite>(VC.arena()));
    VC.Blocks[B].resize(TP);
    VC.Blocks.push_back(std::move(Suffix)); // Continuation block.
    auto WIt = World.find(Consumed.Callee);
    if (WIt != World.end()) {
      appendWorldBlocks(VC, WIt->second.Blocks, Scale, VC.HasProfile);
    } else if (const RoutineIlSummary *Sum =
                   Ctx.L.routineSummary(Consumed.Callee)) {
      // Out-of-world callee (defined but never planned over): pristine
      // summary sites, grouped by source block.
      appendSiteGroups(VC, Sum->Sites, Scale, VC.HasProfile);
    }
  }

  /// A virtual call graph over the current world, for the per-round
  /// recursion (SCC) and in-count queries the serial inliner answered from
  /// the rebuilt real graph.
  CallGraph virtualGraph() {
    std::map<RoutineId, RoutineIlSummary> Synth;
    for (RoutineId C : CallerOrder) {
      const VirtualCaller &VC = World.at(C);
      RoutineIlSummary Sum;
      Sum.InstrCount = static_cast<uint32_t>(
          std::min<uint64_t>(VC.Size, UINT32_MAX));
      Sum.HasProfile = VC.HasProfile;
      BlockId B = 0;
      for (const auto &Blk : VC.Blocks) {
        uint32_t I = 0;
        for (const VirtualSite &VS : Blk) {
          RoutineIlSummary::Site S;
          S.Block = B;
          S.InstrIdx = I++;
          S.Callee = VS.Callee;
          S.Count = VS.Count;
          Sum.Sites.push_back(std::move(S));
        }
        ++B;
      }
      Synth.emplace(C, std::move(Sum));
    }
    return CallGraph::build(
        Ctx.P, CallerOrder,
        [&Synth](RoutineId R) -> const RoutineIlSummary * {
          auto It = Synth.find(R);
          return It == Synth.end() ? nullptr : &It->second;
        });
  }

  void planIpcp(bool WholeProgram);
  void planClones(const CloneParams &Params);
  void planInline(const InlineParams &Params);
  void planDeadRoutines();
};

void WpaPlanner::Impl::planIpcp(bool WholeProgram) {
  Program &P = Ctx.P;
  // Incoming sites per callee, in caller scan order, straight from the
  // (still pristine) summaries — the same facts the serial pass read off
  // live caller bodies, now carried by Site::ConstArgs.
  std::map<RoutineId, std::vector<const RoutineIlSummary::Site *>> In;
  for (RoutineId C : CallerOrder) {
    const RoutineIlSummary *Sum = Ctx.L.routineSummary(C);
    if (!Sum)
      continue;
    for (const RoutineIlSummary::Site &S : Sum->Sites)
      In[S.Callee].push_back(&S);
  }

  struct Planned {
    RoutineId Routine;
    uint32_t Param;
    int64_t Value;
  };
  std::vector<Planned> Out;
  for (RoutineId R : Set) {
    const RoutineInfo &RI = P.routine(R);
    if (!RI.IsDefined || RI.NumParams == 0)
      continue;
    // Visibility: all call sites must be known. Statics are fully visible
    // once their module is in the set; externs need the whole program.
    if (!RI.IsStatic && !WholeProgram)
      continue;
    auto SitesIt = In.find(R);
    if (SitesIt == In.end() || SitesIt->second.empty())
      continue; // Entry points / unreferenced routines keep their params.
    std::vector<bool> AllConst(RI.NumParams, true);
    std::vector<int64_t> Value(RI.NumParams, 0);
    std::vector<bool> Seeded(RI.NumParams, false);
    for (const RoutineIlSummary::Site *S : SitesIt->second) {
      for (uint32_t A = 0; A != RI.NumParams; ++A) {
        if (!AllConst[A])
          continue;
        const std::pair<uint32_t, int64_t> *Found = nullptr;
        for (const auto &CA : S->ConstArgs)
          if (CA.first == A) {
            Found = &CA;
            break;
          }
        if (!Found || A >= S->NumArgs) {
          AllConst[A] = false;
          continue;
        }
        if (!Seeded[A]) {
          Seeded[A] = true;
          Value[A] = Found->second;
        } else if (Value[A] != Found->second) {
          AllConst[A] = false;
        }
      }
    }
    for (uint32_t A = 0; A != RI.NumParams; ++A)
      if (AllConst[A] && Seeded[A])
        Out.push_back({R, A, Value[A]});
  }
  // Operation gating in global plan order, exactly where the serial pass
  // consumed its budget (one op per applied constant, stop at the limit).
  for (const Planned &PC : Out) {
    if (!Ctx.allowOp())
      break;
    Plan.Ipcp[PC.Routine].push_back({PC.Param, PC.Value});
    Ctx.Stats.add("ipcp.params_propagated");
  }
  // The entry Movs grow the bodies; later size heuristics (clone window,
  // inline budgets) saw the grown sizes in the serial pipeline.
  for (const auto &KV : Plan.Ipcp) {
    auto It = World.find(KV.first);
    if (It != World.end())
      It->second.Size += KV.second.size();
  }
}

void WpaPlanner::Impl::planClones(const CloneParams &Params) {
  Program &P = Ctx.P;
  uint64_t TotalCalls = 0;
  for (const auto &[C, VC] : World)
    for (const auto &Blk : VC.Blocks)
      for (const VirtualSite &S : Blk)
        TotalCalls += S.Count;
  if (!TotalCalls)
    return; // Cloning is a PBO-only transformation here.

  // One clone per (callee, signature); hot sites share clones.
  std::map<std::pair<RoutineId, CloneKey>, RoutineId> Clones;

  // Snapshot the caller list: clones append to CallerOrder but are never
  // scanned as redirect sources (the serial pass scanned one graph built
  // before any clone existed).
  const std::vector<RoutineId> Callers = CallerOrder;
  for (RoutineId Caller : Callers) {
    VirtualCaller &VC = World.at(Caller);
    const RoutineIlSummary *CallerSum = Ctx.L.routineSummary(Caller);
    if (!CallerSum)
      continue;
    // The world is structurally pristine here (redirects do not move
    // sites), so flat site index K corresponds to summary site K — which
    // carries the constant-argument signature.
    size_t FlatIdx = 0;
    for (size_t B = 0; B != VC.Blocks.size(); ++B) {
      for (size_t I = 0; I != VC.Blocks[B].size(); ++I, ++FlatIdx) {
        VirtualSite &Site = VC.Blocks[B][I];
        const RoutineIlSummary::Site &Orig = CallerSum->Sites[FlatIdx];
        if (Plan.CloneStats.ClonesCreated >= Params.MaxClones)
          return;
        if (Site.Count < Params.MinSiteCount ||
            Site.Count * Params.HotSiteDivisor < TotalCalls)
          continue;
        RoutineId Callee = Site.Callee;
        const RoutineInfo &CalleeInfo = P.routine(Callee);
        if (!CalleeInfo.IsDefined || !CalleeInfo.Selected || Caller == Callee)
          continue;
        if (!P.routine(Caller).Selected)
          continue;
        CloneKey Key(Orig.ConstArgs);
        if (Key.empty())
          continue;
        const RoutineIlSummary *CalleeSum = Ctx.L.routineSummary(Callee);
        if (!CalleeSum)
          continue;
        // Size window against the current planned size (the serial cloner
        // measured the live body, which carried its IPCP entry Movs).
        uint64_t CalleeSize = factsOf(Callee).Size;
        if (CalleeSize < Params.MinCalleeInstrs ||
            CalleeSize > Params.MaxCalleeInstrs)
          continue;

        auto CloneIt = Clones.find({Callee, Key});
        RoutineId CloneId;
        if (CloneIt != Clones.end()) {
          CloneId = CloneIt->second;
        } else {
          if (!Ctx.allowOp())
            return;
          ensureSnapshot(Callee);
          // Copy out of CalleeInfo before declareRoutine: creating the
          // clone grows the routine table, invalidating references.
          ModuleId CalleeOwner = CalleeInfo.Owner;
          uint32_t CalleeParams = CalleeInfo.NumParams;
          std::ostringstream Name;
          Name << P.Strings.text(CalleeInfo.Name) << "$clone"
               << Plan.CloneStats.ClonesCreated << "_" << Clones.size();
          CloneId = P.declareRoutine(CalleeOwner, Name.str(), CalleeParams,
                                     /*IsStatic=*/true);
          P.routine(CloneId).Selected = true;
          Plan.Clones.emplace(
              CloneId,
              PlannedClone{CloneId, Callee, Key, versionOf(Callee)});
          // The clone joins the world as a caller: its body is the origin's
          // current state plus entry Movs, so it carries the origin's
          // current sites (redirects included) verbatim.
          VirtualCaller CloneVC(&WorldArena);
          CloneVC.Size = CalleeSize + Key.size();
          CloneVC.EntryFreq = CalleeSum->EntryFreq;
          CloneVC.RetCount = factsOf(Callee).RetCount;
          CloneVC.HasProfile = CalleeSum->HasProfile;
          auto WIt = World.find(Callee);
          if (WIt != World.end())
            appendWorldBlocks(CloneVC, WIt->second.Blocks, /*Scale=*/-1.0,
                              false);
          else
            appendSiteGroups(CloneVC, CalleeSum->Sites, /*Scale=*/-1.0,
                             false);
          World.emplace(CloneId, std::move(CloneVC));
          CallerOrder.push_back(CloneId);
          Set.push_back(CloneId);
          Clones.emplace(std::make_pair(Callee, Key), CloneId);
          ++Plan.CloneStats.ClonesCreated;
          Ctx.Stats.add("clone.created");
        }
        Plan.CallerOps[Caller].push_back({PlanDirective::Kind::Redirect,
                                          Callee, ordinalOf(VC, B, I),
                                          CloneId});
        Site.Callee = CloneId;
        ++Plan.CloneStats.SitesRedirected;
        Ctx.Stats.add("clone.sites_redirected");
      }
    }
  }
}

namespace {

/// A candidate inline operation (the serial inliner's struct, with the
/// site's stable UID as the tie-break token).
struct Candidate {
  RoutineId Caller;
  RoutineId Callee;
  uint64_t Token;
  uint64_t Count;
  ModuleId CallerMod;
  ModuleId CalleeMod;
  int HotBucket;
};

} // namespace

void WpaPlanner::Impl::planInline(const InlineParams &Params) {
  Program &P = Ctx.P;
  uint64_t GrowthBudget = Params.MaxProgramGrowth;

  for (unsigned Round = 0; Round != Params.Rounds; ++Round) {
    // Fresh derived data each round (the paper's recompute discipline),
    // over the simulated program instead of re-summarized bodies.
    CallGraph VG = virtualGraph();
    std::vector<RoutineId> Rec = VG.recursiveRoutines();
    auto IsRecursive = [&Rec](RoutineId R) {
      return std::binary_search(Rec.begin(), Rec.end(), R);
    };

    // Select candidates.
    std::vector<Candidate> Candidates;
    for (RoutineId Caller : CallerOrder) {
      const VirtualCaller &VC = World.at(Caller);
      const RoutineInfo &CallerInfo = P.routine(Caller);
      for (const auto &Blk : VC.Blocks) {
        for (const VirtualSite &S : Blk) {
          ++Plan.InlineStats.SitesConsidered;
          if (S.Callee == Caller)
            continue;
          CalleeFacts F = factsOf(S.Callee);
          if (!F.Defined)
            continue;
          if (!CallerInfo.Selected || !F.Selected)
            continue; // Fine-grained selectivity: cold code is left alone.
          if (Params.IntraModuleOnly && F.Owner != CallerInfo.Owner)
            continue;
          if (!F.HasBody)
            continue;
          if (IsRecursive(S.Callee))
            continue;
          uint64_t CalleeSize = F.Size;
          uint64_t CallerSize = VC.Size;
          bool Eligible = false;
          int HotBucket = 0;
          if (Params.UseProfile) {
            // Hot sites accept much larger callees (the paper's aggressive
            // profile-guided inlining); never-executed sites only small
            // ones.
            uint64_t Allowed =
                S.Count ? Params.MaxCalleeInstrsHot : Params.MaxCalleeInstrs;
            Eligible = CalleeSize <= Allowed;
            if (S.Count)
              HotBucket = static_cast<int>(
                  std::log2(static_cast<double>(S.Count)) + 1);
          } else {
            // Static heuristics: thorough inlining of every small callee
            // and every called-once routine.
            if (CalleeSize <= Params.MaxCalleeInstrsHot)
              Eligible = true;
            else if (VG.sitesTo(S.Callee).size() == 1 &&
                     CalleeSize <= 4 * Params.MaxCalleeInstrsHot)
              Eligible = true;
          }
          if (!Eligible)
            continue;
          if (CallerSize + CalleeSize > Params.MaxCallerInstrs)
            continue;
          Candidates.push_back({Caller, S.Callee, S.UID, S.Count,
                                CallerInfo.Owner, F.Owner, HotBucket});
        }
      }
    }
    if (Candidates.empty())
      break;

    // Cache-aware scheduling (Section 4.3): group by module pair; hotness
    // only overrides order when the growth budget is nearly spent.
    bool BudgetTight =
        Plan.InlineStats.InstrsAdded * 2 > Params.MaxProgramGrowth;
    std::stable_sort(Candidates.begin(), Candidates.end(),
                     [BudgetTight](const Candidate &X, const Candidate &Y) {
                       if (BudgetTight && X.HotBucket != Y.HotBucket)
                         return X.HotBucket > Y.HotBucket;
                       if (X.CallerMod != Y.CallerMod)
                         return X.CallerMod < Y.CallerMod;
                       if (X.CalleeMod != Y.CalleeMod)
                         return X.CalleeMod < Y.CalleeMod;
                       if (X.Caller != Y.Caller)
                         return X.Caller < Y.Caller;
                       return X.Token < Y.Token;
                     });

    uint64_t RoundInlined = 0;
    for (const Candidate &C : Candidates) {
      if (GrowthBudget == 0)
        break;
      if (!Ctx.allowOp())
        break;
      VirtualCaller &VC = World.at(C.Caller);
      // Locate the site by UID: earlier inlines in this round may have
      // moved it between blocks.
      size_t FoundB = SIZE_MAX, FoundI = 0;
      for (size_t B = 0; B != VC.Blocks.size() && FoundB == SIZE_MAX; ++B)
        for (size_t I = 0; I != VC.Blocks[B].size(); ++I)
          if (VC.Blocks[B][I].UID == C.Token) {
            FoundB = B;
            FoundI = I;
            break;
          }
      if (FoundB == SIZE_MAX)
        continue; // Site consumed (shouldn't happen; be safe).
      // Caller growth re-check against the budget, with current virtual
      // sizes — a callee inlined into earlier in the round has grown.
      uint64_t CalleeSize = factsOf(C.Callee).Size;
      if (VC.Size + CalleeSize > Params.MaxCallerInstrs ||
          CalleeSize > GrowthBudget)
        continue;
      // The version pin: the real inlined copy must carry exactly the
      // rewrites the callee's virtual blocks carry right now.
      uint32_t CalleeVersion = versionOf(C.Callee);
      const VirtualSite Site = VC.Blocks[FoundB][FoundI];
      Plan.CallerOps[C.Caller].push_back({PlanDirective::Kind::Inline,
                                          C.Callee,
                                          ordinalOf(VC, FoundB, FoundI),
                                          InvalidId, CalleeVersion});
      ensureSnapshot(C.Callee);
      virtualInline(VC, FoundB, FoundI);
      // Exact live growth: callee body + one Mov per argument + the enter
      // Jmp − the consumed Call (net 0 for those two) + Mov-and-Jmp Ret
      // fixups when the site assigns a result. This is what the loader's
      // re-summarization reported to the serial inliner's size checks; the
      // growth *budget* is charged the callee size alone, as before.
      VC.Size += CalleeSize + Site.NumArgs +
                 (Site.HasDst ? factsOf(C.Callee).RetCount : 0);
      GrowthBudget -= std::min<uint64_t>(GrowthBudget, CalleeSize);
      ++Plan.InlineStats.SitesInlined;
      ++RoundInlined;
      Plan.InlineStats.InstrsAdded += CalleeSize;
      Ctx.Stats.add("inline.sites");
      if (C.CallerMod != C.CalleeMod)
        Ctx.Stats.add("inline.cross_module_sites");
    }
    if (!RoundInlined)
      break;
  }
}

void WpaPlanner::Impl::planDeadRoutines() {
  Program &P = Ctx.P;
  RoutineId Main = P.findRoutine("main");
  if (Main == InvalidId || !P.routine(Main).IsDefined)
    return;
  // Dense reachability over the final virtual graph: callees outside the
  // world are leaves, exactly like the serial graph walk over the set.
  std::vector<bool> Reached(P.numRoutines(), false);
  std::vector<RoutineId> Stack = {Main};
  Reached[Main] = true;
  while (!Stack.empty()) {
    RoutineId R = Stack.back();
    Stack.pop_back();
    auto It = World.find(R);
    if (It == World.end())
      continue;
    for (const auto &Blk : It->second.Blocks)
      for (const VirtualSite &S : Blk) {
        if (S.Callee >= Reached.size() || Reached[S.Callee])
          continue;
        Reached[S.Callee] = true;
        Stack.push_back(S.Callee);
      }
  }
  for (RoutineId R : Set) {
    RoutineInfo &RI = P.routine(R);
    if (!RI.IsDefined && !Plan.cloneFor(R))
      continue;
    if (!Reached[R]) {
      RI.Emit = false;
      Ctx.Stats.add("hlo.dead_routines");
    }
  }
}

WpaPlanner::WpaPlanner(HloContext &Ctx, std::vector<RoutineId> &Set)
    : M(new Impl(Ctx, Set)) {}
WpaPlanner::~WpaPlanner() = default;

void WpaPlanner::planIpcp(bool WholeProgram) { M->planIpcp(WholeProgram); }
void WpaPlanner::planClones(const CloneParams &Params) {
  M->planClones(Params);
}
void WpaPlanner::planInline(const InlineParams &Params) {
  M->planInline(Params);
}
void WpaPlanner::planDeadRoutines() { M->planDeadRoutines(); }
HloPlan WpaPlanner::take() { return std::move(M->Plan); }

//===----------------------------------------------------------------------===//
// Plan application (LTRANS side)
//===----------------------------------------------------------------------===//

namespace {

const RoutineBody &materializeVersion(HloContext &Ctx, RoutineId R,
                                      uint32_t Version, const HloPlan &Plan,
                                      HloSnapshotCache &Cache);

bool applyDirective(HloContext &Ctx, RoutineBody &Body,
                    const PlanDirective &D, const HloPlan &Plan,
                    HloSnapshotCache &Cache) {
  Program &P = Ctx.P;
  uint32_t Seen = 0;
  for (BlockId B = 0; B != Body.Blocks.size(); ++B) {
    std::vector<Instr *> &Instrs = Body.Blocks[B].Instrs;
    for (uint32_t I = 0; I != Instrs.size(); ++I) {
      Instr *In = Instrs[I];
      if (In->Op != Opcode::Call || In->Sym != D.MatchCallee)
        continue;
      if (Seen++ != D.Ordinal)
        continue;
      if (D.K == PlanDirective::Kind::Redirect) {
        In->Sym = D.Target;
        P.invalidateCallGraph();
        return true;
      }
      const RoutineBody &Snap =
          materializeVersion(Ctx, D.MatchCallee, D.CalleeVersion, Plan, Cache);
      return inlineCallSite(P, Body, Snap, B, I);
    }
  }
  // Only a stub standing in for an unreadable snapshot can hide the site;
  // the loader has then latched the error that fails the build.
  assert(!Ctx.L.firstError().ok() && "plan directive matched no call site");
  return false;
}

/// The shared application core: R's IPCP entry constants, then its first
/// \p DirectiveCount directives in emission order. Full application passes
/// UINT32_MAX; versioned replay passes the recorded prefix length.
void applyPlanPrefix(HloContext &Ctx, RoutineBody &Body, RoutineId R,
                     uint32_t DirectiveCount, const HloPlan &Plan,
                     HloSnapshotCache &Cache) {
  Program &P = Ctx.P;
  if (const std::vector<PlannedConst> *Consts = Plan.ipcpFor(R)) {
    for (const PlannedConst &PC : *Consts) {
      Instr *MovI = Body.newInstr(Opcode::Mov);
      MovI->Dst = PC.Param;
      MovI->A = Operand::imm(PC.Value);
      Body.Blocks[0].Instrs.insert(Body.Blocks[0].Instrs.begin(), MovI);
    }
    if (!Consts->empty())
      P.invalidateCallGraph(); // Entry inserts shifted instruction indices.
  }
  if (const std::vector<PlanDirective> *Ops = Plan.opsFor(R)) {
    size_t N = std::min<size_t>(DirectiveCount, Ops->size());
    for (size_t I = 0; I != N; ++I)
      applyDirective(Ctx, Body, (*Ops)[I], Plan, Cache);
  }
}

/// Rebuilds routine \p R as it stood after its first \p Version directives:
/// base body (decoded snapshot, or for a clone the origin at its creation
/// version plus the key Movs), IPCP entry constants, then the directive
/// prefix. Purely plan-driven, so any worker rebuilds the identical body;
/// the recursion is well-founded because a directive can only record callee
/// versions that were planned before it.
const RoutineBody &materializeVersion(HloContext &Ctx, RoutineId R,
                                      uint32_t Version, const HloPlan &Plan,
                                      HloSnapshotCache &Cache) {
  Program &P = Ctx.P;
  auto Key = std::make_pair(R, Version);
  auto It = Cache.find(Key);
  if (It != Cache.end())
    return *It->second;
  std::unique_ptr<RoutineBody> Body;
  if (const PlannedClone *PC = Plan.cloneFor(R)) {
    const RoutineBody &Base =
        materializeVersion(Ctx, PC->Origin, PC->OriginVersion, Plan, Cache);
    Body = copyRoutineBody(Base, P.tracker());
    for (const auto &[Param, Value] : PC->Key) {
      Instr *MovI = Body->newInstr(Opcode::Mov);
      MovI->Dst = Param;
      MovI->A = Operand::imm(Value);
      Body->Blocks[0].Instrs.insert(Body->Blocks[0].Instrs.begin(), MovI);
    }
  } else {
    // An unreadable snapshot comes back as a stub, with the error latched.
    Body = Ctx.L.expandSnapshot(R, Plan.Snapshots.at(R));
  }
  applyPlanPrefix(Ctx, *Body, R, Version, Plan, Cache);
  // Insert after the recursive calls above: they may not invalidate the
  // reference a std::map hands out, but they can insert their own entries,
  // so the slot is claimed only once the body is final.
  auto &Slot = Cache[Key];
  Slot = std::move(Body);
  return *Slot;
}

} // namespace

void scmo::applyRoutinePlan(HloContext &Ctx, RoutineBody &Body, RoutineId R,
                            const HloPlan &Plan, HloSnapshotCache &Cache) {
  applyPlanPrefix(Ctx, Body, R, UINT32_MAX, Plan, Cache);
}

void scmo::materializeClone(HloContext &Ctx, RoutineId R, const HloPlan &Plan,
                            HloSnapshotCache &Cache) {
  Program &P = Ctx.P;
  const PlannedClone *PC = Plan.cloneFor(R);
  assert(PC && "routine is not a planned clone");
  if (!PC)
    return;
  // Version 0 of the clone: origin at creation version plus the key Movs.
  // The clone's own directives (if any) are applied afterwards through
  // applyRoutinePlan on the defined body, like any other routine's.
  auto Body =
      copyRoutineBody(materializeVersion(Ctx, R, 0, Plan, Cache), P.tracker());
  P.defineRoutine(R, P.routine(R).Owner, std::move(Body));
}
