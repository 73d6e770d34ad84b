//===- ir/CallGraph.cpp ---------------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "ir/CallGraph.h"

#include <algorithm>
#include <map>
#include <set>

using namespace scmo;

CallGraph::CallGraph()
    : Storage(std::make_unique<Arena>(nullptr, MemCategory::HloGlobal,
                                      /*SlabSize=*/16 * 1024)),
      Sites(ArenaAllocator<CallSite>(Storage.get())),
      Out(std::less<RoutineId>(),
          ArenaAllocator<std::pair<const RoutineId, SiteIndexList>>(
              Storage.get())),
      In(std::less<RoutineId>(),
         ArenaAllocator<std::pair<const RoutineId, SiteIndexList>>(
             Storage.get())) {}

void CallGraph::addIndex(IndexMap &M, RoutineId R, uint32_t SiteIdx) {
  M.try_emplace(R, SiteIndexList(ArenaAllocator<uint32_t>(Storage.get())))
      .first->second.push_back(SiteIdx);
}

CallGraph CallGraph::build(const Program &P,
                           const std::vector<RoutineId> &RoutineSet,
                           const BodyProvider &Acquire,
                           const BodyRelease &Release) {
  CallGraph G;
  for (RoutineId R : RoutineSet) {
    const RoutineBody *Body = Acquire(R);
    if (!Body)
      continue;
    for (BlockId B = 0; B != Body->Blocks.size(); ++B) {
      const BasicBlock &BB = Body->Blocks[B];
      for (uint32_t Idx = 0; Idx != BB.Instrs.size(); ++Idx) {
        const Instr *I = BB.Instrs[Idx];
        if (I->Op != Opcode::Call)
          continue;
        CallSite S;
        S.Caller = R;
        S.Block = B;
        S.InstrIdx = Idx;
        S.Callee = I->Sym;
        S.Count = Body->HasProfile ? BB.Freq : 0;
        uint32_t SiteIdx = static_cast<uint32_t>(G.Sites.size());
        G.Sites.push_back(S);
        G.addIndex(G.Out, R, SiteIdx);
        G.addIndex(G.In, S.Callee, SiteIdx);
      }
    }
    if (Release)
      Release(R);
  }
  return G;
}

CallGraph CallGraph::build(const Program &P,
                           const std::vector<RoutineId> &RoutineSet,
                           const SummaryProvider &Summaries) {
  CallGraph G;
  for (RoutineId R : RoutineSet) {
    const RoutineIlSummary *Sum = Summaries(R);
    if (!Sum)
      continue;
    for (const RoutineIlSummary::Site &Site : Sum->Sites) {
      CallSite S;
      S.Caller = R;
      S.Block = Site.Block;
      S.InstrIdx = Site.InstrIdx;
      S.Callee = Site.Callee;
      S.Count = Site.Count;
      uint32_t SiteIdx = static_cast<uint32_t>(G.Sites.size());
      G.Sites.push_back(S);
      G.addIndex(G.Out, R, SiteIdx);
      G.addIndex(G.In, S.Callee, SiteIdx);
    }
  }
  return G;
}

CallGraph CallGraph::buildResident(Program &P) {
  std::vector<RoutineId> All;
  for (RoutineId R = 0; R != P.numRoutines(); ++R)
    if (P.routine(R).Slot.State == PoolState::Expanded)
      All.push_back(R);
  return build(
      P, All,
      [&P](RoutineId R) -> const RoutineBody * {
        return P.routine(R).Slot.Body.get();
      },
      nullptr);
}

const CallGraph &CallGraph::shared(Program &P,
                                   const std::vector<RoutineId> &RoutineSet,
                                   const BodyProvider &Acquire,
                                   const BodyRelease &Release) {
  if (const CallGraph *Cached = P.cachedCallGraph(RoutineSet)) {
    P.noteCallGraphReuse();
    return *Cached;
  }
  auto Graph = std::make_unique<CallGraph>(
      build(P, RoutineSet, Acquire, Release));
  const CallGraph *Raw = Graph.get();
  P.setCachedCallGraph(std::move(Graph), RoutineSet);
  return *Raw;
}

const CallGraph &CallGraph::shared(Program &P,
                                   const std::vector<RoutineId> &RoutineSet,
                                   const SummaryProvider &Summaries) {
  if (const CallGraph *Cached = P.cachedCallGraph(RoutineSet)) {
    P.noteCallGraphReuse();
    return *Cached;
  }
  auto Graph = std::make_unique<CallGraph>(
      build(P, RoutineSet, Summaries));
  const CallGraph *Raw = Graph.get();
  P.setCachedCallGraph(std::move(Graph), RoutineSet);
  return *Raw;
}

uint64_t CallGraph::totalCallsTo(RoutineId R) const {
  uint64_t Total = 0;
  for (uint32_t SiteIdx : sitesTo(R))
    Total += Sites[SiteIdx].Count;
  return Total;
}

std::vector<RoutineId> CallGraph::recursiveRoutines() const {
  std::set<RoutineId> NodeSet;
  for (const CallSite &S : Sites) {
    NodeSet.insert(S.Caller);
    NodeSet.insert(S.Callee);
  }
  Condensation C =
      condense(std::vector<RoutineId>(NodeSet.begin(), NodeSet.end()));
  std::vector<RoutineId> Recursive;
  for (uint32_t SccIdx = 0; SccIdx != C.Members.size(); ++SccIdx)
    if (C.Cyclic[SccIdx])
      Recursive.insert(Recursive.end(), C.Members[SccIdx].begin(),
                       C.Members[SccIdx].end());
  std::sort(Recursive.begin(), Recursive.end());
  return Recursive;
}

CallGraph CallGraph::fromSites(std::vector<CallSite> AllSites) {
  CallGraph G;
  G.Sites.assign(AllSites.begin(), AllSites.end());
  for (uint32_t SiteIdx = 0; SiteIdx != G.Sites.size(); ++SiteIdx) {
    const CallSite &S = G.Sites[SiteIdx];
    G.addIndex(G.Out, S.Caller, SiteIdx);
    G.addIndex(G.In, S.Callee, SiteIdx);
  }
  return G;
}

CallGraph::Condensation
CallGraph::condense(const std::vector<RoutineId> &Nodes,
                    Arena *Scratch) const {
  Condensation C;
  ArenaSet<RoutineId> NodeSet(Nodes.begin(), Nodes.end(),
                              std::less<RoutineId>(),
                              ArenaAllocator<RoutineId>(Scratch));

  // Iterative Tarjan over exactly the requested nodes; edges leaving the
  // node set (e.g. calls to undefined externs) are ignored. Roots are taken
  // in the caller's order, so the SCC numbering is deterministic.
  ArenaAllocator<std::pair<const RoutineId, uint32_t>> MapAlloc(Scratch);
  ArenaMap<RoutineId, uint32_t> Index(MapAlloc); // Absent = unvisited.
  ArenaMap<RoutineId, uint32_t> LowLink(MapAlloc);
  ArenaAllocator<std::pair<const RoutineId, bool>> FlagAlloc(Scratch);
  ArenaMap<RoutineId, bool> OnStack(FlagAlloc);
  ArenaVector<RoutineId> SccStack{ArenaAllocator<RoutineId>(Scratch)};
  uint32_t NextIndex = 1;

  struct Frame {
    RoutineId Node;
    size_t NextEdge;
  };
  for (RoutineId Root : Nodes) {
    if (Index.count(Root))
      continue;
    ArenaVector<Frame> Work{ArenaAllocator<Frame>(Scratch)};
    Work.push_back({Root, 0});
    Index[Root] = LowLink[Root] = NextIndex++;
    SccStack.push_back(Root);
    OnStack[Root] = true;
    while (!Work.empty()) {
      Frame &F = Work.back();
      const auto &Edges = sitesOf(F.Node);
      if (F.NextEdge < Edges.size()) {
        RoutineId Callee = Sites[Edges[F.NextEdge++]].Callee;
        if (!NodeSet.count(Callee))
          continue;
        auto It = Index.find(Callee);
        if (It == Index.end()) {
          Index[Callee] = LowLink[Callee] = NextIndex++;
          SccStack.push_back(Callee);
          OnStack[Callee] = true;
          Work.push_back({Callee, 0});
        } else if (OnStack[Callee]) {
          LowLink[F.Node] = std::min(LowLink[F.Node], It->second);
        }
        continue;
      }
      RoutineId Done = F.Node;
      Work.pop_back();
      if (!Work.empty())
        LowLink[Work.back().Node] =
            std::min(LowLink[Work.back().Node], LowLink[Done]);
      if (LowLink[Done] == Index[Done]) {
        std::vector<RoutineId> Scc;
        while (true) {
          RoutineId Member = SccStack.back();
          SccStack.pop_back();
          OnStack[Member] = false;
          Scc.push_back(Member);
          if (Member == Done)
            break;
        }
        std::sort(Scc.begin(), Scc.end());
        uint32_t SccIdx = static_cast<uint32_t>(C.Members.size());
        for (RoutineId Member : Scc)
          C.SccOf.emplace(Member, SccIdx);
        C.Members.push_back(std::move(Scc));
      }
    }
  }

  // Condensation edges and cyclicity. Tarjan pops callees before callers,
  // so every cross-SCC edge points to a smaller index.
  C.Succs.resize(C.Members.size());
  C.Cyclic.assign(C.Members.size(), false);
  for (uint32_t SccIdx = 0; SccIdx != C.Members.size(); ++SccIdx) {
    if (C.Members[SccIdx].size() > 1)
      C.Cyclic[SccIdx] = true;
    for (RoutineId Member : C.Members[SccIdx]) {
      for (uint32_t SiteIdx : sitesOf(Member)) {
        RoutineId Callee = Sites[SiteIdx].Callee;
        if (!NodeSet.count(Callee))
          continue;
        uint32_t CalleeScc = C.SccOf.at(Callee);
        if (CalleeScc == SccIdx) {
          if (Callee == Member)
            C.Cyclic[SccIdx] = true; // Self edge.
          continue;
        }
        C.Succs[SccIdx].push_back(CalleeScc);
      }
    }
    std::vector<uint32_t> &S = C.Succs[SccIdx];
    std::sort(S.begin(), S.end());
    S.erase(std::unique(S.begin(), S.end()), S.end());
  }

  // Kahn levels by longest path to a leaf: successors have smaller indices,
  // so one ascending sweep computes every level.
  std::vector<uint32_t> Level(C.Members.size(), 0);
  uint32_t MaxLevel = 0;
  for (uint32_t SccIdx = 0; SccIdx != C.Members.size(); ++SccIdx) {
    for (uint32_t Succ : C.Succs[SccIdx])
      Level[SccIdx] = std::max(Level[SccIdx], Level[Succ] + 1);
    MaxLevel = std::max(MaxLevel, Level[SccIdx]);
  }
  C.Levels.resize(C.Members.empty() ? 0 : MaxLevel + 1);
  for (uint32_t SccIdx = 0; SccIdx != C.Members.size(); ++SccIdx)
    C.Levels[Level[SccIdx]].push_back(SccIdx);
  return C;
}
