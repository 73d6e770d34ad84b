//===- ir/CallGraph.h -------------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program call graph — a "global object" in the paper's Figure 3,
/// always memory resident, while the bodies it summarizes may be compacted
/// or offloaded. Following the paper's discipline for derived data, the call
/// graph is never incrementally updated: passes that mutate bodies
/// invalidate it (Program::invalidateCallGraph) and the next consumer
/// rebuilds from scratch. Within one build, consumers that need the graph
/// over the same routine set share a single instance through
/// CallGraph::shared() instead of each recomputing it.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_IR_CALLGRAPH_H
#define SCMO_IR_CALLGRAPH_H

#include "ir/Program.h"
#include "support/ArenaAllocator.h"

#include <functional>
#include <memory>
#include <set>
#include <vector>

namespace scmo {

/// One direct call site. \c Count is the execution count of the containing
/// block under the correlated profile (each call in a block executes exactly
/// as often as the block), 0 when no profile is attached.
struct CallSite {
  RoutineId Caller = InvalidId;
  BlockId Block = InvalidId;
  uint32_t InstrIdx = 0;
  RoutineId Callee = InvalidId;
  uint64_t Count = 0;
};

/// Whole-program (or module-set) call graph with per-site profile counts.
///
/// Node/edge storage lives in one graph-lifetime arena (the paper's pool
/// discipline for global objects): the site list and the per-routine index
/// lists are thousands of small allocations that are always built together
/// and dropped together, so they bump-allocate from the graph's own pool
/// and free wholesale when the graph is invalidated.
class CallGraph {
public:
  using SiteList = ArenaVector<CallSite>;
  using SiteIndexList = ArenaVector<uint32_t>;

  CallGraph();
  CallGraph(CallGraph &&) = default;
  CallGraph(const CallGraph &) = delete;
  CallGraph &operator=(const CallGraph &) = delete;

  /// Provides (possibly loading) the body of a routine; returns null when the
  /// routine has no body available. The NAIM loader supplies this so the
  /// graph can be built without expanding everything at once.
  using BodyProvider = std::function<const RoutineBody *(RoutineId)>;

  /// Called when the graph is done reading a routine's body, letting the
  /// loader mark it unload-pending.
  using BodyRelease = std::function<void(RoutineId)>;

  /// Provides the cached IL summary of a routine (Loader::routineSummary);
  /// null when the routine has no body. Building from summaries skips body
  /// expansion entirely for unchanged routines and yields a graph bit-equal
  /// to a body scan — a summary is recomputed from content whenever the
  /// body changed.
  using SummaryProvider =
      std::function<const RoutineIlSummary *(RoutineId)>;

  /// Builds the graph over the routines in \p RoutineSet (deterministic
  /// order). If \p Release is null, bodies are assumed resident.
  static CallGraph build(const Program &P,
                         const std::vector<RoutineId> &RoutineSet,
                         const BodyProvider &Acquire,
                         const BodyRelease &Release = nullptr);

  /// As build(), but from cached per-routine summaries.
  static CallGraph build(const Program &P,
                         const std::vector<RoutineId> &RoutineSet,
                         const SummaryProvider &Summaries);

  /// Builds over every defined routine, assuming all bodies are expanded.
  static CallGraph buildResident(Program &P);

  /// Returns the build-wide shared graph for \p RoutineSet, building and
  /// installing it on \p P if no valid instance for that exact set exists.
  /// The returned reference stays valid until the next body-mutating pass
  /// calls Program::invalidateCallGraph(). Consumers that mutate bodies
  /// while holding the reference must invalidate afterwards.
  static const CallGraph &shared(Program &P,
                                 const std::vector<RoutineId> &RoutineSet,
                                 const BodyProvider &Acquire,
                                 const BodyRelease &Release = nullptr);

  /// As shared(), but building from cached per-routine summaries.
  static const CallGraph &shared(Program &P,
                                 const std::vector<RoutineId> &RoutineSet,
                                 const SummaryProvider &Summaries);

  /// All call sites in deterministic (caller, block, instr) order.
  const SiteList &sites() const { return Sites; }

  /// Indices into sites() of the calls made by \p R.
  const SiteIndexList &sitesOf(RoutineId R) const {
    static const SiteIndexList Empty;
    auto It = Out.find(R);
    return It == Out.end() ? Empty : It->second;
  }

  /// Indices into sites() of the calls targeting \p R.
  const SiteIndexList &sitesTo(RoutineId R) const {
    static const SiteIndexList Empty;
    auto It = In.find(R);
    return It == In.end() ? Empty : It->second;
  }

  /// Total dynamic calls to \p R across all known sites.
  uint64_t totalCallsTo(RoutineId R) const;

  /// All routines on call-graph cycles: the members of the cyclic SCCs of
  /// condense() over every routine that appears in a call site. Returned
  /// sorted ascending so membership is a binary search and batch
  /// consumers (the WPA inline planner) can intersect without allocating a
  /// node-keyed set.
  std::vector<RoutineId> recursiveRoutines() const;

  /// Rebuilds a graph from an explicit site list (e.g. call sites replayed
  /// from cached analysis summaries instead of live bodies). Site order is
  /// preserved, so a list produced in (caller, block, instr) order yields a
  /// graph identical to a body scan.
  static CallGraph fromSites(std::vector<CallSite> AllSites);

  /// The Tarjan SCC condensation of the graph restricted to \p Nodes —
  /// the scaffold for bottom-up interprocedural propagation. SCC indices
  /// are Tarjan completion order, which is a bottom-up topological order of
  /// the condensation DAG: every SCC's successors (callees) have smaller
  /// indices. Levels groups the SCCs into Kahn waves — level 0 is the
  /// leaves, and every SCC's callees live in strictly lower levels — so a
  /// scheduler can run each level's SCCs in parallel with a barrier
  /// between levels and still see fully-propagated callee facts.
  struct Condensation {
    std::vector<std::vector<RoutineId>> Members; ///< Per SCC, ascending.
    std::map<RoutineId, uint32_t> SccOf;
    std::vector<std::vector<uint32_t>> Succs; ///< Callee SCCs, ascending.
    std::vector<bool> Cyclic; ///< Size > 1 or a self edge.
    std::vector<std::vector<uint32_t>> Levels;
  };
  /// When \p Scratch is non-null, Tarjan's working set (node-keyed
  /// index/lowlink/on-stack maps and the DFS stacks — thousands of small
  /// node allocations) pools in it and frees with one reset; the returned
  /// Condensation itself is always heap-backed and independent of the
  /// arena's lifetime.
  Condensation condense(const std::vector<RoutineId> &Nodes,
                        Arena *Scratch = nullptr) const;

private:
  using IndexMap = ArenaMap<RoutineId, SiteIndexList>;

  /// Appends \p SiteIdx to \p M[R], creating the list on the graph's arena
  /// (never via operator[], which would default-construct it heap-backed).
  void addIndex(IndexMap &M, RoutineId R, uint32_t SiteIdx);

  // Storage must outlive (so precede) the containers that allocate from
  // it; moves transfer the unique_ptr, keeping every allocator valid.
  std::unique_ptr<Arena> Storage;
  SiteList Sites;
  IndexMap Out;
  IndexMap In;
};

} // namespace scmo

#endif // SCMO_IR_CALLGRAPH_H
