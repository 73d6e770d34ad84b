//===- analysis/Dataflow.h --------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small iterative forward bit-vector dataflow solver over a routine's
/// basic blocks: per-block Gen/Kill transfer functions with union or
/// intersection meet, edges read off the terminators (ir/Routine.h). Backward
/// liveness is ir/Liveness, the one solver DCE, LLO and the dead-store check
/// share. Dataflow results are classic *derived* data in the paper's
/// taxonomy — recomputed per analysis invocation, never persisted — which is
/// what lets the analysis engine stream routine bodies through the NAIM
/// loader one at a time.
///
/// Solver iteration order is fixed (ascending block ids), so the fixpoint —
/// and everything diagnosed from it — is deterministic regardless of how
/// routines are scheduled across workers.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_ANALYSIS_DATAFLOW_H
#define SCMO_ANALYSIS_DATAFLOW_H

#include "ir/Routine.h"
#include "support/RegBitSet.h"

#include <cstdint>
#include <vector>

namespace scmo {

/// Blocks reachable from the entry block along terminator edges.
std::vector<bool> reachableFromEntry(const RoutineBody &Body);

/// Confluence operator. Union = may-analysis (reaching, maybe-undefined);
/// Intersect = must-analysis (available, definitely-called).
enum class MeetOp : uint8_t { Union, Intersect };

/// Per-block transfer function in Gen/Kill form:
///   Out[B] = Gen[B] ∪ (In[B] \ Kill[B])
/// Pass an arena to pool the bit-vectors; copies of an arena-backed
/// prototype (e.g. vector fill-construction) stay on the same arena.
struct BlockTransfer {
  RegBitSet Gen;
  RegBitSet Kill;
  explicit BlockTransfer(uint32_t Universe, Arena *A = nullptr)
      : Gen(Universe, A), Kill(Universe, A) {}
};

/// Solver output: the fixpoint In/Out set per block.
struct DataflowResult {
  std::vector<RegBitSet> In;
  std::vector<RegBitSet> Out;

  /// Bytes of bit-vector storage (charged to MemCategory::HloDerived by the
  /// analysis driver so figure-style memory reports include analysis
  /// scratch).
  uint64_t bytes() const {
    uint64_t N = 0;
    for (const RegBitSet &S : In)
      N += S.bytes();
    for (const RegBitSet &S : Out)
      N += S.bytes();
    return N;
  }
};

/// Forward solve over \p Body's blocks: In[entry] = Boundary; other blocks
/// start at bottom (empty for Union, full for Intersect) and iterate to the
/// fixpoint. The body must be verified (every edge targets a block).
///
/// When \p Scratch is non-null, every bit-vector the solve creates — the
/// result's In/Out sets included — allocates from it, so the caller frees
/// the whole working set with one Arena::reset(). The result must then be
/// consumed before the arena is reset or destroyed.
DataflowResult solveForward(const RoutineBody &Body,
                            const std::vector<BlockTransfer> &Transfer,
                            const RegBitSet &Boundary, MeetOp Meet,
                            uint32_t Universe, Arena *Scratch = nullptr);

} // namespace scmo

#endif // SCMO_ANALYSIS_DATAFLOW_H
