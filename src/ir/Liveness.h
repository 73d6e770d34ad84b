//===- ir/Liveness.h --------------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backward block liveness over a routine's virtual registers: the one
/// solver behind HLO dead code elimination and LLO live intervals. Like all
/// dataflow results it is *derived* data in the paper's taxonomy, recomputed
/// per use and never persisted.
///
/// The four per-block sets (upward-exposed Use, Def, LiveIn, LiveOut) sit in
/// one flat word buffer, predecessors in CSR form built from terminators.
/// The solve starts from empty sets with every block dirty; a block is
/// re-solved only when a successor's LiveIn grew, and each sweep visits the
/// dirty blocks in descending id order. The system is a monotone union over
/// a finite lattice, so any such chaotic iteration reaches the same least
/// fixpoint as a round-robin sweep: the sets are identical, only the work
/// differs. An instance keeps its buffers between solves, so one that lives
/// as long as a worker thread stops allocating after its largest routine.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_IR_LIVENESS_H
#define SCMO_IR_LIVENESS_H

#include "ir/Routine.h"

#include <cstdint>
#include <vector>

namespace scmo {

class Liveness {
public:
  /// Solves liveness for \p Body (registers [0, Body.NextReg)).
  void solve(const RoutineBody &Body);

  /// 64-bit words per set: ceil(NextReg / 64).
  uint32_t words() const { return Words; }

  /// LiveOut of block \p B as words() words.
  const uint64_t *liveOut(BlockId B) const { return row(B, Out); }

  /// Calls \p F for every register live into / out of \p B, ascending.
  template <typename Fn> void forEachLiveIn(BlockId B, Fn F) const {
    forEachBit(row(B, In), F);
  }
  template <typename Fn> void forEachLiveOut(BlockId B, Fn F) const {
    forEachBit(row(B, Out), F);
  }

private:
  enum Plane : uint32_t { Use, Def, In, Out, NumPlanes };

  const uint64_t *row(BlockId B, Plane P) const {
    return Sets.data() + (size_t(B) * NumPlanes + P) * Words;
  }
  uint64_t *row(BlockId B, Plane P) {
    return Sets.data() + (size_t(B) * NumPlanes + P) * Words;
  }

  template <typename Fn> void forEachBit(const uint64_t *Row, Fn F) const {
    for (uint32_t W = 0; W != Words; ++W)
      for (uint64_t Bits = Row[W]; Bits; Bits &= Bits - 1)
        F(static_cast<RegId>(W * 64 + __builtin_ctzll(Bits)));
  }

  uint32_t Words = 0;
  /// NumPlanes rows of Words words per block, block-major.
  std::vector<uint64_t> Sets;
  /// Predecessors of B are Preds[PredBegin[B], PredBegin[B + 1]).
  std::vector<uint32_t> PredBegin;
  std::vector<BlockId> Preds;
  std::vector<uint8_t> Dirty;
};

} // namespace scmo

#endif // SCMO_IR_LIVENESS_H
