//===- analysis/Dataflow.cpp ----------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "analysis/Dataflow.h"

namespace scmo {

std::vector<bool> reachableFromEntry(const RoutineBody &Body) {
  std::vector<bool> Seen(Body.Blocks.size(), false);
  if (Seen.empty())
    return Seen;
  std::vector<BlockId> Work{0};
  Seen[0] = true;
  while (!Work.empty()) {
    BlockId B = Work.back();
    Work.pop_back();
    forEachSucc(Body.Blocks[B], [&](BlockId S) {
      if (!Seen[S]) {
        Seen[S] = true;
        Work.push_back(S);
      }
    });
  }
  return Seen;
}

DataflowResult solveForward(const RoutineBody &Body,
                            const std::vector<BlockTransfer> &Transfer,
                            const RegBitSet &Boundary, MeetOp Meet,
                            uint32_t Universe, Arena *Scratch) {
  size_t N = Body.Blocks.size();
  DataflowResult R;
  R.In.assign(N, RegBitSet(Universe, Scratch));
  R.Out.assign(N, RegBitSet(Universe, Scratch));
  if (!N)
    return R;
  // Out[B] = Gen[B] ∪ (In[B] \ Kill[B]), written over \p Dst.
  auto Apply = [&](RegBitSet &Dst, size_t B) {
    Dst = Transfer[B].Gen;
    Dst.mergeMinus(R.In[B], Transfer[B].Kill);
  };
  // Intersect-meet lattices start non-boundary nodes at top so the first
  // meet does not clamp everything to bottom.
  if (Meet == MeetOp::Intersect)
    for (size_t B = 1; B != N; ++B)
      R.In[B].setAll();
  R.In[0] = Boundary;
  for (size_t B = 0; B != N; ++B)
    Apply(R.Out[B], B);

  std::vector<uint32_t> PredBegin;
  std::vector<BlockId> Preds;
  buildPredecessors(Body, PredBegin, Preds);
  // One scratch set reused across all iterations: same-universe
  // copy-assignment reuses the buffer, so the fixpoint loop allocates
  // nothing at all.
  RegBitSet NewOut(Universe, Scratch);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t B = 0; B != N; ++B) {
      bool InChanged = false;
      for (uint32_t I = PredBegin[B]; I != PredBegin[B + 1]; ++I)
        InChanged |= Meet == MeetOp::Union ? R.In[B].merge(R.Out[Preds[I]])
                                           : R.In[B].intersect(R.Out[Preds[I]]);
      if (!InChanged)
        continue;
      Apply(NewOut, B);
      if (!(NewOut == R.Out[B])) {
        R.Out[B] = NewOut;
        Changed = true;
      }
    }
  }
  return R;
}

} // namespace scmo
