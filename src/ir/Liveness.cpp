//===- ir/Liveness.cpp ----------------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "ir/Liveness.h"

using namespace scmo;

void Liveness::solve(const RoutineBody &Body) {
  const uint32_t NumBlocks = static_cast<uint32_t>(Body.Blocks.size());
  Words = (Body.NextReg + 63) / 64;
  Sets.assign(size_t(NumBlocks) * NumPlanes * Words, 0);

  auto test = [](const uint64_t *Row, RegId V) {
    return (Row[V >> 6] >> (V & 63)) & 1;
  };
  auto set = [](uint64_t *Row, RegId V) { Row[V >> 6] |= 1ull << (V & 63); };
  for (BlockId B = 0; B != NumBlocks; ++B) {
    uint64_t *U = row(B, Use);
    uint64_t *D = row(B, Def);
    for (const Instr *I : Body.Blocks[B].Instrs) {
      forEachUseReg(*I, [&](RegId V) {
        if (!test(D, V))
          set(U, V);
      });
      if (I->Dst != NoReg && definesValue(I->Op))
        set(D, I->Dst);
    }
  }

  buildPredecessors(Body, PredBegin, Preds);

  Dirty.assign(NumBlocks, 1);
  uint32_t NumDirty = NumBlocks;
  while (NumDirty) {
    for (uint32_t Idx = NumBlocks; Idx-- > 0;) {
      if (!Dirty[Idx])
        continue;
      Dirty[Idx] = 0;
      --NumDirty;
      BlockId B = Idx;
      // Successor LiveIn sets only grow, so OR-ing them into LiveOut equals
      // recomputing the union from scratch.
      uint64_t *LiveOut = row(B, Out);
      forEachSucc(Body.Blocks[B], [&](BlockId S) {
        const uint64_t *SuccIn = row(S, In);
        for (uint32_t W = 0; W != Words; ++W)
          LiveOut[W] |= SuccIn[W];
      });
      const uint64_t *U = row(B, Use);
      const uint64_t *D = row(B, Def);
      uint64_t *LiveIn = row(B, In);
      bool Grew = false;
      for (uint32_t W = 0; W != Words; ++W) {
        uint64_t New = U[W] | (LiveOut[W] & ~D[W]);
        Grew |= New != LiveIn[W];
        LiveIn[W] = New;
      }
      if (!Grew)
        continue;
      for (uint32_t P = PredBegin[B]; P != PredBegin[B + 1]; ++P)
        if (!Dirty[Preds[P]]) {
          Dirty[Preds[P]] = 1;
          ++NumDirty;
        }
    }
  }
}
