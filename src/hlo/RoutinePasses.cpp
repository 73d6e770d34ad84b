//===- hlo/RoutinePasses.cpp ----------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "hlo/RoutinePasses.h"

#include "ir/Liveness.h"
#include "support/Fold.h"

#include <algorithm>

using namespace scmo;

namespace {

/// Applies IL arithmetic at compile time, with exactly the VM's semantics.
int64_t foldBinary(Opcode Op, int64_t A, int64_t B) {
  switch (Op) {
  case Opcode::Add:
    return wrapAdd(A, B);
  case Opcode::Sub:
    return wrapSub(A, B);
  case Opcode::Mul:
    return wrapMul(A, B);
  case Opcode::Div:
    return safeDiv(A, B);
  case Opcode::Rem:
    return safeRem(A, B);
  case Opcode::CmpEq:
    return A == B;
  case Opcode::CmpNe:
    return A != B;
  case Opcode::CmpLt:
    return A < B;
  case Opcode::CmpLe:
    return A <= B;
  case Opcode::CmpGt:
    return A > B;
  case Opcode::CmpGe:
    return A >= B;
  default:
    scmo_unreachable("not a foldable binary opcode");
  }
}

bool isBinaryArith(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Div:
  case Opcode::Rem:
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::CmpLt:
  case Opcode::CmpLe:
  case Opcode::CmpGt:
  case Opcode::CmpGe:
    return true;
  default:
    return false;
  }
}

template <typename Fn> void forEachUseRef(Instr &I, Fn F) {
  if (I.A.isReg())
    F(I.A);
  if (I.B.isReg())
    F(I.B);
  for (unsigned A = 0; A != I.NumArgs; ++A)
    if (I.Args[A].isReg())
      F(I.Args[A]);
}

} // namespace

//===----------------------------------------------------------------------===//
// Constant propagation
//===----------------------------------------------------------------------===//

bool scmo::runConstProp(Program &P, RoutineBody &Body, Statistics &Stats) {
  uint64_t Operands = 0, Folds = 0, GlobalLoads = 0;
  std::vector<uint8_t> HasConst(Body.NextReg, 0);
  std::vector<int64_t> ConstVal(Body.NextReg, 0);

  for (BasicBlock &BB : Body.Blocks) {
    // Constants are tracked block-locally; re-seed per block.
    std::fill(HasConst.begin(), HasConst.end(), 0);
    for (Instr *I : BB.Instrs) {
      // Substitute known-constant register operands with immediates.
      forEachUseRef(*I, [&](Operand &O) {
        RegId V = O.asReg();
        if (HasConst[V]) {
          O = Operand::imm(ConstVal[V]);
          ++Operands;
        }
      });
      // Fold.
      if (isBinaryArith(I->Op) && I->A.isImm() && I->B.isImm()) {
        int64_t Result = foldBinary(I->Op, I->A.asImm(), I->B.asImm());
        I->Op = Opcode::Mov;
        I->A = Operand::imm(Result);
        I->B = Operand::none();
        ++Folds;
      } else if (I->Op == Opcode::Neg && I->A.isImm()) {
        I->Op = Opcode::Mov;
        I->A = Operand::imm(wrapNeg(I->A.asImm()));
        ++Folds;
      } else if (I->Op == Opcode::LoadG || I->Op == Opcode::LoadIdx) {
        const GlobalVar &GV = P.global(I->Sym);
        if (GV.SummaryValid && !GV.EverStored) {
          // Never-stored global: scalars fold to their initializer, arrays
          // (zero-filled) to 0.
          int64_t Value = I->Op == Opcode::LoadG ? GV.Init : 0;
          I->Op = Opcode::Mov;
          I->A = Operand::imm(Value);
          I->B = Operand::none();
          I->Sym = InvalidId;
          ++GlobalLoads;
        }
      }
      // Track definitions.
      if (I->Dst != NoReg && definesValue(I->Op)) {
        if (I->Op == Opcode::Mov && I->A.isImm()) {
          HasConst[I->Dst] = 1;
          ConstVal[I->Dst] = I->A.asImm();
        } else {
          HasConst[I->Dst] = 0;
        }
      }
    }
  }
  // Counted locally and published once per pass: the cleanup loop runs this
  // on every routine, and a registry lookup per rewrite would dominate.
  if (Operands)
    Stats.add("constprop.operands", Operands);
  if (Folds)
    Stats.add("constprop.folds", Folds);
  if (GlobalLoads)
    Stats.add("constprop.global_loads", GlobalLoads);
  return Operands || Folds || GlobalLoads;
}

//===----------------------------------------------------------------------===//
// Redundant branch elimination / CFG simplification
//===----------------------------------------------------------------------===//

namespace {

/// One round of branch folding + threading + merging + unreachable removal.
bool simplifyOnce(RoutineBody &Body, Statistics &Stats) {
  bool Changed = false;
  size_t NumBlocks = Body.Blocks.size();
  // Counted locally and published once, as in runConstProp.
  uint64_t ConstBranches = 0, SameTargetBranches = 0, ThreadedJumps = 0,
           MergedBlocks = 0;

  // Fold constant and degenerate branches.
  for (BasicBlock &BB : Body.Blocks) {
    Instr *Term = BB.terminator();
    if (!Term || Term->Op != Opcode::Br)
      continue;
    if (Term->A.isImm()) {
      BlockId Target = Term->A.asImm() != 0 ? Term->T1 : Term->T2;
      Term->Op = Opcode::Jmp;
      Term->T1 = Target;
      Term->T2 = InvalidId;
      Term->A = Operand::none();
      BB.TakenFreq = 0;
      Changed = true;
      ++ConstBranches;
    } else if (Term->T1 == Term->T2) {
      Term->Op = Opcode::Jmp;
      Term->T2 = InvalidId;
      Term->A = Operand::none();
      BB.TakenFreq = 0;
      Changed = true;
      ++SameTargetBranches;
    }
  }

  // Thread jumps through trivial forwarding blocks.
  auto finalTarget = [&](BlockId Start) {
    BlockId Cur = Start;
    for (unsigned Hops = 0; Hops != 16; ++Hops) {
      const BasicBlock &BB = Body.Blocks[Cur];
      if (BB.Instrs.size() != 1 || BB.Instrs[0]->Op != Opcode::Jmp)
        return Cur;
      BlockId Next = BB.Instrs[0]->T1;
      if (Next == Cur)
        return Cur;
      Cur = Next;
    }
    return Cur;
  };
  for (BasicBlock &BB : Body.Blocks) {
    Instr *Term = BB.terminator();
    if (!Term)
      continue;
    if (Term->Op == Opcode::Jmp) {
      BlockId T = finalTarget(Term->T1);
      if (T != Term->T1) {
        Term->T1 = T;
        Changed = true;
        ++ThreadedJumps;
      }
    } else if (Term->Op == Opcode::Br) {
      BlockId T1 = finalTarget(Term->T1);
      BlockId T2 = finalTarget(Term->T2);
      if (T1 != Term->T1 || T2 != Term->T2) {
        Term->T1 = T1;
        Term->T2 = T2;
        Changed = true;
        ++ThreadedJumps;
      }
    }
  }

  // Merge single-predecessor straight-line successors. A merge can enable
  // further merges (b->c->d chains), so keep the predecessor counts live:
  // merging B into its unique predecessor only changes counts reachable
  // through B's own terminator, which we fold into the counts directly.
  std::vector<uint32_t> PredCount(NumBlocks, 0);
  PredCount[0] += 1; // The entry has an implicit predecessor.
  for (const BasicBlock &BB : Body.Blocks) {
    const Instr *Term = BB.terminator();
    if (!Term)
      continue;
    if (Term->Op == Opcode::Jmp)
      ++PredCount[Term->T1];
    else if (Term->Op == Opcode::Br) {
      ++PredCount[Term->T1];
      ++PredCount[Term->T2];
    }
  }
  for (BlockId B = 0; B != NumBlocks; ++B) {
    BasicBlock &BB = Body.Blocks[B];
    while (true) {
      Instr *Term = BB.terminator();
      if (!Term || Term->Op != Opcode::Jmp)
        break;
      BlockId Succ = Term->T1;
      if (Succ == B || Succ == 0 || PredCount[Succ] != 1)
        break;
      BasicBlock &SB = Body.Blocks[Succ];
      if (SB.Instrs.empty())
        break;
      BB.Instrs.pop_back(); // Drop the Jmp.
      BB.Instrs.insert(BB.Instrs.end(), SB.Instrs.begin(), SB.Instrs.end());
      BB.TakenFreq = SB.TakenFreq;
      SB.Instrs.clear(); // Now unreachable; its terminator moved into BB,
                         // so successor counts are unchanged.
      Changed = true;
      ++MergedBlocks;
    }
  }

  // Remove unreachable blocks (including cleared ones).
  std::vector<BlockId> Stack = {0};
  std::vector<bool> Reachable(Body.Blocks.size(), false);
  Reachable[0] = true;
  while (!Stack.empty()) {
    BlockId B = Stack.back();
    Stack.pop_back();
    const Instr *Term = Body.Blocks[B].terminator();
    if (!Term)
      continue;
    auto visit = [&](BlockId T) {
      if (!Reachable[T]) {
        Reachable[T] = true;
        Stack.push_back(T);
      }
    };
    if (Term->Op == Opcode::Jmp)
      visit(Term->T1);
    else if (Term->Op == Opcode::Br) {
      visit(Term->T1);
      visit(Term->T2);
    }
  }
  bool AnyUnreachable = false;
  for (BlockId B = 0; B != Body.Blocks.size(); ++B)
    if (!Reachable[B])
      AnyUnreachable = true;
  if (AnyUnreachable) {
    std::vector<BlockId> Remap(Body.Blocks.size(), InvalidId);
    std::vector<BasicBlock> NewBlocks;
    for (BlockId B = 0; B != Body.Blocks.size(); ++B) {
      if (!Reachable[B])
        continue;
      Remap[B] = static_cast<BlockId>(NewBlocks.size());
      NewBlocks.push_back(std::move(Body.Blocks[B]));
    }
    for (BasicBlock &BB : NewBlocks) {
      Instr *Term = BB.terminator();
      if (!Term)
        continue;
      if (Term->Op == Opcode::Jmp)
        Term->T1 = Remap[Term->T1];
      else if (Term->Op == Opcode::Br) {
        Term->T1 = Remap[Term->T1];
        Term->T2 = Remap[Term->T2];
      }
    }
    Stats.add("simplify.unreachable_blocks",
              Body.Blocks.size() - NewBlocks.size());
    Body.Blocks = std::move(NewBlocks);
    Changed = true;
  }
  if (ConstBranches)
    Stats.add("simplify.const_branches", ConstBranches);
  if (SameTargetBranches)
    Stats.add("simplify.same_target_branches", SameTargetBranches);
  if (ThreadedJumps)
    Stats.add("simplify.threaded_jumps", ThreadedJumps);
  if (MergedBlocks)
    Stats.add("simplify.merged_blocks", MergedBlocks);
  return Changed;
}

} // namespace

bool scmo::runSimplifyCfg(Program &P, RoutineBody &Body, Statistics &Stats) {
  bool Changed = false;
  for (unsigned Round = 0; Round != 8; ++Round) {
    if (!simplifyOnce(Body, Stats))
      break;
    Changed = true;
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Dead code elimination
//===----------------------------------------------------------------------===//

bool scmo::runDce(Program &P, RoutineBody &Body, Statistics &Stats) {
  // Worker-lifetime scratch: the liveness sets and the per-block walk's
  // live set are reused across routines, so a warm worker allocates
  // nothing here. Untracked: HLO derived scratch is accounted through the
  // analysis driver's replayed charges, not through per-pass live counters.
  thread_local Liveness LV;
  thread_local std::vector<uint64_t> Live;
  LV.solve(Body);

  uint64_t Nops = 0, DeadInstrs = 0, DeadResults = 0;
  for (BlockId B = 0; B != Body.Blocks.size(); ++B) {
    std::vector<Instr *> &Instrs = Body.Blocks[B].Instrs;
    Live.assign(LV.liveOut(B), LV.liveOut(B) + LV.words());
    auto isLive = [&](RegId V) { return (Live[V >> 6] >> (V & 63)) & 1; };
    // Walk backwards, compacting kept instructions toward the block end:
    // the write cursor never passes the read cursor, so the filter needs
    // no second vector.
    size_t Keep = Instrs.size();
    for (size_t Idx = Instrs.size(); Idx-- > 0;) {
      Instr *I = Instrs[Idx];
      if (I->Op == Opcode::Nop) {
        ++Nops;
        continue;
      }
      bool DefinesDead =
          I->Dst != NoReg && definesValue(I->Op) && !isLive(I->Dst);
      if (DefinesDead && !hasSideEffects(I->Op)) {
        ++DeadInstrs;
        continue;
      }
      if (DefinesDead && I->Op == Opcode::Call) {
        // Keep the call, drop the unused result.
        I->Dst = NoReg;
        ++DeadResults;
      }
      if (I->Dst != NoReg && definesValue(I->Op))
        Live[I->Dst >> 6] &= ~(1ull << (I->Dst & 63));
      forEachUseReg(*I, [&](RegId V) { Live[V >> 6] |= 1ull << (V & 63); });
      Instrs[--Keep] = I;
    }
    Instrs.erase(Instrs.begin(), Instrs.begin() + Keep);
  }
  if (Nops)
    Stats.add("dce.nops", Nops);
  if (DeadInstrs)
    Stats.add("dce.instrs", DeadInstrs);
  if (DeadResults)
    Stats.add("dce.call_results", DeadResults);
  return Nops || DeadInstrs || DeadResults;
}

//===----------------------------------------------------------------------===//
// Cleanup pipelines
//===----------------------------------------------------------------------===//

void scmo::runCleanupPipeline(Program &P, RoutineBody &Body,
                              Statistics &Stats) {
  bool Any = false;
  for (unsigned Round = 0; Round != 4; ++Round) {
    // Every pass runs every round, in this order.
    bool Changed = runConstProp(P, Body, Stats);
    Changed |= runSimplifyCfg(P, Body, Stats);
    Changed |= runDce(P, Body, Stats);
    Any |= Changed;
    if (!Changed)
      break;
  }
  if (Any)
    P.invalidateCallGraph();
}

void scmo::runBasicCleanup(Program &P, RoutineBody &Body, Statistics &Stats) {
  bool Changed = runConstProp(P, Body, Stats);
  Changed |= runDce(P, Body, Stats);
  if (Changed)
    P.invalidateCallGraph();
}
