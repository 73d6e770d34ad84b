//===- hlo/Inliner.cpp ----------------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "hlo/Inliner.h"

using namespace scmo;

bool scmo::inlineCallSite(Program &P, RoutineBody &CallerBody,
                          const RoutineBody &CalleeBody, BlockId Block,
                          uint32_t InstrIdx) {
  BasicBlock &BB = CallerBody.Blocks[Block];
  if (InstrIdx >= BB.Instrs.size())
    return false;
  Instr *Call = BB.Instrs[InstrIdx];
  if (Call->Op != Opcode::Call)
    return false;

  const RegId RetDst = Call->Dst;
  const uint64_t SiteCount = CallerBody.HasProfile ? BB.Freq : 0;
  const uint64_t CalleeEntry = CalleeBody.entryFreq();

  // Split the caller block: everything after the call moves into a fresh
  // continuation block. Branches into `Block` still land at its beginning,
  // which is unchanged.
  BlockId ContB = CallerBody.newBlock();
  BasicBlock &Cont = CallerBody.Blocks[ContB];
  {
    BasicBlock &CallBB = CallerBody.Blocks[Block]; // re-ref after newBlock
    Cont.Instrs.assign(CallBB.Instrs.begin() + InstrIdx + 1,
                       CallBB.Instrs.end());
    Cont.Freq = CallBB.Freq;
    Cont.TakenFreq = CallBB.TakenFreq;
    CallBB.TakenFreq = 0;
    CallBB.Instrs.resize(InstrIdx); // Drops the call itself too.
  }

  // Map callee registers into fresh caller registers; parameters get
  // explicit moves from the argument operands.
  const RegId RegBase = CallerBody.NextReg;
  CallerBody.NextReg += CalleeBody.NextReg;
  {
    BasicBlock &CallBB = CallerBody.Blocks[Block];
    for (uint32_t A = 0; A != Call->NumArgs; ++A) {
      Instr *MovI = CallerBody.newInstr(Opcode::Mov);
      MovI->Dst = RegBase + A;
      MovI->A = Call->Args[A];
      MovI->Line = Call->Line;
      CallBB.Instrs.push_back(MovI);
    }
  }

  // Copy callee blocks.
  const BlockId CopyBase = static_cast<BlockId>(CallerBody.Blocks.size());
  double Scale = 0.0;
  if (SiteCount && CalleeEntry)
    Scale = double(SiteCount) / double(CalleeEntry);
  for (BlockId CB = 0; CB != CalleeBody.Blocks.size(); ++CB)
    CallerBody.newBlock();
  for (BlockId CB = 0; CB != CalleeBody.Blocks.size(); ++CB) {
    const BasicBlock &Src = CalleeBody.Blocks[CB];
    BasicBlock &Dst = CallerBody.Blocks[CopyBase + CB];
    Dst.Freq = static_cast<uint64_t>(double(Src.Freq) * Scale + 0.5);
    Dst.TakenFreq = static_cast<uint64_t>(double(Src.TakenFreq) * Scale + 0.5);
    Dst.Instrs.reserve(Src.Instrs.size());
    for (const Instr *SI : Src.Instrs) {
      Instr *NI = CallerBody.newInstr(SI->Op);
      *NI = *SI;
      // Remap registers.
      if (NI->Dst != NoReg)
        NI->Dst += RegBase;
      if (NI->A.isReg())
        NI->A = Operand::reg(NI->A.asReg() + RegBase);
      if (NI->B.isReg())
        NI->B = Operand::reg(NI->B.asReg() + RegBase);
      if (SI->NumArgs) {
        NI->Args = CallerBody.newArgArray(SI->NumArgs);
        for (unsigned A = 0; A != SI->NumArgs; ++A) {
          NI->Args[A] = SI->Args[A];
          if (NI->Args[A].isReg())
            NI->Args[A] = Operand::reg(NI->Args[A].asReg() + RegBase);
        }
      }
      // Remap control flow.
      if (NI->Op == Opcode::Jmp)
        NI->T1 += CopyBase;
      else if (NI->Op == Opcode::Br) {
        NI->T1 += CopyBase;
        NI->T2 += CopyBase;
      } else if (NI->Op == Opcode::Ret) {
        // return v  =>  retDst = v; goto continuation
        Operand RetVal = NI->A;
        if (RetDst != NoReg) {
          NI->Op = Opcode::Mov;
          NI->Dst = RetDst;
          NI->A = RetVal;
          Dst.Instrs.push_back(NI);
          NI = CallerBody.newInstr(Opcode::Jmp);
          NI->Line = SI->Line;
        } else {
          NI->Op = Opcode::Jmp;
          NI->Dst = NoReg;
          NI->A = Operand::none();
        }
        NI->T1 = ContB;
        NI->T2 = InvalidId;
      }
      // Copied probe ids must not double-count or alias the original
      // callee's counters; the optimized pipeline carries no probes anyway.
      if (NI->Op == Opcode::Probe)
        NI->Op = Opcode::Nop;
      else if (NI->Op == Opcode::Br)
        NI->ProbeId = InvalidId;
      Dst.Instrs.push_back(NI);
    }
  }

  // Enter the inlined body.
  {
    BasicBlock &CallBB = CallerBody.Blocks[Block];
    Instr *JmpI = CallerBody.newInstr(Opcode::Jmp);
    JmpI->T1 = CopyBase;
    JmpI->Line = Call->Line;
    CallBB.Instrs.push_back(JmpI);
  }
  P.invalidateCallGraph(); // A call edge was consumed; shared graphs are stale.
  return true;
}
