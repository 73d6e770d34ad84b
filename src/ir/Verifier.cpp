//===- ir/Verifier.cpp ----------------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include <string>

using namespace scmo;

namespace {

/// Collects the first violation found while walking one routine.
class RoutineVerifier {
public:
  RoutineVerifier(const Program &P, RoutineId R, const RoutineBody &Body,
                  uint32_t NumProbes)
      : P(P), R(R), Body(Body), NumProbes(NumProbes) {}

  bool run(DiagnosticEngine &Diags) {
    bool Ok = walk();
    if (!Ok)
      Diags.add(First);
    return Ok;
  }

private:
  bool walk() {
    if (Body.Blocks.empty())
      return fail(0, InvalidId, nullptr, "routine has no blocks");
    if (Body.NumParams > Body.NextReg)
      return fail(0, InvalidId, nullptr, "params exceed register count");
    for (BlockId B = 0; B != Body.Blocks.size(); ++B)
      if (!checkBlock(B))
        return false;
    return true;
  }

  bool checkBlock(BlockId B) {
    const BasicBlock &BB = Body.Blocks[B];
    if (BB.Instrs.empty())
      return fail(B, InvalidId, nullptr, "empty block");
    for (size_t Idx = 0; Idx != BB.Instrs.size(); ++Idx) {
      const Instr *I = BB.Instrs[Idx];
      bool IsLast = Idx + 1 == BB.Instrs.size();
      if (I->isTerm() != IsLast)
        return fail(B, static_cast<uint32_t>(Idx), I,
                    I->isTerm() ? "terminator not at block end"
                                : "block does not end in a terminator");
      if (!checkInstr(B, static_cast<uint32_t>(Idx), *I))
        return false;
    }
    return true;
  }

  bool checkInstr(BlockId B, uint32_t Idx, const Instr &I) {
    // Register bounds on all operands.
    if (!checkOperand(B, Idx, I, I.A) || !checkOperand(B, Idx, I, I.B))
      return false;
    if (I.Dst != NoReg && I.Dst >= Body.NextReg)
      return fail(B, Idx, &I, "dst register out of range");

    switch (I.Op) {
    case Opcode::Mov:
    case Opcode::Neg:
      return check(B, Idx, I, I.Dst != NoReg && !I.A.isNone() && I.B.isNone(),
                   "unary op needs dst and one operand");
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
      return check(B, Idx, I, I.Dst != NoReg && !I.A.isNone() && !I.B.isNone(),
                   "binary op needs dst and two operands");
    case Opcode::LoadG:
      if (I.Sym >= P.numGlobals())
        return fail(B, Idx, &I, "global id out of range");
      return check(B, Idx, I, I.Dst != NoReg, "loadg needs dst");
    case Opcode::StoreG:
      if (I.Sym >= P.numGlobals())
        return fail(B, Idx, &I, "global id out of range");
      return check(B, Idx, I, !I.A.isNone(), "storeg needs a value");
    case Opcode::LoadIdx:
      if (I.Sym >= P.numGlobals())
        return fail(B, Idx, &I, "global id out of range");
      return check(B, Idx, I, I.Dst != NoReg && !I.A.isNone(),
                   "loadidx needs dst and index");
    case Opcode::StoreIdx:
      if (I.Sym >= P.numGlobals())
        return fail(B, Idx, &I, "global id out of range");
      return check(B, Idx, I, !I.A.isNone() && !I.B.isNone(),
                   "storeidx needs index and value");
    case Opcode::Jmp:
      return check(B, Idx, I, I.T1 < Body.Blocks.size(),
                   "jmp target out of range");
    case Opcode::Br:
      if (I.A.isNone())
        return fail(B, Idx, &I, "br needs a condition");
      return check(B, Idx, I,
                   I.T1 < Body.Blocks.size() && I.T2 < Body.Blocks.size(),
                   "br target out of range");
    case Opcode::Ret:
      return check(B, Idx, I, !I.A.isNone(), "ret needs a value");
    case Opcode::Call: {
      if (I.Sym >= P.numRoutines())
        return fail(B, Idx, &I, "callee id out of range");
      const RoutineInfo &Callee = P.routine(I.Sym);
      if (I.NumArgs != Callee.NumParams)
        return fail(B, Idx, &I, "call argument count mismatch");
      for (unsigned A = 0; A != I.NumArgs; ++A) {
        if (I.Args[A].isNone())
          return fail(B, Idx, &I, "call passes a missing argument");
        if (!checkOperand(B, Idx, I, I.Args[A]))
          return false;
      }
      return true;
    }
    case Opcode::Print:
      return check(B, Idx, I, !I.A.isNone(), "print needs a value");
    case Opcode::Probe:
      if (I.ProbeId == InvalidId)
        return fail(B, Idx, &I, "probe without counter id");
      if (NumProbes != InvalidId && I.ProbeId >= NumProbes)
        return fail(B, Idx, &I, "probe id out of range for probe table");
      return true;
    case Opcode::Nop:
      // ProbeId is deliberately not checked: the inliner retires Probe
      // instructions to Nop while keeping the id for debugging.
      return check(B, Idx, I,
                   I.Dst == NoReg && I.A.isNone() && I.B.isNone() &&
                       I.NumArgs == 0,
                   "nop carries operands");
    }
    scmo_unreachable("invalid opcode");
  }

  bool checkOperand(BlockId B, uint32_t Idx, const Instr &I,
                    const Operand &O) {
    if (O.isReg() && O.Reg >= Body.NextReg)
      return fail(B, Idx, &I, "source register out of range");
    return true;
  }

  bool check(BlockId B, uint32_t Idx, const Instr &I, bool Cond,
             const char *Msg) {
    return Cond ? true : fail(B, Idx, &I, Msg);
  }

  bool fail(BlockId B, uint32_t Idx, const Instr *I, const char *Msg) {
    First.Sev = Severity::Error;
    First.Code = CheckCode::Verify;
    First.Routine = R;
    First.Block = B;
    First.InstrIdx = Idx;
    First.Line = I ? I->Line : 0;
    First.Message = Msg;
    if (I)
      First.Message = "(" + std::string(opcodeName(I->Op)) + ") " + Msg;
    return false;
  }

  const Program &P;
  RoutineId R;
  const RoutineBody &Body;
  uint32_t NumProbes;
  Diagnostic First;
};

} // namespace

bool scmo::verifyRoutine(const Program &P, RoutineId R,
                         const RoutineBody &Body, DiagnosticEngine &Diags,
                         uint32_t NumProbes) {
  return RoutineVerifier(P, R, Body, NumProbes).run(Diags);
}
