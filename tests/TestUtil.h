//===- tests/TestUtil.h -----------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the test suite: structural equality over routine
/// bodies, random body generation for property tests, and small build/run
/// wrappers.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_TESTS_TESTUTIL_H
#define SCMO_TESTS_TESTUTIL_H

#include "driver/CompilerSession.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "support/Prng.h"
#include "vm/IlInterp.h"

#include <gtest/gtest.h>

namespace scmo {
namespace test {

/// The verifier's message for \p Body ("" when it is well formed).
inline std::string verifyMessage(const Program &P, RoutineId R,
                                 const RoutineBody &Body) {
  DiagnosticEngine Diags;
  return verifyRoutine(P, R, Body, Diags) ? ""
                                          : Diags.diagnostics()[0].Message;
}

/// verifyMessage of the first expanded routine that fails, or "".
inline std::string verifyExpanded(const Program &P) {
  for (RoutineId R = 0; R != P.numRoutines(); ++R) {
    const RoutineInfo &RI = P.routine(R);
    if (RI.Slot.State != PoolState::Expanded)
      continue;
    if (std::string E = verifyMessage(P, R, *RI.Slot.Body); !E.empty())
      return E;
  }
  return "";
}

/// Decodes \p MR's encoded code; empty (plus a test failure) if malformed.
inline std::vector<MInstr> decodeMachine(const MachineRoutine &MR) {
  std::vector<MInstr> Code;
  MCodeReader Reader(MR);
  MInstr I;
  while (Reader.next(I))
    Code.push_back(I);
  EXPECT_TRUE(Reader.ok()) << "malformed code in " << MR.Name;
  return Reader.ok() ? Code : std::vector<MInstr>();
}

/// Structural equality of two bodies (everything the compact encoding must
/// preserve).
inline bool bodiesEqual(const RoutineBody &X, const RoutineBody &Y,
                        std::string *Why = nullptr) {
  auto fail = [&](const std::string &Msg) {
    if (Why)
      *Why = Msg;
    return false;
  };
  if (X.NumParams != Y.NumParams)
    return fail("param count differs");
  if (X.NextReg != Y.NextReg)
    return fail("register count differs");
  if (X.SourceLines != Y.SourceLines)
    return fail("source lines differ");
  if (X.HasProfile != Y.HasProfile)
    return fail("profile flag differs");
  if (X.Blocks.size() != Y.Blocks.size())
    return fail("block count differs");
  for (size_t B = 0; B != X.Blocks.size(); ++B) {
    const BasicBlock &BX = X.Blocks[B];
    const BasicBlock &BY = Y.Blocks[B];
    if (X.HasProfile && (BX.Freq != BY.Freq || BX.TakenFreq != BY.TakenFreq))
      return fail("profile counts differ in block " + std::to_string(B));
    if (BX.Instrs.size() != BY.Instrs.size())
      return fail("instr count differs in block " + std::to_string(B));
    for (size_t I = 0; I != BX.Instrs.size(); ++I) {
      const Instr &IX = *BX.Instrs[I];
      const Instr &IY = *BY.Instrs[I];
      bool Same = IX.Op == IY.Op && IX.Dst == IY.Dst && IX.A == IY.A &&
                  IX.B == IY.B && IX.Sym == IY.Sym && IX.T1 == IY.T1 &&
                  IX.T2 == IY.T2 && IX.ProbeId == IY.ProbeId &&
                  IX.NumArgs == IY.NumArgs && IX.Line == IY.Line;
      for (unsigned A = 0; Same && A != IX.NumArgs; ++A)
        Same = IX.Args[A] == IY.Args[A];
      if (!Same)
        return fail("instr " + std::to_string(I) + " in block " +
                    std::to_string(B) + " differs");
    }
  }
  return true;
}

/// Builds a random (valid) routine body for property tests: random blocks of
/// arithmetic over a small register pool, random terminators, optional calls
/// to routine ids below \p NumRoutines, symbols below \p NumGlobals.
inline std::unique_ptr<RoutineBody> randomBody(Prng &Rng, uint32_t NumGlobals,
                                               uint32_t NumRoutines,
                                               bool WithProfile) {
  auto Body = std::make_unique<RoutineBody>();
  Body->NumParams = static_cast<uint32_t>(Rng.nextBelow(4));
  uint32_t NumBlocks = 1 + static_cast<uint32_t>(Rng.nextBelow(6));
  uint32_t Regs = Body->NumParams + 4 + static_cast<uint32_t>(Rng.nextBelow(12));
  Body->NextReg = Regs;
  Body->SourceLines = static_cast<uint32_t>(Rng.nextBelow(100));
  Body->HasProfile = WithProfile;
  for (uint32_t B = 0; B != NumBlocks; ++B)
    Body->newBlock();
  for (uint32_t B = 0; B != NumBlocks; ++B) {
    BasicBlock &BB = Body->Blocks[B];
    if (WithProfile) {
      BB.Freq = Rng.nextBelow(100000);
      BB.TakenFreq = BB.Freq ? Rng.nextBelow(BB.Freq + 1) : 0;
    }
    uint32_t NumInstrs = static_cast<uint32_t>(Rng.nextBelow(8));
    auto randomOperand = [&]() {
      return Rng.nextBool(0.5)
                 ? Operand::reg(static_cast<RegId>(Rng.nextBelow(Regs)))
                 : Operand::imm(Rng.nextRange(-1000, 1000));
    };
    for (uint32_t I = 0; I != NumInstrs; ++I) {
      double Roll = Rng.nextDouble();
      Instr *NI = nullptr;
      if (Roll < 0.5) {
        static const Opcode Arith[] = {Opcode::Add, Opcode::Sub, Opcode::Mul,
                                       Opcode::Div, Opcode::Rem,
                                       Opcode::CmpLt, Opcode::CmpEq};
        NI = Body->newInstr(Arith[Rng.nextBelow(7)]);
        NI->Dst = static_cast<RegId>(Rng.nextBelow(Regs));
        NI->A = randomOperand();
        NI->B = randomOperand();
      } else if (Roll < 0.65) {
        NI = Body->newInstr(Opcode::Mov);
        NI->Dst = static_cast<RegId>(Rng.nextBelow(Regs));
        NI->A = randomOperand();
      } else if (Roll < 0.8 && NumGlobals) {
        bool IsStore = Rng.nextBool(0.5);
        NI = Body->newInstr(IsStore ? Opcode::StoreG : Opcode::LoadG);
        NI->Sym = static_cast<uint32_t>(Rng.nextBelow(NumGlobals));
        if (IsStore)
          NI->A = randomOperand();
        else
          NI->Dst = static_cast<RegId>(Rng.nextBelow(Regs));
      } else if (Roll < 0.9 && NumRoutines) {
        NI = Body->newInstr(Opcode::Call);
        NI->Sym = static_cast<uint32_t>(Rng.nextBelow(NumRoutines));
        NI->Dst = Rng.nextBool(0.8)
                      ? static_cast<RegId>(Rng.nextBelow(Regs))
                      : NoReg;
        NI->NumArgs = static_cast<uint16_t>(Rng.nextBelow(4));
        NI->Args = Body->newArgArray(NI->NumArgs);
        for (unsigned A = 0; A != NI->NumArgs; ++A)
          NI->Args[A] = randomOperand();
      } else {
        NI = Body->newInstr(Opcode::Print);
        NI->A = randomOperand();
      }
      NI->Line = static_cast<uint32_t>(Rng.nextBelow(500));
      BB.Instrs.push_back(NI);
    }
    // Terminator.
    Instr *Term = nullptr;
    double TRoll = Rng.nextDouble();
    if (TRoll < 0.4 || NumBlocks == 1) {
      Term = Body->newInstr(Opcode::Ret);
      Term->A = randomOperand();
    } else if (TRoll < 0.7) {
      Term = Body->newInstr(Opcode::Jmp);
      Term->T1 = static_cast<BlockId>(Rng.nextBelow(NumBlocks));
    } else {
      Term = Body->newInstr(Opcode::Br);
      Term->A = Operand::reg(static_cast<RegId>(Rng.nextBelow(Regs)));
      Term->T1 = static_cast<BlockId>(Rng.nextBelow(NumBlocks));
      Term->T2 = static_cast<BlockId>(Rng.nextBelow(NumBlocks));
    }
    Term->Line = static_cast<uint32_t>(Rng.nextBelow(500));
    BB.Instrs.push_back(Term);
  }
  return Body;
}

/// Compiles a list of (module, source) pairs at the given level and runs the
/// result, asserting success along the way.
inline RunResult buildAndRun(
    const std::vector<std::pair<std::string, std::string>> &Sources,
    CompileOptions Opts = {}, const ProfileDb *Db = nullptr) {
  CompilerSession Session(Opts);
  for (const auto &[Name, Src] : Sources)
    EXPECT_TRUE(Session.addSource(Name, Src)) << Session.firstError();
  if (Db)
    Session.attachProfile(*Db);
  BuildResult Build = Session.build();
  EXPECT_TRUE(Build.Ok) << Build.Error;
  RunResult Run;
  if (Build.Ok) {
    Run = runExecutable(Build.Exe);
    EXPECT_TRUE(Run.Ok) << Run.Error;
  }
  return Run;
}

} // namespace test
} // namespace scmo

#endif // SCMO_TESTS_TESTUTIL_H
