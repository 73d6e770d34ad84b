//===- tests/IrTests.cpp --------------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "ir/CallGraph.h"
#include "ir/Checksum.h"
#include "ir/Liveness.h"
#include "ir/Printer.h"
#include "ir/Program.h"
#include "ir/Verifier.h"
#include "support/Prng.h"
#include "support/RegBitSet.h"

#include <algorithm>
#include <gtest/gtest.h>

using namespace scmo;

namespace {

/// Builds "ret <imm>" as a minimal valid body.
std::unique_ptr<RoutineBody> trivialBody(int64_t RetVal = 0,
                                         uint32_t NumParams = 0) {
  auto Body = std::make_unique<RoutineBody>();
  Body->NumParams = NumParams;
  Body->NextReg = NumParams;
  Body->newBlock();
  Instr *Ret = Body->newInstr(Opcode::Ret);
  Ret->A = Operand::imm(RetVal);
  Body->Blocks[0].Instrs.push_back(Ret);
  return Body;
}

/// Appends a call instruction to the entry block, before the terminator.
void insertCall(RoutineBody &Body, RoutineId Callee, uint16_t NumArgs) {
  Instr *Call = Body.newInstr(Opcode::Call);
  Call->Sym = Callee;
  Call->NumArgs = NumArgs;
  Call->Args = Body.newArgArray(NumArgs);
  for (unsigned A = 0; A != NumArgs; ++A)
    Call->Args[A] = Operand::imm(A);
  Call->Dst = NoReg;
  auto &Instrs = Body.Blocks[0].Instrs;
  Instrs.insert(Instrs.end() - 1, Call);
}

} // namespace

//===----------------------------------------------------------------------===//
// Program symbol management
//===----------------------------------------------------------------------===//

TEST(Program, ExternGlobalsMergeByName) {
  Program P;
  ModuleId M1 = P.addModule("a");
  ModuleId M2 = P.addModule("b");
  GlobalId G1 = P.addGlobal(M1, "shared", 1, 5, false);
  GlobalId G2 = P.addGlobal(M2, "shared", 1, 0, false);
  EXPECT_EQ(G1, G2);
  EXPECT_EQ(P.global(G1).Init, 5); // Nonzero initializer wins the merge.
}

TEST(Program, StaticGlobalsArePerModule) {
  Program P;
  ModuleId M1 = P.addModule("a");
  ModuleId M2 = P.addModule("b");
  GlobalId G1 = P.addGlobal(M1, "counter", 1, 0, true);
  GlobalId G2 = P.addGlobal(M2, "counter", 1, 0, true);
  EXPECT_NE(G1, G2);
  EXPECT_EQ(P.addGlobal(M1, "counter", 1, 0, true), G1);
}

TEST(Program, ArraySizeMergesUpward) {
  Program P;
  ModuleId M1 = P.addModule("a");
  ModuleId M2 = P.addModule("b");
  GlobalId G = P.addGlobal(M1, "arr", 1, 0, false); // Declared scalar first.
  P.addGlobal(M2, "arr", 64, 0, false);             // Defined as array later.
  EXPECT_EQ(P.global(G).Size, 64u);
}

TEST(Program, ExternRoutineDeclarationMergesWithDefinition) {
  Program P;
  ModuleId M1 = P.addModule("caller");
  ModuleId M2 = P.addModule("callee");
  RoutineId Declared = P.declareRoutine(M1, "f", 2, false);
  EXPECT_FALSE(P.routine(Declared).IsDefined);
  RoutineId Defined = P.declareRoutine(M2, "f", 2, false);
  EXPECT_EQ(Declared, Defined);
  P.defineRoutine(Defined, M2, trivialBody(0, 2));
  EXPECT_TRUE(P.routine(Declared).IsDefined);
  // Definition re-homes ownership to the defining module.
  EXPECT_EQ(P.routine(Declared).Owner, M2);
}

TEST(Program, StaticRoutinesDoNotCollideAcrossModules) {
  Program P;
  ModuleId M1 = P.addModule("a");
  ModuleId M2 = P.addModule("b");
  RoutineId R1 = P.declareRoutine(M1, "helper", 1, true);
  RoutineId R2 = P.declareRoutine(M2, "helper", 1, true);
  EXPECT_NE(R1, R2);
  EXPECT_EQ(P.displayName(R1), "a:helper");
  EXPECT_EQ(P.displayName(R2), "b:helper");
}

TEST(Program, FindRoutineIgnoresStatics) {
  Program P;
  ModuleId M = P.addModule("m");
  P.declareRoutine(M, "hidden", 0, true);
  RoutineId Pub = P.declareRoutine(M, "visible", 0, false);
  EXPECT_EQ(P.findRoutine("hidden"), InvalidId);
  EXPECT_EQ(P.findRoutine("visible"), Pub);
  EXPECT_NE(P.findRoutineInModule(M, "hidden"), InvalidId);
}

TEST(ModuleSymtab, CompactAndExpandRoundTrip) {
  MemoryTracker T;
  ModuleSymtab St(&T);
  St.addRecord("func foo lines 1-10");
  St.addRecord("linemap foo 0:1 1:2");
  uint64_t Expanded = T.liveBytes(MemCategory::HloSymtab);
  EXPECT_GT(Expanded, 0u);
  St.compact(&T);
  EXPECT_EQ(St.state(), PoolState::Compact);
  EXPECT_EQ(T.liveBytes(MemCategory::HloSymtab), 0u);
  EXPECT_GT(St.compactSize(), 0u);
  EXPECT_LT(St.compactSize(), Expanded); // Compact form is smaller.
  St.expand();
  ASSERT_EQ(St.records().size(), 2u);
  EXPECT_EQ(St.records()[0], "func foo lines 1-10");
  EXPECT_EQ(T.liveBytes(MemCategory::HloSymtab), Expanded);
}

//===----------------------------------------------------------------------===//
// Checksums
//===----------------------------------------------------------------------===//

TEST(Checksum, SensitiveToStructuralEdits) {
  auto Body = trivialBody(1);
  uint64_t Base = computeChecksum(*Body);
  Instr *MovI = Body->newInstr(Opcode::Mov);
  MovI->Dst = 0;
  Body->NextReg = 1;
  MovI->A = Operand::imm(3);
  Body->Blocks[0].Instrs.insert(Body->Blocks[0].Instrs.begin(), MovI);
  EXPECT_NE(computeChecksum(*Body), Base);
}

TEST(Checksum, InsensitiveToSymbolIds) {
  Program P;
  ModuleId M = P.addModule("m");
  GlobalId G1 = P.addGlobal(M, "g1", 1, 0, false);
  GlobalId G2 = P.addGlobal(M, "g2", 1, 0, false);
  auto mkBody = [&](GlobalId G) {
    auto Body = trivialBody(0);
    Instr *Load = Body->newInstr(Opcode::LoadG);
    Load->Dst = 0;
    Body->NextReg = 1;
    Load->Sym = G;
    auto &Ins = Body->Blocks[0].Instrs;
    Ins.insert(Ins.begin(), Load);
    return Body;
  };
  // Same structure, different global ids: equal checksums (separate
  // compilation sessions must agree for profile correlation).
  EXPECT_EQ(computeChecksum(*mkBody(G1)), computeChecksum(*mkBody(G2)));
}

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

TEST(Verifier, AcceptsMinimalValidRoutine) {
  Program P;
  ModuleId M = P.addModule("m");
  RoutineId R = P.declareRoutine(M, "f", 0, false);
  P.defineRoutine(R, M, trivialBody());
  EXPECT_EQ(verifyRoutine(P, R, P.body(R)), "");
}

TEST(Verifier, RejectsMissingTerminator) {
  Program P;
  ModuleId M = P.addModule("m");
  RoutineId R = P.declareRoutine(M, "f", 0, false);
  auto Body = trivialBody();
  Body->Blocks[0].Instrs.pop_back();
  Instr *MovI = Body->newInstr(Opcode::Mov);
  MovI->Dst = 0;
  Body->NextReg = 1;
  MovI->A = Operand::imm(1);
  Body->Blocks[0].Instrs.push_back(MovI);
  P.defineRoutine(R, M, std::move(Body));
  EXPECT_NE(verifyRoutine(P, R, P.body(R)).find("terminator"),
            std::string::npos);
}

TEST(Verifier, RejectsRegisterOutOfRange) {
  Program P;
  ModuleId M = P.addModule("m");
  RoutineId R = P.declareRoutine(M, "f", 0, false);
  auto Body = trivialBody();
  Body->Blocks[0].Instrs.back()->A = Operand::reg(99);
  P.defineRoutine(R, M, std::move(Body));
  EXPECT_NE(verifyRoutine(P, R, P.body(R)).find("register"),
            std::string::npos);
}

TEST(Verifier, RejectsBranchTargetOutOfRange) {
  Program P;
  ModuleId M = P.addModule("m");
  RoutineId R = P.declareRoutine(M, "f", 0, false);
  auto Body = trivialBody();
  Instr *Term = Body->Blocks[0].Instrs.back();
  Term->Op = Opcode::Jmp;
  Term->A = Operand::none();
  Term->T1 = 7;
  P.defineRoutine(R, M, std::move(Body));
  EXPECT_NE(verifyRoutine(P, R, P.body(R)).find("target"), std::string::npos);
}

TEST(Verifier, RejectsCallArityMismatch) {
  Program P;
  ModuleId M = P.addModule("m");
  RoutineId Callee = P.declareRoutine(M, "callee", 3, false);
  P.defineRoutine(Callee, M, trivialBody(0, 3));
  RoutineId Caller = P.declareRoutine(M, "caller", 0, false);
  auto Body = trivialBody();
  insertCall(*Body, Callee, 2); // Wrong arity.
  P.defineRoutine(Caller, M, std::move(Body));
  EXPECT_NE(verifyRoutine(P, Caller, P.body(Caller)).find("argument count"),
            std::string::npos);
}

TEST(Verifier, RejectsEmptyBlock) {
  Program P;
  ModuleId M = P.addModule("m");
  RoutineId R = P.declareRoutine(M, "f", 0, false);
  auto Body = trivialBody();
  Body->newBlock(); // Left empty.
  P.defineRoutine(R, M, std::move(Body));
  EXPECT_NE(verifyRoutine(P, R, P.body(R)).find("empty"), std::string::npos);
}

TEST(Verifier, RejectsMissingBranchCondition) {
  Program P;
  ModuleId M = P.addModule("m");
  RoutineId R = P.declareRoutine(M, "f", 0, false);
  auto Body = trivialBody();
  Body->newBlock();
  Instr *Ret = Body->newInstr(Opcode::Ret);
  Ret->A = Operand::imm(0);
  Body->Blocks[1].Instrs.push_back(Ret);
  Instr *Term = Body->Blocks[0].Instrs.back();
  Term->Op = Opcode::Br;
  Term->A = Operand::none();
  Term->T1 = 1;
  Term->T2 = 1;
  P.defineRoutine(R, M, std::move(Body));
  EXPECT_NE(verifyRoutine(P, R, P.body(R)).find("condition"),
            std::string::npos);
}

TEST(Verifier, RejectsProbeIdOutOfRange) {
  Program P;
  ModuleId M = P.addModule("m");
  RoutineId R = P.declareRoutine(M, "f", 0, false);
  auto Body = trivialBody();
  Instr *Probe = Body->newInstr(Opcode::Probe);
  Probe->ProbeId = 5;
  auto &Ins = Body->Blocks[0].Instrs;
  Ins.insert(Ins.begin(), Probe);
  P.defineRoutine(R, M, std::move(Body));
  // Without a probe-table size the id is unchecked (pre-instrumentation IL).
  EXPECT_EQ(verifyRoutine(P, R, P.body(R)), "");
  // With a 3-entry table, probe id 5 is a corrupt reference.
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyRoutine(P, R, P.body(R), Diags, /*NumProbes=*/3));
  ASSERT_EQ(Diags.diagnostics().size(), 1u);
  EXPECT_NE(Diags.diagnostics()[0].Message.find("probe id out of range"),
            std::string::npos);
  // An in-range id passes.
  DiagnosticEngine Ok;
  EXPECT_TRUE(verifyRoutine(P, R, P.body(R), Ok, /*NumProbes=*/6));
}

TEST(Verifier, RejectsNopWithOperands) {
  Program P;
  ModuleId M = P.addModule("m");
  RoutineId R = P.declareRoutine(M, "f", 0, false);
  auto Body = trivialBody();
  Instr *Nop = Body->newInstr(Opcode::Nop);
  Nop->A = Operand::imm(1); // A nop must carry nothing.
  auto &Ins = Body->Blocks[0].Instrs;
  Ins.insert(Ins.begin(), Nop);
  P.defineRoutine(R, M, std::move(Body));
  EXPECT_NE(verifyRoutine(P, R, P.body(R)).find("nop carries operands"),
            std::string::npos);
}

TEST(Verifier, AcceptsRetiredProbeNop) {
  // The inliner retires Probe -> Nop but keeps ProbeId for debugging; the
  // verifier must not treat the stale id as an operand.
  Program P;
  ModuleId M = P.addModule("m");
  RoutineId R = P.declareRoutine(M, "f", 0, false);
  auto Body = trivialBody();
  Instr *Nop = Body->newInstr(Opcode::Nop);
  Nop->ProbeId = 42;
  auto &Ins = Body->Blocks[0].Instrs;
  Ins.insert(Ins.begin(), Nop);
  P.defineRoutine(R, M, std::move(Body));
  EXPECT_EQ(verifyRoutine(P, R, P.body(R)), "");
}

//===----------------------------------------------------------------------===//
// Printer
//===----------------------------------------------------------------------===//

TEST(Printer, RendersInstructionsReadably) {
  Program P;
  ModuleId M = P.addModule("m");
  GlobalId G = P.addGlobal(M, "counter", 1, 0, false);
  RoutineId R = P.declareRoutine(M, "f", 1, false);
  auto Body = trivialBody(0, 1);
  Instr *Store = Body->newInstr(Opcode::StoreG);
  Store->Sym = G;
  Store->A = Operand::reg(0);
  auto &Ins = Body->Blocks[0].Instrs;
  Ins.insert(Ins.begin(), Store);
  P.defineRoutine(R, M, std::move(Body));
  std::string Text = printRoutine(P, R, P.body(R));
  EXPECT_NE(Text.find("routine f"), std::string::npos);
  EXPECT_NE(Text.find("storeg @counter %0"), std::string::npos);
  EXPECT_NE(Text.find("ret #0"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// RoutineBody::repack
//===----------------------------------------------------------------------===//

TEST(RoutineBody, RepackKeepsLiveIlInOneExactSlab) {
  MemoryTracker T;
  Program P;
  ModuleId M = P.addModule("m");
  RoutineId G = P.declareRoutine(M, "g", 3, false);
  RoutineId R = P.declareRoutine(M, "f", 1, false);
  RoutineBody Body(&T);
  Body.NumParams = 1;
  Body.NextReg = 2;
  Body.newBlock();
  Body.newBlock();
  auto call = [&](RegId Dst, int64_t Salt) {
    Instr *C = Body.newInstr(Opcode::Call);
    C->Sym = G;
    C->Dst = Dst;
    C->NumArgs = 3;
    C->Args = Body.newArgArray(3);
    C->Args[0] = Operand::reg(0);
    C->Args[1] = Operand::imm(-7 - Salt);
    C->Args[2] = Operand::imm(int64_t(1) << 40);
    return C;
  };
  // Garbage a rewrite leaves behind: instructions and argument arrays that
  // were allocated, then spliced out of (or never linked into) a block.
  for (int I = 0; I != 200; ++I) {
    Instr *Dead = call(1, I);
    auto &Ins = Body.Blocks[0].Instrs;
    Ins.push_back(Dead);
    Ins.pop_back();
  }
  Body.Blocks[0].Instrs.push_back(call(1, 0));
  Body.Blocks[0].Instrs.push_back(call(NoReg, 1));
  Instr *Jmp = Body.newInstr(Opcode::Jmp);
  Jmp->T1 = 1;
  Body.Blocks[0].Instrs.push_back(Jmp);
  Instr *Ret = Body.newInstr(Opcode::Ret);
  Ret->A = Operand::reg(1);
  Body.Blocks[1].Instrs.push_back(Ret);
  Body.Blocks[1].Freq = 9;

  const std::string Before = printRoutine(P, R, Body);
  const uint64_t OldBytes = Body.irBytes();
  ASSERT_EQ(T.liveBytes(MemCategory::HloIr), OldBytes);
  const Instr *OldCall = Body.Blocks[0].Instrs[0];

  const uint64_t Live = 4 * sizeof(Instr) + 6 * sizeof(Operand);
  Body.repack();
  EXPECT_LT(Live, OldBytes);
  EXPECT_EQ(Body.irBytes(), Live);
  EXPECT_EQ(T.liveBytes(MemCategory::HloIr), Live);
  EXPECT_EQ(printRoutine(P, R, Body), Before);
  EXPECT_EQ(verifyRoutine(P, R, Body), "");

  const Instr *NewCall = Body.Blocks[0].Instrs[0];
  EXPECT_NE(NewCall, OldCall);
  ASSERT_EQ(NewCall->NumArgs, 3u);
  EXPECT_EQ(NewCall->Args[0], Operand::reg(0));
  EXPECT_EQ(NewCall->Args[1], Operand::imm(-7));
  EXPECT_EQ(NewCall->Args[2], Operand::imm(int64_t(1) << 40));
  EXPECT_EQ(Body.Blocks[0].Instrs[1]->Args[1], Operand::imm(-8));
  EXPECT_EQ(Body.Blocks[1].Freq, 9u);

  // Repacking a packed body reclaims nothing, and the body can grow again.
  Body.repack();
  EXPECT_EQ(Body.irBytes(), Live);
  Body.newInstr(Opcode::Nop);
  EXPECT_GT(Body.irBytes(), Live);
  EXPECT_EQ(T.liveBytes(MemCategory::HloIr), Body.irBytes());
}

TEST(RoutineBody, RepackDeepCopiesAnotherBodysInstructions) {
  MemoryTracker T;
  Program P;
  ModuleId M = P.addModule("m");
  RoutineId G = P.declareRoutine(M, "g", 2, false);
  RoutineId R = P.declareRoutine(M, "f", 0, false);
  auto Src = trivialBody(7);
  insertCall(*Src, G, 2);
  const std::string Want = printRoutine(P, R, *Src);
  RoutineBody Copy(&T);
  Copy.Blocks = Src->Blocks; // Still names Src's instructions.
  Copy.repack();
  Src.reset();
  EXPECT_EQ(printRoutine(P, R, Copy), Want);
  EXPECT_EQ(Copy.irBytes(), 2 * sizeof(Instr) + 2 * sizeof(Operand));
  EXPECT_EQ(T.liveBytes(MemCategory::HloIr), Copy.irBytes());
}

TEST(RoutineBody, RepackOfAnEmptyBodyStaysValid) {
  MemoryTracker T;
  RoutineBody Empty(&T);
  Empty.repack();
  EXPECT_EQ(Empty.irBytes(), 0u);

  // Every instruction spliced out: the whole arena is garbage.
  RoutineBody Body(&T);
  Body.newBlock();
  Body.Blocks[0].Instrs.push_back(Body.newInstr(Opcode::Ret));
  Body.Blocks[0].Instrs.clear();
  ASSERT_GT(Body.irBytes(), 0u);
  Body.repack();
  EXPECT_EQ(Body.irBytes(), 0u);
  EXPECT_EQ(T.liveBytes(MemCategory::HloIr), 0u);
  ASSERT_EQ(Body.Blocks.size(), 1u);
  Body.Blocks[0].Instrs.push_back(Body.newInstr(Opcode::Ret));
  EXPECT_EQ(Body.Blocks[0].Instrs[0]->Op, Opcode::Ret);
  EXPECT_EQ(T.liveBytes(MemCategory::HloIr), Body.irBytes());
}

//===----------------------------------------------------------------------===//
// Call graph
//===----------------------------------------------------------------------===//

namespace {

/// Builds a program with the call edges given as (caller, callee) pairs over
/// N routines; returns the ids.
std::vector<RoutineId>
graphProgram(Program &P, unsigned N,
             const std::vector<std::pair<unsigned, unsigned>> &Edges) {
  ModuleId M = P.addModule("m");
  std::vector<RoutineId> Ids;
  for (unsigned I = 0; I != N; ++I)
    Ids.push_back(P.declareRoutine(M, "r" + std::to_string(I), 0, false));
  std::vector<std::unique_ptr<RoutineBody>> Bodies;
  for (unsigned I = 0; I != N; ++I)
    Bodies.push_back(trivialBody());
  for (const auto &[From, To] : Edges)
    insertCall(*Bodies[From], Ids[To], 0);
  for (unsigned I = 0; I != N; ++I)
    P.defineRoutine(Ids[I], M, std::move(Bodies[I]));
  return Ids;
}

} // namespace

TEST(CallGraph, FindsSitesInDeterministicOrder) {
  Program P;
  auto Ids = graphProgram(P, 3, {{0, 1}, {0, 2}, {1, 2}});
  CallGraph G = CallGraph::buildResident(P);
  ASSERT_EQ(G.sites().size(), 3u);
  EXPECT_EQ(G.sitesOf(Ids[0]).size(), 2u);
  EXPECT_EQ(G.sitesTo(Ids[2]).size(), 2u);
  EXPECT_TRUE(G.sitesOf(Ids[2]).empty());
}

TEST(CallGraph, SiteCountsComeFromBlockFreq) {
  Program P;
  auto Ids = graphProgram(P, 2, {{0, 1}});
  RoutineBody &Body = P.body(Ids[0]);
  Body.HasProfile = true;
  Body.Blocks[0].Freq = 77;
  CallGraph G = CallGraph::buildResident(P);
  EXPECT_EQ(G.totalCallsTo(Ids[1]), 77u);
}

TEST(CallGraph, DetectsSelfRecursion) {
  Program P;
  auto Ids = graphProgram(P, 2, {{0, 0}, {0, 1}});
  CallGraph G = CallGraph::buildResident(P);
  EXPECT_EQ(G.recursiveRoutines(), std::vector<RoutineId>({Ids[0]}));
}

TEST(CallGraph, DetectsMutualRecursion) {
  Program P;
  auto Ids = graphProgram(P, 4, {{0, 1}, {1, 2}, {2, 0}, {0, 3}});
  CallGraph G = CallGraph::buildResident(P);
  // Every member of the cycle, sorted ascending; the callee off it is not.
  EXPECT_EQ(G.recursiveRoutines(),
            std::vector<RoutineId>({Ids[0], Ids[1], Ids[2]}));
}

TEST(CallGraph, AcyclicChainIsNotRecursive) {
  Program P;
  graphProgram(P, 5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}});
  CallGraph G = CallGraph::buildResident(P);
  EXPECT_TRUE(G.recursiveRoutines().empty());
}

//===----------------------------------------------------------------------===//
// Liveness
//===----------------------------------------------------------------------===//

namespace {

/// The reference: round-robin sweeps in descending block order over
/// per-block RegBitSets until nothing changes.
struct RefLiveness {
  std::vector<RegBitSet> In, Out;

  explicit RefLiveness(const RoutineBody &Body) {
    size_t N = Body.Blocks.size();
    uint32_t U = Body.NextReg;
    std::vector<RegBitSet> Use(N, RegBitSet(U)), Def(N, RegBitSet(U));
    In.assign(N, RegBitSet(U));
    Out.assign(N, RegBitSet(U));
    for (size_t B = 0; B != N; ++B)
      for (const Instr *I : Body.Blocks[B].Instrs) {
        forEachUseReg(*I, [&](RegId V) {
          if (!Def[B].test(V))
            Use[B].set(V);
        });
        if (I->Dst != NoReg && definesValue(I->Op))
          Def[B].set(I->Dst);
      }
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (size_t B = N; B-- > 0;) {
        if (const Instr *Term = Body.Blocks[B].terminator()) {
          if (Term->Op == Opcode::Jmp || Term->Op == Opcode::Br)
            Changed |= Out[B].merge(In[Term->T1]);
          if (Term->Op == Opcode::Br)
            Changed |= Out[B].merge(In[Term->T2]);
        }
        RegBitSet NewIn = Use[B];
        NewIn.mergeMinus(Out[B], Def[B]);
        Changed |= In[B].merge(NewIn);
      }
    }
  }
};

std::vector<RegId> members(const RegBitSet &S) {
  std::vector<RegId> Out;
  S.forEach([&](RegId V) { Out.push_back(V); });
  return Out;
}

/// A random routine: straight-line code over \p NumVregs registers, random
/// Jmp/Br/Ret terminators (self-loops included), a planted irreducible
/// two-entry loop, one block without a terminator and one block nothing
/// branches to.
std::unique_ptr<RoutineBody> randomCfg(Prng &Rng, uint32_t NumVregs) {
  auto Body = std::make_unique<RoutineBody>();
  Body->NextReg = NumVregs;
  uint32_t NumBlocks = static_cast<uint32_t>(Rng.nextRange(4, 24));
  for (uint32_t B = 0; B != NumBlocks; ++B)
    Body->newBlock();
  auto operand = [&]() {
    if (NumVregs == 0 || Rng.nextBelow(4) == 0)
      return Operand::imm(static_cast<int64_t>(Rng.nextBelow(100)));
    return Operand::reg(static_cast<RegId>(Rng.nextBelow(NumVregs)));
  };
  auto dst = [&]() {
    return NumVregs ? static_cast<RegId>(Rng.nextBelow(NumVregs)) : NoReg;
  };
  auto append = [&](BlockId B, Instr *I) {
    Body->Blocks[B].Instrs.push_back(I);
  };
  // Targets never include the last block, which stays unreachable.
  auto target = [&]() {
    return static_cast<BlockId>(Rng.nextBelow(NumBlocks - 1));
  };
  for (BlockId B = 0; B != NumBlocks; ++B) {
    unsigned Len = static_cast<unsigned>(Rng.nextBelow(7));
    for (unsigned K = 0; K != Len; ++K) {
      Instr *I = nullptr;
      switch (Rng.nextBelow(5)) {
      case 0:
        I = Body->newInstr(Opcode::Mov);
        I->A = operand();
        I->Dst = dst();
        break;
      case 1:
        I = Body->newInstr(Opcode::Add);
        I->A = operand();
        I->B = operand();
        I->Dst = dst();
        break;
      case 2: {
        I = Body->newInstr(Opcode::Call);
        I->Sym = 0;
        I->NumArgs = static_cast<uint16_t>(Rng.nextBelow(4));
        I->Args = Body->newArgArray(I->NumArgs);
        for (unsigned A = 0; A != I->NumArgs; ++A)
          I->Args[A] = operand();
        I->Dst = Rng.nextBelow(2) ? dst() : NoReg;
        break;
      }
      case 3:
        I = Body->newInstr(Opcode::Print);
        I->A = operand();
        break;
      default:
        I = Body->newInstr(Opcode::StoreIdx);
        I->Sym = 0;
        I->A = operand();
        I->B = operand();
        break;
      }
      append(B, I);
    }
  }
  // Terminators. Block 1 is the planted no-terminator block; blocks 2..4
  // form the irreducible loop entered from block 0 at either 3 or 4.
  for (BlockId B = 0; B != NumBlocks; ++B) {
    if (B == 1)
      continue;
    Instr *T = nullptr;
    if (B == 0 && NumBlocks > 5) {
      T = Body->newInstr(Opcode::Br);
      T->A = operand();
      T->T1 = 3;
      T->T2 = 4;
    } else if (B == 3 && NumBlocks > 5) {
      T = Body->newInstr(Opcode::Jmp);
      T->T1 = 4;
    } else if (B == 4 && NumBlocks > 5) {
      T = Body->newInstr(Opcode::Br);
      T->A = operand();
      T->T1 = 3;
      T->T2 = target();
    } else {
      switch (Rng.nextBelow(4)) {
      case 0:
        T = Body->newInstr(Opcode::Jmp);
        T->T1 = Rng.nextBelow(3) == 0 ? B : target();
        break;
      case 1:
      case 2:
        T = Body->newInstr(Opcode::Br);
        T->A = operand();
        T->T1 = Rng.nextBelow(3) == 0 ? B : target();
        T->T2 = target();
        break;
      default:
        T = Body->newInstr(Opcode::Ret);
        T->A = operand();
        break;
      }
    }
    append(B, T);
  }
  return Body;
}

} // namespace

TEST(Liveness, MatchesRoundRobinReferenceOnRandomCfgs) {
  const uint32_t Universes[] = {0, 1, 63, 64, 65, 1000};
  // One solver across every CFG: buffers left over from a larger routine
  // must not leak into a smaller one.
  Liveness LV;
  unsigned Checked = 0;
  for (uint64_t Seed = 1; Seed <= 600; ++Seed) {
    Prng Rng(Seed);
    uint32_t NumVregs = Universes[Seed % 6];
    auto Body = randomCfg(Rng, NumVregs);
    LV.solve(*Body);
    RefLiveness Ref(*Body);
    ASSERT_EQ(LV.words(), (NumVregs + 63) / 64);
    for (BlockId B = 0; B != Body->Blocks.size(); ++B) {
      std::vector<RegId> In, Out;
      LV.forEachLiveIn(B, [&](RegId V) { In.push_back(V); });
      LV.forEachLiveOut(B, [&](RegId V) { Out.push_back(V); });
      ASSERT_EQ(In, members(Ref.In[B])) << "seed " << Seed << " block " << B;
      ASSERT_EQ(Out, members(Ref.Out[B]))
          << "seed " << Seed << " block " << B;
    }
    ++Checked;
  }
  EXPECT_EQ(Checked, 600u);
}

TEST(Liveness, LoopCarriedValueIsLiveAroundTheBackEdge) {
  // b0: v0 = 0; jmp b1
  // b1: br v0, b1, b2     (self-loop keeps v0 live around it)
  // b2: v1 = v0 + 1; ret v1
  RoutineBody Body;
  Body.NextReg = 2;
  for (int B = 0; B != 3; ++B)
    Body.newBlock();
  Instr *Init = Body.newInstr(Opcode::Mov);
  Init->Dst = 0;
  Init->A = Operand::imm(0);
  Instr *J = Body.newInstr(Opcode::Jmp);
  J->T1 = 1;
  Body.Blocks[0].Instrs = {Init, J};
  Instr *Br = Body.newInstr(Opcode::Br);
  Br->A = Operand::reg(0);
  Br->T1 = 1;
  Br->T2 = 2;
  Body.Blocks[1].Instrs = {Br};
  Instr *Add = Body.newInstr(Opcode::Add);
  Add->Dst = 1;
  Add->A = Operand::reg(0);
  Add->B = Operand::imm(1);
  Instr *Ret = Body.newInstr(Opcode::Ret);
  Ret->A = Operand::reg(1);
  Body.Blocks[2].Instrs = {Add, Ret};

  Liveness LV;
  LV.solve(Body);
  auto in = [&](BlockId B) {
    std::vector<RegId> Out;
    LV.forEachLiveIn(B, [&](RegId V) { Out.push_back(V); });
    return Out;
  };
  auto out = [&](BlockId B) {
    std::vector<RegId> Out;
    LV.forEachLiveOut(B, [&](RegId V) { Out.push_back(V); });
    return Out;
  };
  EXPECT_EQ(in(0), std::vector<RegId>{});
  EXPECT_EQ(out(0), std::vector<RegId>{0});
  EXPECT_EQ(in(1), std::vector<RegId>{0});
  EXPECT_EQ(out(1), std::vector<RegId>{0});
  EXPECT_EQ(in(2), std::vector<RegId>{0});
  EXPECT_EQ(out(2), std::vector<RegId>{});
}
