//===- tests/AnalysisTests.cpp --------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static-analysis engine: dataflow solver fixpoints, each lint check's
/// positive and negative cases, the interprocedural checks' scope rules, and
/// the `--analyze` engine's determinism and memory contracts.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/Analysis.h"
#include "analysis/Dataflow.h"
#include "analysis/Passes.h"
#include "driver/CompilerSession.h"
#include "ir/CallGraph.h"
#include "ir/Verifier.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <dirent.h>
#include <fstream>

using namespace scmo;
using namespace scmo::test;

namespace {

/// Appends a fresh instruction to block \p Blk of \p Body.
Instr *push(RoutineBody &Body, BlockId Blk, Opcode Op) {
  Instr *I = Body.newInstr(Op);
  Body.Blocks[Blk].Instrs.push_back(I);
  return I;
}

Instr *ret(RoutineBody &Body, BlockId Blk, Operand Val) {
  Instr *I = push(Body, Blk, Opcode::Ret);
  I->A = Val;
  return I;
}

/// A body skeleton with \p NumBlocks empty blocks and \p NumRegs registers,
/// the first \p NumParams of which are parameters.
std::unique_ptr<RoutineBody> skeleton(uint32_t NumBlocks, uint32_t NumRegs,
                                      uint32_t NumParams = 0) {
  auto Body = std::make_unique<RoutineBody>();
  Body->NumParams = NumParams;
  Body->NextReg = NumRegs;
  for (uint32_t B = 0; B != NumBlocks; ++B)
    Body->newBlock();
  return Body;
}

size_t countCode(const std::vector<Diagnostic> &Ds, CheckCode C) {
  size_t N = 0;
  for (const Diagnostic &D : Ds)
    if (D.Code == C)
      ++N;
  return N;
}

/// Runs the local checks on a body installed into a one-routine program.
RoutineFacts localFacts(std::unique_ptr<RoutineBody> Body,
                        uint32_t NumGlobals = 0) {
  Program P;
  ModuleId M = P.addModule("m");
  for (uint32_t G = 0; G != NumGlobals; ++G)
    P.addGlobal(M, "g" + std::to_string(G), 1, 0, false);
  RoutineId R = P.declareRoutine(M, "f", Body->NumParams, false);
  P.defineRoutine(R, M, std::move(Body));
  EXPECT_EQ(verifyMessage(P, R, P.body(R)), "");
  RoutineFacts Facts;
  runLocalChecks(R, P.body(R), Facts);
  return Facts;
}

} // namespace

//===----------------------------------------------------------------------===//
// Reachability and forward dataflow solver
//===----------------------------------------------------------------------===//

namespace {

/// bb0 --br--> bb1 / bb2 --> bb3 (the classic diamond), r0 the condition.
std::unique_ptr<RoutineBody> diamondBody() {
  auto Body = skeleton(4, 3, /*NumParams=*/1);
  Instr *Br = push(*Body, 0, Opcode::Br);
  Br->A = Operand::reg(0);
  Br->T1 = 1;
  Br->T2 = 2;
  for (BlockId B : {BlockId(1), BlockId(2)}) {
    Instr *Mov = push(*Body, B, Opcode::Mov);
    Mov->Dst = B; // r1 in bb1, r2 in bb2.
    Mov->A = Operand::imm(B);
    Instr *Jmp = push(*Body, B, Opcode::Jmp);
    Jmp->T1 = 3;
  }
  ret(*Body, 3, Operand::reg(1));
  return Body;
}

} // namespace

TEST(Dataflow, ReachableFromEntryFollowsTerminators) {
  // Every arm of the diamond is reachable.
  EXPECT_EQ(reachableFromEntry(*diamondBody()),
            (std::vector<bool>{true, true, true, true}));
  // A block no terminator targets is not.
  auto Body = skeleton(2, 1);
  ret(*Body, 0, Operand::imm(0));
  ret(*Body, 1, Operand::imm(1));
  EXPECT_EQ(reachableFromEntry(*Body), (std::vector<bool>{true, false}));
}

TEST(Dataflow, ForwardUnionMergesBothDiamondArms) {
  auto Body = diamondBody();
  const uint32_t U = 3;
  std::vector<BlockTransfer> T(4, BlockTransfer(U));
  T[1].Gen.set(1);
  T[2].Gen.set(2);
  RegBitSet Boundary(U);
  DataflowResult R = solveForward(*Body, T, Boundary, MeetOp::Union, U);
  // May-analysis: the merge sees facts from either arm.
  EXPECT_TRUE(R.In[3].test(1));
  EXPECT_TRUE(R.In[3].test(2));
  EXPECT_FALSE(R.In[3].test(0));
  // Each arm sees only its own fact.
  EXPECT_TRUE(R.Out[1].test(1));
  EXPECT_FALSE(R.Out[1].test(2));
}

TEST(Dataflow, ForwardIntersectKeepsOnlyAllPathFacts) {
  auto Body = diamondBody();
  const uint32_t U = 3;
  std::vector<BlockTransfer> T(4, BlockTransfer(U));
  T[0].Gen.set(0); // Available on every path.
  T[1].Gen.set(1); // Only through bb1.
  T[2].Gen.set(2); // Only through bb2.
  RegBitSet Boundary(U);
  DataflowResult R = solveForward(*Body, T, Boundary, MeetOp::Intersect, U);
  // Must-analysis: one-arm facts die at the merge, all-path facts survive.
  EXPECT_TRUE(R.In[3].test(0));
  EXPECT_FALSE(R.In[3].test(1));
  EXPECT_FALSE(R.In[3].test(2));
}

TEST(Dataflow, KillStopsPropagation) {
  // Straight line bb0 -> bb1 -> bb2; bb1 kills bit 0.
  auto Body = skeleton(3, 1);
  push(*Body, 0, Opcode::Jmp)->T1 = 1;
  push(*Body, 1, Opcode::Jmp)->T1 = 2;
  ret(*Body, 2, Operand::imm(0));
  const uint32_t U = 1;
  std::vector<BlockTransfer> T(3, BlockTransfer(U));
  T[0].Gen.set(0);
  T[1].Kill.set(0);
  RegBitSet Boundary(U);
  DataflowResult R = solveForward(*Body, T, Boundary, MeetOp::Union, U);
  EXPECT_TRUE(R.In[1].test(0));
  EXPECT_FALSE(R.Out[1].test(0));
  EXPECT_FALSE(R.In[2].test(0));
}

//===----------------------------------------------------------------------===//
// Local checks: positive and negative per check code
//===----------------------------------------------------------------------===//

TEST(Checks, DefBeforeUseFlagsUninitializedRegister) {
  // r0 is not a parameter and never written: "add r1 = r0 + 1" reads junk.
  auto Body = skeleton(1, 2, /*NumParams=*/0);
  Instr *Add = push(*Body, 0, Opcode::Add);
  Add->Dst = 1;
  Add->A = Operand::reg(0);
  Add->B = Operand::imm(1);
  ret(*Body, 0, Operand::reg(1));
  RoutineFacts Facts = localFacts(std::move(Body));
  EXPECT_EQ(countCode(Facts.Diags, CheckCode::DefBeforeUse), 1u);
}

TEST(Checks, DefBeforeUseSpareParamsAndDominatedReads) {
  // Same shape but r0 is a parameter — defined at entry by the caller.
  auto Body = skeleton(1, 2, /*NumParams=*/1);
  Instr *Add = push(*Body, 0, Opcode::Add);
  Add->Dst = 1;
  Add->A = Operand::reg(0);
  Add->B = Operand::imm(1);
  ret(*Body, 0, Operand::reg(1));
  RoutineFacts Facts = localFacts(std::move(Body));
  EXPECT_EQ(countCode(Facts.Diags, CheckCode::DefBeforeUse), 0u);
}

TEST(Checks, DefBeforeUseSeesOneArmInitialization) {
  // r1 is initialized on only one diamond arm, then read at the merge: a
  // may-uninitialized read the union meet must catch.
  auto Body = skeleton(4, 3, /*NumParams=*/1);
  Instr *Br = push(*Body, 0, Opcode::Br);
  Br->A = Operand::reg(0);
  Br->T1 = 1;
  Br->T2 = 2;
  Instr *Mov = push(*Body, 1, Opcode::Mov);
  Mov->Dst = 1;
  Mov->A = Operand::imm(7);
  push(*Body, 1, Opcode::Jmp)->T1 = 3;
  push(*Body, 2, Opcode::Jmp)->T1 = 3;
  ret(*Body, 3, Operand::reg(1));
  RoutineFacts Facts = localFacts(std::move(Body));
  EXPECT_EQ(countCode(Facts.Diags, CheckCode::DefBeforeUse), 1u);
}

TEST(Checks, DeadStoreFlagsOverwrittenRegister) {
  auto Body = skeleton(1, 1);
  Instr *M1 = push(*Body, 0, Opcode::Mov);
  M1->Dst = 0;
  M1->A = Operand::imm(5); // Dead: overwritten before any read.
  Instr *M2 = push(*Body, 0, Opcode::Mov);
  M2->Dst = 0;
  M2->A = Operand::imm(6);
  ret(*Body, 0, Operand::reg(0));
  RoutineFacts Facts = localFacts(std::move(Body));
  ASSERT_EQ(countCode(Facts.Diags, CheckCode::DeadStore), 1u);
  // It names the first mov, not the second.
  for (const Diagnostic &D : Facts.Diags)
    if (D.Code == CheckCode::DeadStore) {
      EXPECT_EQ(D.InstrIdx, 0u);
    }
}

TEST(Checks, DeadStoreSparesReadValuesAndCalls) {
  Program P;
  ModuleId M = P.addModule("m");
  RoutineId Callee = P.declareRoutine(M, "callee", 0, false);
  {
    auto CalleeBody = skeleton(1, 0);
    ret(*CalleeBody, 0, Operand::imm(0));
    P.defineRoutine(Callee, M, std::move(CalleeBody));
  }
  // "call r0 = callee(); ret #0": r0 is never read, but the call must run
  // for its side effects — not a dead-store finding.
  RoutineId R = P.declareRoutine(M, "f", 0, false);
  auto Body = skeleton(1, 1);
  Instr *Call = push(*Body, 0, Opcode::Call);
  Call->Sym = Callee;
  Call->Dst = 0;
  Call->NumArgs = 0;
  ret(*Body, 0, Operand::imm(0));
  P.defineRoutine(R, M, std::move(Body));
  ASSERT_EQ(verifyMessage(P, R, P.body(R)), "");
  RoutineFacts Facts;
  runLocalChecks(R, P.body(R), Facts);
  EXPECT_EQ(countCode(Facts.Diags, CheckCode::DeadStore), 0u);
}

TEST(Checks, DeadStoreSeesLivenessAcrossBlocks) {
  // The store is read in a *later* block: local reasoning would flag it,
  // the backward dataflow must not.
  auto Body = skeleton(2, 1);
  Instr *Mov = push(*Body, 0, Opcode::Mov);
  Mov->Dst = 0;
  Mov->A = Operand::imm(3);
  push(*Body, 0, Opcode::Jmp)->T1 = 1;
  ret(*Body, 1, Operand::reg(0));
  RoutineFacts Facts = localFacts(std::move(Body));
  EXPECT_EQ(countCode(Facts.Diags, CheckCode::DeadStore), 0u);
}

TEST(Checks, ConstantTrapFlagsLiteralZeroDivisors) {
  auto Body = skeleton(1, 3, /*NumParams=*/1);
  Instr *Div = push(*Body, 0, Opcode::Div);
  Div->Dst = 1;
  Div->A = Operand::reg(0);
  Div->B = Operand::imm(0);
  Instr *Rem = push(*Body, 0, Opcode::Rem);
  Rem->Dst = 2;
  Rem->A = Operand::reg(0);
  Rem->B = Operand::imm(0);
  Instr *Add = push(*Body, 0, Opcode::Add);
  Add->Dst = 2;
  Add->A = Operand::reg(1);
  Add->B = Operand::reg(2);
  ret(*Body, 0, Operand::reg(2));
  RoutineFacts Facts = localFacts(std::move(Body));
  EXPECT_EQ(countCode(Facts.Diags, CheckCode::ConstantTrap), 2u);
}

TEST(Checks, ConstantTrapIgnoresNonzeroAndRegisterDivisors) {
  auto Body = skeleton(1, 3, /*NumParams=*/2);
  Instr *Div = push(*Body, 0, Opcode::Div);
  Div->Dst = 2;
  Div->A = Operand::reg(0);
  Div->B = Operand::imm(2); // Nonzero literal: fine.
  Instr *Div2 = push(*Body, 0, Opcode::Div);
  Div2->Dst = 2;
  Div2->A = Operand::reg(2);
  Div2->B = Operand::reg(1); // Register divisor: could be anything.
  ret(*Body, 0, Operand::reg(2));
  RoutineFacts Facts = localFacts(std::move(Body));
  EXPECT_EQ(countCode(Facts.Diags, CheckCode::ConstantTrap), 0u);
}

TEST(Checks, UnreachableBlockFlagsOrphanCode) {
  auto Body = skeleton(2, 1);
  ret(*Body, 0, Operand::imm(0));
  Instr *Mov = push(*Body, 1, Opcode::Mov); // Real code, no way to reach it.
  Mov->Dst = 0;
  Mov->A = Operand::imm(1);
  ret(*Body, 1, Operand::reg(0));
  RoutineFacts Facts = localFacts(std::move(Body));
  EXPECT_EQ(countCode(Facts.Diags, CheckCode::UnreachableBlock), 1u);
}

TEST(Checks, UnreachableBlockSparesSynthesizedMergeRets) {
  // The frontend synthesizes a lone-"ret 0" merge block after an if/else
  // where both arms return; flagging it would make almost every MiniC
  // routine noisy.
  auto Body = skeleton(2, 1);
  ret(*Body, 0, Operand::imm(0));
  ret(*Body, 1, Operand::imm(0));
  RoutineFacts Facts = localFacts(std::move(Body));
  EXPECT_EQ(countCode(Facts.Diags, CheckCode::UnreachableBlock), 0u);
}

TEST(Checks, UnreachableCodeProducesNoSecondaryFindings) {
  // An unreachable block that reads an uninitialized register and leaves a
  // dead store: one unreachable-block finding, nothing else (the dataflow
  // facts of a block no path reaches are vacuous).
  auto Body = skeleton(2, 2);
  ret(*Body, 0, Operand::imm(0));
  Instr *Mov = push(*Body, 1, Opcode::Mov);
  Mov->Dst = 1;
  Mov->A = Operand::reg(0); // r0 uninitialized; r1 never read.
  ret(*Body, 1, Operand::imm(0));
  RoutineFacts Facts = localFacts(std::move(Body));
  EXPECT_EQ(countCode(Facts.Diags, CheckCode::UnreachableBlock), 1u);
  EXPECT_EQ(Facts.Diags.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Call-graph condensation: the scaffold for the SCC waves
//===----------------------------------------------------------------------===//

namespace {

CallSite site(RoutineId Caller, RoutineId Callee, uint32_t Idx = 0) {
  CallSite S;
  S.Caller = Caller;
  S.Block = 0;
  S.InstrIdx = Idx;
  S.Callee = Callee;
  return S;
}

} // namespace

TEST(Condense, BottomUpOrderAndKahnLevels) {
  // 0 -> {1 <-> 2} -> 3: a chain through a two-routine cycle.
  CallGraph G = CallGraph::fromSites(
      {site(0, 1), site(1, 2), site(2, 1, 1), site(2, 3, 2)});
  CallGraph::Condensation C = G.condense({0, 1, 2, 3});
  ASSERT_EQ(C.Members.size(), 3u);
  // Tarjan completion order is bottom-up: every callee SCC has a smaller
  // index than its caller SCC.
  for (uint32_t S = 0; S != C.Succs.size(); ++S)
    for (uint32_t T : C.Succs[S])
      EXPECT_LT(T, S);
  // The cycle is one SCC with ascending members; the endpoints are acyclic
  // singletons.
  uint32_t Cycle = C.SccOf.at(1);
  EXPECT_EQ(C.SccOf.at(2), Cycle);
  EXPECT_EQ(C.Members[Cycle], (std::vector<RoutineId>{1, 2}));
  EXPECT_TRUE(C.Cyclic[Cycle]);
  EXPECT_FALSE(C.Cyclic[C.SccOf.at(0)]);
  EXPECT_FALSE(C.Cyclic[C.SccOf.at(3)]);
  // Kahn levels: the leaf first, then the cycle, then the root — each
  // level's callees all live in strictly lower levels.
  ASSERT_EQ(C.Levels.size(), 3u);
  EXPECT_EQ(C.Levels[0], (std::vector<uint32_t>{C.SccOf.at(3)}));
  EXPECT_EQ(C.Levels[1], (std::vector<uint32_t>{Cycle}));
  EXPECT_EQ(C.Levels[2], (std::vector<uint32_t>{C.SccOf.at(0)}));
}

TEST(Condense, SelfEdgeMakesSingletonCyclic) {
  CallGraph G = CallGraph::fromSites({site(5, 5)});
  CallGraph::Condensation C = G.condense({5});
  ASSERT_EQ(C.Members.size(), 1u);
  EXPECT_TRUE(C.Cyclic[0]);
  // A singleton with no self edge is acyclic.
  CallGraph Lone = CallGraph::fromSites({});
  CallGraph::Condensation C2 = Lone.condense({7});
  ASSERT_EQ(C2.Members.size(), 1u);
  EXPECT_FALSE(C2.Cyclic[0]);
}

//===----------------------------------------------------------------------===//
// Interprocedural checks (MiniC sources through the session)
//===----------------------------------------------------------------------===//

namespace {

const char *InterprocSrc = R"(
global sink;
global ghost;

func helper(x) {
  return x + 1;
}

func orphan(x) {
  return x * 2;
}

func main() {
  sink = helper(1);
  var z = ghost;
  return z;
}
)";

AnalysisResult analyzeSources(
    const std::vector<std::pair<std::string, std::string>> &Sources,
    AnalysisOptions AOpts = {}, CompileOptions Opts = {}) {
  CompilerSession Session(Opts);
  for (const auto &[Name, Src] : Sources)
    EXPECT_TRUE(Session.addSource(Name, Src)) << Session.firstError();
  return Session.runAnalysis(AOpts);
}

} // namespace

TEST(Interproc, UnusedRoutineSparesMainAndCallees) {
  AnalysisResult AR = analyzeSources({{"m", InterprocSrc}});
  ASSERT_TRUE(AR.Ok) << AR.Error;
  EXPECT_NE(AR.Report.find("scmo-unused-routine] orphan"), std::string::npos)
      << AR.Report;
  EXPECT_EQ(AR.Report.find("scmo-unused-routine] helper"), std::string::npos);
  EXPECT_EQ(AR.Report.find("scmo-unused-routine] main"), std::string::npos);
}

TEST(Interproc, GlobalSummaryChecksUseStoreFacts) {
  AnalysisResult AR = analyzeSources({{"m", InterprocSrc}});
  ASSERT_TRUE(AR.Ok) << AR.Error;
  // sink is stored (in main) and never loaded; ghost is the reverse.
  EXPECT_NE(AR.Report.find("scmo-write-only-global]: global 'sink'"),
            std::string::npos)
      << AR.Report;
  EXPECT_NE(AR.Report.find("scmo-never-written-global-load"),
            std::string::npos);
  EXPECT_EQ(countCode(AR.Diagnostics, CheckCode::WriteOnlyGlobal), 1u);
  EXPECT_EQ(countCode(AR.Diagnostics, CheckCode::NeverWrittenGlobalLoad), 1u);
}

TEST(Interproc, StoreInAnyModuleClearsNeverWrittenLoad) {
  // ghost gains a store in a second module: the whole-program summary must
  // retire the finding even though the loading module never stores it.
  const char *Extra = R"(
global ghost;
func init_ghost() {
  ghost = 9;
  return 0;
}
)";
  AnalysisResult AR = analyzeSources({{"m", InterprocSrc}, {"init", Extra}});
  ASSERT_TRUE(AR.Ok) << AR.Error;
  EXPECT_EQ(countCode(AR.Diagnostics, CheckCode::NeverWrittenGlobalLoad), 0u)
      << AR.Report;
}

TEST(Interproc, VerifierFailureSuppressesLintForThatRoutine) {
  Program P;
  ModuleId M = P.addModule("m");
  RoutineId Bad = P.declareRoutine(M, "bad", 0, false);
  {
    auto Body = skeleton(1, 1);
    Instr *Mov = push(*Body, 0, Opcode::Mov);
    Mov->Dst = 0;
    Mov->A = Operand::imm(1); // Would be a dead store...
    Instr *R = push(*Body, 0, Opcode::Ret);
    R->A = Operand::reg(99); // ...but the routine is malformed.
    P.defineRoutine(Bad, M, std::move(Body));
  }
  RoutineId Good = P.declareRoutine(M, "good", 0, false);
  {
    auto Body = skeleton(1, 1);
    Instr *Mov = push(*Body, 0, Opcode::Mov);
    Mov->Dst = 0;
    Mov->A = Operand::imm(1);
    Instr *Mov2 = push(*Body, 0, Opcode::Mov);
    Mov2->Dst = 0;
    Mov2->A = Operand::imm(2);
    ret(*Body, 0, Operand::reg(0));
    P.defineRoutine(Good, M, std::move(Body));
  }
  Loader L(P, NaimConfig{});
  AnalysisResult AR = runAnalysis(P, L, nullptr, AnalysisOptions{});
  ASSERT_TRUE(AR.Ok) << AR.Error;
  EXPECT_EQ(AR.Errors, 1u);
  EXPECT_EQ(countCode(AR.Diagnostics, CheckCode::Verify), 1u);
  // The malformed routine contributes no body-level lint findings (both
  // routines are uncalled, so it still shows up as unused); the good one
  // still gets its dead-store warning.
  for (const Diagnostic &D : AR.Diagnostics)
    if (D.Routine == Bad) {
      EXPECT_TRUE(D.Code == CheckCode::Verify ||
                  D.Code == CheckCode::UnusedRoutine)
          << checkCodeName(D.Code);
    }
  EXPECT_EQ(countCode(AR.Diagnostics, CheckCode::DeadStore), 1u);
}

//===----------------------------------------------------------------------===//
// Whole-program checks: positive and negative per check code
//===----------------------------------------------------------------------===//

TEST(Interproc, DeadGlobalStoreNeedsEveryLoadUnreachable) {
  // acc's only load sits in the unreachable tail after an if/else where
  // both arms return — so the store in main can never be observed.
  const char *Src = R"(
global acc;

func ghost(x) {
  if (x > 0) {
    return 1;
  } else {
    return 2;
  }
  var g = acc;
  return g;
}

func main() {
  acc = 5;
  return ghost(1);
}
)";
  AnalysisResult AR = analyzeSources({{"m", Src}});
  ASSERT_TRUE(AR.Ok) << AR.Error;
  EXPECT_EQ(countCode(AR.Diagnostics, CheckCode::DeadGlobalStore), 1u)
      << AR.Report;
  // Not write-only: the global *has* a load, it is just unreachable.
  EXPECT_EQ(countCode(AR.Diagnostics, CheckCode::WriteOnlyGlobal), 0u);

  const char *Neg = R"(
global acc;

func main() {
  acc = 5;
  var v = acc;
  return v;
}
)";
  AnalysisResult NR = analyzeSources({{"m", Neg}});
  ASSERT_TRUE(NR.Ok) << NR.Error;
  EXPECT_EQ(countCode(NR.Diagnostics, CheckCode::DeadGlobalStore), 0u)
      << NR.Report;
}

TEST(Interproc, UninitGlobalReadNeedsEveryStoreUnreachable) {
  const char *Src = R"(
global phantom;

func ghost(x) {
  if (x > 0) {
    return 1;
  } else {
    return 2;
  }
  phantom = 9;
  return 0;
}

func main() {
  var p = phantom;
  return ghost(p);
}
)";
  AnalysisResult AR = analyzeSources({{"m", Src}});
  ASSERT_TRUE(AR.Ok) << AR.Error;
  EXPECT_EQ(countCode(AR.Diagnostics, CheckCode::UninitGlobalRead), 1u)
      << AR.Report;
  // Not never-written: a store exists, it is just unreachable.
  EXPECT_EQ(countCode(AR.Diagnostics, CheckCode::NeverWrittenGlobalLoad), 0u);

  // A reachable store anywhere in the program retires the finding,
  // flow-insensitively (the summary tracks reachability, not ordering).
  const char *Neg = R"(
global phantom;

func fill() {
  phantom = 9;
  return 0;
}

func main() {
  var p = phantom;
  return p + fill();
}
)";
  AnalysisResult NR = analyzeSources({{"m", Neg}});
  ASSERT_TRUE(NR.Ok) << NR.Error;
  EXPECT_EQ(countCode(NR.Diagnostics, CheckCode::UninitGlobalRead), 0u)
      << NR.Report;
}

TEST(Interproc, DeadParameterPropagatesThroughForwardingChains) {
  // carry ignores b; relay only forwards b into carry's dead slot — both
  // second parameters are transitively dead.
  const char *Src = R"(
func carry(a, b) {
  return a * 2;
}

func relay(a, b) {
  return carry(a, b);
}

func main() {
  return relay(3, 4);
}
)";
  AnalysisResult AR = analyzeSources({{"m", Src}});
  ASSERT_TRUE(AR.Ok) << AR.Error;
  EXPECT_EQ(countCode(AR.Diagnostics, CheckCode::DeadParameter), 2u)
      << AR.Report;
  EXPECT_NE(AR.Report.find("scmo-dead-parameter] carry"), std::string::npos);
  EXPECT_NE(AR.Report.find("scmo-dead-parameter] relay"), std::string::npos);

  // The callee using b makes the whole chain live.
  const char *Neg = R"(
func carry(a, b) {
  return a * 2 + b;
}

func relay(a, b) {
  return carry(a, b);
}

func main() {
  return relay(3, 4);
}
)";
  AnalysisResult NR = analyzeSources({{"m", Neg}});
  ASSERT_TRUE(NR.Ok) << NR.Error;
  EXPECT_EQ(countCode(NR.Diagnostics, CheckCode::DeadParameter), 0u)
      << NR.Report;
}

TEST(Interproc, IgnoredReturnFlagsComputedResultsDroppedEverywhere) {
  const char *Src = R"(
func noisy(x) {
  return x * 3 + 1;
}

func main() {
  noisy(4);
  return 0;
}
)";
  AnalysisResult AR = analyzeSources({{"m", Src}});
  ASSERT_TRUE(AR.Ok) << AR.Error;
  EXPECT_EQ(countCode(AR.Diagnostics, CheckCode::IgnoredReturn), 1u)
      << AR.Report;

  // One consuming site anywhere clears the routine-level finding.
  const char *NegUsed = R"(
func noisy(x) {
  return x * 3 + 1;
}

func main() {
  noisy(4);
  var v = noisy(5);
  return v;
}
)";
  AnalysisResult NU = analyzeSources({{"m", NegUsed}});
  ASSERT_TRUE(NU.Ok) << NU.Error;
  EXPECT_EQ(countCode(NU.Diagnostics, CheckCode::IgnoredReturn), 0u)
      << NU.Report;

  // A constant return is status-code style: dropping it is idiomatic.
  const char *NegConst = R"(
func quiet(x) {
  var sink = x * 2;
  return 0;
}

func main() {
  quiet(4);
  return 0;
}
)";
  AnalysisResult NC = analyzeSources({{"m", NegConst}});
  ASSERT_TRUE(NC.Ok) << NC.Error;
  EXPECT_EQ(countCode(NC.Diagnostics, CheckCode::IgnoredReturn), 0u)
      << NC.Report;
}

TEST(Interproc, IpcpConstantTrapTracksZeroThroughForwarding) {
  // divide's divisor is a register (no local constant-trap); the literal
  // zero enters two hops up, and the trap mask propagates through chain's
  // forwarding to flag main's call site.
  const char *Src = R"(
func divide(a, b) {
  return a / b;
}

func chain(a, b) {
  return divide(a, b);
}

func main() {
  return chain(12, 0);
}
)";
  AnalysisResult AR = analyzeSources({{"m", Src}});
  ASSERT_TRUE(AR.Ok) << AR.Error;
  EXPECT_EQ(countCode(AR.Diagnostics, CheckCode::IpcpConstantTrap), 1u)
      << AR.Report;
  EXPECT_EQ(countCode(AR.Diagnostics, CheckCode::ConstantTrap), 0u);
  EXPECT_NE(AR.Report.find("scmo-ipcp-constant-trap] main"),
            std::string::npos)
      << AR.Report;

  const char *Neg = R"(
func divide(a, b) {
  return a / b;
}

func chain(a, b) {
  return divide(a, b);
}

func main() {
  return chain(12, 3);
}
)";
  AnalysisResult NR = analyzeSources({{"m", Neg}});
  ASSERT_TRUE(NR.Ok) << NR.Error;
  EXPECT_EQ(countCode(NR.Diagnostics, CheckCode::IpcpConstantTrap), 0u)
      << NR.Report;
}

TEST(Interproc, InfiniteRecursionFlagsMutualCycleWithNoExit) {
  // ping and pong call each other unconditionally: the SCC can never
  // unwind, and every member is named.
  const char *Src = R"(
func ping(x) {
  return pong(x + 1);
}

func pong(x) {
  return ping(x - 1);
}

func main() {
  return ping(0);
}
)";
  AnalysisResult AR = analyzeSources({{"m", Src}});
  ASSERT_TRUE(AR.Ok) << AR.Error;
  EXPECT_EQ(countCode(AR.Diagnostics, CheckCode::InfiniteRecursion), 2u)
      << AR.Report;
  EXPECT_NE(AR.Report.find("scmo-infinite-recursion] ping"),
            std::string::npos);
  EXPECT_NE(AR.Report.find("scmo-infinite-recursion] pong"),
            std::string::npos);

  // Self-recursion with an escape path: the recursive call is conditional,
  // so it is not a must-callee and the routine can terminate.
  const char *Neg = R"(
func down(x) {
  if (x > 0) {
    return down(x - 1);
  } else {
    return 0;
  }
}

func main() {
  return down(9);
}
)";
  AnalysisResult NR = analyzeSources({{"m", Neg}});
  ASSERT_TRUE(NR.Ok) << NR.Error;
  EXPECT_EQ(countCode(NR.Diagnostics, CheckCode::InfiniteRecursion), 0u)
      << NR.Report;
}

TEST(Interproc, CleanProgramStaysSilent) {
  // The whole-program checks must not fire on ordinary healthy code.
  const char *Src = R"(
global tally;

func bump(d) {
  tally = tally + d;
  return tally;
}

func main() {
  tally = 0;
  var t = bump(3);
  return t;
}
)";
  AnalysisResult AR = analyzeSources({{"m", Src}});
  ASSERT_TRUE(AR.Ok) << AR.Error;
  EXPECT_EQ(AR.Diagnostics.size(), 0u) << AR.Report;
}

//===----------------------------------------------------------------------===//
// Engine contracts: determinism, filtering, memory
//===----------------------------------------------------------------------===//

namespace {

GeneratedProgram plantedProgram(uint64_t Lines) {
  WorkloadParams WP = mcadLikeParams(Lines);
  WP.PlantDefects = true;
  return generateProgram(WP);
}

} // namespace

TEST(AnalyzeE2E, ReportIsByteIdenticalAcrossJobWidths) {
  GeneratedProgram GP = plantedProgram(3000);
  std::string Ref;
  for (unsigned Jobs : {1u, 2u, 8u}) {
    CompilerSession Session{CompileOptions{}};
    ASSERT_TRUE(Session.addGenerated(GP));
    AnalysisOptions AOpts;
    AOpts.Jobs = Jobs;
    AnalysisResult AR = Session.runAnalysis(AOpts);
    ASSERT_TRUE(AR.Ok) << AR.Error;
    EXPECT_EQ(AR.Errors, 0u);
    EXPECT_GT(AR.Warnings, 0u);
    if (Jobs == 1)
      Ref = AR.Report;
    else
      EXPECT_EQ(AR.Report, Ref) << "jobs=" << Jobs;
  }
  ASSERT_FALSE(Ref.empty());
  // Every planted defect class is present, including the interprocedural
  // baits (lint_main and friends).
  for (const char *Code :
       {"scmo-dead-store", "scmo-constant-trap", "scmo-unreachable-block",
        "scmo-unused-routine", "scmo-write-only-global",
        "scmo-never-written-global-load", "scmo-dead-global-store",
        "scmo-uninit-global-read", "scmo-dead-parameter",
        "scmo-ignored-return", "scmo-ipcp-constant-trap",
        "scmo-infinite-recursion"})
    EXPECT_NE(Ref.find(Code), std::string::npos) << Code;
}

TEST(AnalyzeE2E, FilterKeepsOnlyRequestedCodes) {
  GeneratedProgram GP = plantedProgram(2000);
  CompilerSession Session{CompileOptions{}};
  ASSERT_TRUE(Session.addGenerated(GP));
  AnalysisOptions AOpts;
  AOpts.Filter = {CheckCode::ConstantTrap};
  AnalysisResult AR = Session.runAnalysis(AOpts);
  ASSERT_TRUE(AR.Ok) << AR.Error;
  ASSERT_EQ(AR.Diagnostics.size(), 2u) << AR.Report; // The div and the rem.
  for (const Diagnostic &D : AR.Diagnostics)
    EXPECT_EQ(D.Code, CheckCode::ConstantTrap);
  EXPECT_EQ(AR.Report.find("scmo-dead-store"), std::string::npos);
}

TEST(AnalyzeE2E, PeakMemoryStaysUnderNaimBudget) {
  const uint64_t Budget = 64ull << 20;
  CompileOptions Opts;
  Opts.Naim = NaimConfig::autoFor(Budget);
  CompilerSession Session(Opts);
  ASSERT_TRUE(Session.addGenerated(generateProgram(mcadLikeParams(20000))));
  AnalysisOptions AOpts;
  AOpts.Jobs = 4;
  AnalysisResult AR = Session.runAnalysis(AOpts);
  ASSERT_TRUE(AR.Ok) << AR.Error;
  EXPECT_GT(AR.RoutinesAnalyzed, 100u);
  EXPECT_GT(AR.PeakBytes, 0u);
  EXPECT_LT(AR.PeakBytes, Budget);
}

//===----------------------------------------------------------------------===//
// JSON rendering (--analyze-format=json)
//===----------------------------------------------------------------------===//

TEST(AnalyzeJson, ObjectsCarryFixedKeysInDiagnosticOrder) {
  AnalysisOptions Text;
  AnalysisResult TR = analyzeSources({{"m", InterprocSrc}}, Text);
  ASSERT_TRUE(TR.Ok) << TR.Error;

  AnalysisOptions Json;
  Json.Json = true;
  AnalysisResult JR = analyzeSources({{"m", InterprocSrc}}, Json);
  ASSERT_TRUE(JR.Ok) << JR.Error;

  // Same diagnostics either way; only the rendering differs.
  ASSERT_EQ(JR.Diagnostics.size(), TR.Diagnostics.size());
  ASSERT_GT(JR.Diagnostics.size(), 0u);

  // One object per line inside the array brackets.
  ASSERT_GE(JR.Report.size(), 4u);
  EXPECT_EQ(JR.Report.front(), '[');
  EXPECT_EQ(JR.Report.substr(JR.Report.size() - 3), "\n]\n");
  size_t Objects = 0;
  for (size_t Pos = 0; (Pos = JR.Report.find("{\"code\":\"", Pos)) !=
                       std::string::npos;
       ++Pos)
    ++Objects;
  EXPECT_EQ(Objects, JR.Diagnostics.size());

  // Fixed key order, routine-level finding: block and line degrade to
  // null/0 rather than disappearing.
  EXPECT_NE(JR.Report.find("{\"code\":\"scmo-unused-routine\",\"severity\":"
                           "\"warning\",\"routine\":\"orphan\",\"block\":"
                           "null,\"line\":0,\"message\":"),
            std::string::npos)
      << JR.Report;
  // Program-level finding: routine is null.
  EXPECT_NE(JR.Report.find("{\"code\":\"scmo-write-only-global\","
                           "\"severity\":\"warning\",\"routine\":null,"),
            std::string::npos)
      << JR.Report;
}

TEST(AnalyzeJson, CleanProgramRendersEmptyArray) {
  AnalysisOptions Json;
  Json.Json = true;
  AnalysisResult AR =
      analyzeSources({{"m", "func main() {\n  return 0;\n}\n"}}, Json);
  ASSERT_TRUE(AR.Ok) << AR.Error;
  EXPECT_EQ(AR.Diagnostics.size(), 0u) << AR.Report;
  EXPECT_EQ(AR.Report, "[]\n");
}

TEST(AnalyzeJson, ReportIsByteIdenticalAcrossJobWidths) {
  GeneratedProgram GP = plantedProgram(2000);
  std::string Ref;
  for (unsigned Jobs : {1u, 4u}) {
    CompilerSession Session{CompileOptions{}};
    ASSERT_TRUE(Session.addGenerated(GP));
    AnalysisOptions AOpts;
    AOpts.Jobs = Jobs;
    AOpts.Json = true;
    AnalysisResult AR = Session.runAnalysis(AOpts);
    ASSERT_TRUE(AR.Ok) << AR.Error;
    if (Jobs == 1)
      Ref = AR.Report;
    else
      EXPECT_EQ(AR.Report, Ref) << "jobs=" << Jobs;
  }
  EXPECT_NE(Ref.find("\"code\":\"scmo-ipcp-constant-trap\""),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Incremental re-analysis (--analyze --incremental)
//===----------------------------------------------------------------------===//

namespace {

/// A fresh analysis-cache directory under /tmp; leaked on purpose (tests
/// are short-lived and the driver cleans /tmp).
std::string freshAnaCacheDir() {
  char Dir[] = "/tmp/scmo-ana-XXXXXX";
  EXPECT_NE(mkdtemp(Dir), nullptr);
  return Dir;
}

AnalysisResult analyzeGenerated(const GeneratedProgram &GP,
                                const AnalysisOptions &AOpts) {
  CompilerSession Session{CompileOptions{}};
  EXPECT_TRUE(Session.addGenerated(GP)) << Session.firstError();
  return Session.runAnalysis(AOpts);
}

/// The canonical "developer edited one file" event (mirrors
/// IncrementalTests): appends a small well-formed routine to module \p Idx.
GeneratedProgram editOneModule(GeneratedProgram GP, size_t Idx) {
  GP.Modules[Idx].Source += "\nfunc edit_probe(x, k) {\n"
                            "  var t = x * 3 + k;\n"
                            "  return t % 97;\n"
                            "}\n";
  return GP;
}

} // namespace

TEST(IncrementalAnalysis, WarmReplayIsByteIdenticalToCold) {
  GeneratedProgram GP = plantedProgram(3000);

  AnalysisResult Base = analyzeGenerated(GP, AnalysisOptions{});
  ASSERT_TRUE(Base.Ok) << Base.Error;

  AnalysisOptions AOpts;
  AOpts.Incremental = true;
  AOpts.CacheDir = freshAnaCacheDir();

  AnalysisResult Cold = analyzeGenerated(GP, AOpts);
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  EXPECT_EQ(Cold.CacheHits, 0u);
  EXPECT_GT(Cold.CacheMisses, 1u);
  EXPECT_EQ(Cold.CacheStores, Cold.CacheMisses);
  EXPECT_EQ(Cold.RoutinesRescanned, Cold.RoutinesAnalyzed);
  // Caching must not perturb the report.
  EXPECT_EQ(Cold.Report, Base.Report);

  AnalysisResult Warm = analyzeGenerated(GP, AOpts);
  ASSERT_TRUE(Warm.Ok) << Warm.Error;
  EXPECT_EQ(Warm.CacheMisses, 0u);
  EXPECT_EQ(Warm.CacheHits, Cold.CacheMisses);
  EXPECT_EQ(Warm.RoutinesRescanned, 0u);
  EXPECT_EQ(Warm.Report, Cold.Report);
}

TEST(IncrementalAnalysis, EditRescansOnlyTheEditedModule) {
  GeneratedProgram GP = plantedProgram(3000);
  AnalysisOptions AOpts;
  AOpts.Incremental = true;
  AOpts.CacheDir = freshAnaCacheDir();

  AnalysisResult Cold = analyzeGenerated(GP, AOpts);
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  ASSERT_GT(Cold.CacheMisses, 1u);

  GeneratedProgram Edited = editOneModule(GP, 1);
  AnalysisResult Warm = analyzeGenerated(Edited, AOpts);
  ASSERT_TRUE(Warm.Ok) << Warm.Error;
  EXPECT_EQ(Warm.CacheMisses, 1u);
  EXPECT_EQ(Warm.CacheHits, Cold.CacheMisses - 1);
  EXPECT_GT(Warm.RoutinesRescanned, 0u);
  EXPECT_LT(Warm.RoutinesRescanned, Warm.RoutinesAnalyzed);

  // The mixed replay/rescan report equals an uncached run of the edited
  // program (the probe routine's findings included).
  AnalysisResult Base = analyzeGenerated(Edited, AnalysisOptions{});
  ASSERT_TRUE(Base.Ok) << Base.Error;
  EXPECT_EQ(Warm.Report, Base.Report);
  EXPECT_NE(Warm.Report.find("edit_probe"), std::string::npos);

  // The miss re-stored the edited module: a third run is all hits.
  AnalysisResult Again = analyzeGenerated(Edited, AOpts);
  ASSERT_TRUE(Again.Ok) << Again.Error;
  EXPECT_EQ(Again.CacheMisses, 0u);
  EXPECT_EQ(Again.RoutinesRescanned, 0u);
  EXPECT_EQ(Again.Report, Warm.Report);
}

TEST(IncrementalAnalysis, CorruptArtifactDegradesToRescanAndHeals) {
  GeneratedProgram GP = plantedProgram(2000);
  AnalysisOptions AOpts;
  AOpts.Incremental = true;
  AOpts.CacheDir = freshAnaCacheDir();

  AnalysisResult Cold = analyzeGenerated(GP, AOpts);
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  ASSERT_GT(Cold.CacheMisses, 1u);

  // Flip one byte in the middle of one artifact.
  std::string Victim;
  DIR *D = opendir(AOpts.CacheDir.c_str());
  ASSERT_NE(D, nullptr);
  while (dirent *E = readdir(D)) {
    std::string Name = E->d_name;
    if (Name.rfind("ana-", 0) == 0) {
      Victim = AOpts.CacheDir + "/" + Name;
      break;
    }
  }
  closedir(D);
  ASSERT_FALSE(Victim.empty());
  {
    std::fstream F(Victim,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(F.good());
    F.seekg(0, std::ios::end);
    long Size = static_cast<long>(F.tellg());
    ASSERT_GT(Size, 16);
    F.seekg(Size / 2);
    char C = 0;
    F.read(&C, 1);
    C = static_cast<char>(C ^ 0x40);
    F.seekp(Size / 2);
    F.write(&C, 1);
  }

  // The bad frame is a miss, not an error: that module rescans, the report
  // stays byte-identical, and the store overwrites the bad artifact.
  AnalysisResult Warm = analyzeGenerated(GP, AOpts);
  ASSERT_TRUE(Warm.Ok) << Warm.Error;
  EXPECT_EQ(Warm.CacheMisses, 1u);
  EXPECT_EQ(Warm.CacheHits, Cold.CacheMisses - 1);
  EXPECT_EQ(Warm.CacheStores, 1u);
  EXPECT_EQ(Warm.Report, Cold.Report);

  AnalysisResult Healed = analyzeGenerated(GP, AOpts);
  ASSERT_TRUE(Healed.Ok) << Healed.Error;
  EXPECT_EQ(Healed.CacheMisses, 0u);
  EXPECT_EQ(Healed.CacheHits, Cold.CacheMisses);
  EXPECT_EQ(Healed.Report, Cold.Report);
}

TEST(IncrementalAnalysis, GlobalInitializerEditRescansNothing) {
  // No cached fact depends on a global's initializer: the zero-read checks
  // read it from the program when they run. Giving a never-stored zero
  // scalar an initializer drops its never-written-global-load findings
  // without rescanning any module.
  GeneratedProgram GP = plantedProgram(2000);
  AnalysisOptions AOpts;
  AOpts.Incremental = true;
  AOpts.CacheDir = freshAnaCacheDir();
  AnalysisResult Cold = analyzeGenerated(GP, AOpts);
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  ASSERT_NE(Cold.Report.find("global 'lint_zero' which is never stored"),
            std::string::npos);

  size_t Edits = 0;
  for (GeneratedModule &GM : GP.Modules)
    for (size_t At; (At = GM.Source.find("global lint_zero;")) !=
                    std::string::npos;
         ++Edits)
      GM.Source.replace(At, 17, "global lint_zero = 5;");
  ASSERT_EQ(Edits, 1u);

  AnalysisResult Warm = analyzeGenerated(GP, AOpts);
  ASSERT_TRUE(Warm.Ok) << Warm.Error;
  EXPECT_EQ(Warm.CacheMisses, 0u);
  EXPECT_EQ(Warm.RoutinesRescanned, 0u);
  AnalysisResult Base = analyzeGenerated(GP, AnalysisOptions{});
  ASSERT_TRUE(Base.Ok) << Base.Error;
  EXPECT_EQ(Warm.Report, Base.Report);
  EXPECT_EQ(Warm.Report.find("lint_zero"), std::string::npos);
}

TEST(IncrementalAnalysis, CalleeArityEditRescansTheCaller) {
  // app calls f before lib declares it, so app's IL names f only by name.
  // lib's edit changes f's arity: app's call no longer verifies, and the
  // warm run must report that as a cold run does, not replay app's facts.
  std::vector<std::pair<std::string, std::string>> Srcs = {
      {"app", "func main() { print(f(1)); return 0; }\n"},
      {"lib", "func f(x) { return x + 1; }\n"}};
  AnalysisOptions AOpts;
  AOpts.Incremental = true;
  AOpts.CacheDir = freshAnaCacheDir();
  AnalysisResult Cold = analyzeSources(Srcs, AOpts);
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  EXPECT_EQ(Cold.Errors, 0u);

  Srcs[1].second = "func f(x, y) { return x + y; }\n";
  AnalysisResult Base = analyzeSources(Srcs);
  ASSERT_TRUE(Base.Ok) << Base.Error;
  EXPECT_EQ(Base.Errors, 1u);
  AnalysisResult Warm = analyzeSources(Srcs, AOpts);
  ASSERT_TRUE(Warm.Ok) << Warm.Error;
  EXPECT_EQ(Warm.CacheMisses, 2u);
  EXPECT_EQ(Warm.Errors, Base.Errors);
  EXPECT_EQ(Warm.Report, Base.Report);
}
