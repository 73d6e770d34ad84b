//===- tests/HloTests.cpp -------------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The HLO transformation phases. Transformations are checked two ways:
/// structurally (did the pass do the specific rewrite) and behaviourally
/// (the IL interpreter output is invariant under the pass).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "bytecode/Compact.h"
#include "frontend/Frontend.h"
#include "hlo/Cloner.h"
#include "hlo/Hlo.h"
#include "hlo/Inliner.h"
#include "hlo/Interprocedural.h"
#include "hlo/RoutinePasses.h"
#include "hlo/Selectivity.h"
#include "ir/CallGraph.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace scmo;
using namespace scmo::test;

namespace {

/// Test harness owning a program built from source plus a loader with NAIM
/// off (transformation tests want everything resident).
struct HloFixture {
  Program P;
  std::unique_ptr<Loader> L;
  Statistics Stats;
  std::unique_ptr<HloContext> Ctx;

  HloFixture(const HloFixture &) = delete;

  explicit HloFixture(
      std::initializer_list<std::pair<std::string, std::string>> Sources) {
    for (const auto &[Name, Src] : Sources) {
      FrontendResult FR = compileSource(P, Name, Src);
      EXPECT_TRUE(FR.Ok) << FR.Error;
    }
    NaimConfig C;
    C.Mode = NaimMode::Off;
    L = std::make_unique<Loader>(P, C);
    Ctx = std::make_unique<HloContext>(P, *L, Stats);
  }

  RoutineBody &body(const char *Name) {
    RoutineId R = P.findRoutine(Name);
    EXPECT_NE(R, InvalidId) << Name;
    return P.body(R);
  }

  std::vector<RoutineId> allDefined() {
    std::vector<RoutineId> Out;
    for (RoutineId R = 0; R != P.numRoutines(); ++R)
      if (P.routine(R).IsDefined)
        Out.push_back(R);
    return Out;
  }

  uint64_t interpret() {
    IlRunResult Res = interpretProgram(P);
    EXPECT_TRUE(Res.Ok) << Res.Error;
    return Res.OutputChecksum;
  }
};

/// Counts instructions with a given opcode across a body.
unsigned countOps(const RoutineBody &Body, Opcode Op) {
  unsigned N = 0;
  for (const BasicBlock &BB : Body.Blocks)
    for (const Instr *I : BB.Instrs)
      if (I->Op == Op)
        ++N;
  return N;
}

} // namespace

//===----------------------------------------------------------------------===//
// Constant propagation
//===----------------------------------------------------------------------===//

TEST(ConstProp, FoldsConstantChains) {
  HloFixture F({{"m", R"(
func main() {
  var a = 6;
  var b = a * 7;
  var c = b + 0 - 2;
  print c;
  return 0;
}
)"}});
  uint64_t Before = F.interpret();
  EXPECT_TRUE(runConstProp(F.P, F.body("main"), F.Stats));
  EXPECT_EQ(F.interpret(), Before);
  // The print operand must now be the folded immediate 40.
  bool FoundImm = false;
  for (const BasicBlock &BB : F.body("main").Blocks)
    for (const Instr *I : BB.Instrs)
      if (I->Op == Opcode::Print && I->A.isImm() && I->A.asImm() == 40)
        FoundImm = true;
  EXPECT_TRUE(FoundImm);
}

TEST(ConstProp, TracksOnlyWithinBlocks) {
  HloFixture F({{"m", R"(
func f(x) {
  var a = 5;
  while (x > 0) { a = a + 1; x = x - 1; }
  return a;
}
func main() { print f(3); return 0; }
)"}});
  uint64_t Before = F.interpret();
  runConstProp(F.P, F.body("f"), F.Stats);
  // 'a' is loop-carried; folding it to 5 would be wrong.
  EXPECT_EQ(F.interpret(), Before);
}

TEST(ConstProp, FoldsReadOnlyGlobalLoads) {
  HloFixture F({{"m", R"(
global ro = 9;
global rw = 1;
func main() {
  rw = rw + ro;
  print rw;
  return 0;
}
)"}});
  uint64_t Before = F.interpret();
  computeGlobalSummaries(*F.Ctx, F.allDefined(), /*WholeProgram=*/true);
  EXPECT_TRUE(F.P.global(F.P.findGlobal("ro")).SummaryValid);
  EXPECT_FALSE(F.P.global(F.P.findGlobal("ro")).EverStored);
  EXPECT_TRUE(F.P.global(F.P.findGlobal("rw")).EverStored);
  runConstProp(F.P, F.body("main"), F.Stats);
  EXPECT_EQ(F.interpret(), Before);
  EXPECT_EQ(F.Stats.get("constprop.global_loads"), 1u);
  // Both loads of rw (the read-modify-write and the print) must remain.
  EXPECT_EQ(countOps(F.body("main"), Opcode::LoadG), 2u);
}

TEST(ConstProp, DoesNotFoldWithoutValidSummaries) {
  HloFixture F({{"m", R"(
global ro = 9;
func main() { print ro; return 0; }
)"}});
  // No summary computation: SummaryValid stays false.
  runConstProp(F.P, F.body("main"), F.Stats);
  EXPECT_EQ(countOps(F.body("main"), Opcode::LoadG), 1u);
}

TEST(ConstProp, FoldsDivisionLikeTheVm) {
  HloFixture F({{"m", R"(
func main() {
  var z = 0;
  print 10 / z;
  print 10 % z;
  return 0;
}
)"}});
  uint64_t Before = F.interpret();
  runCleanupPipeline(F.P, F.body("main"), F.Stats);
  EXPECT_EQ(F.interpret(), Before);
}

//===----------------------------------------------------------------------===//
// SimplifyCfg
//===----------------------------------------------------------------------===//

TEST(SimplifyCfg, FoldsConstantBranches) {
  HloFixture F({{"m", R"(
func main() {
  var flag = 1;
  if (flag > 0) { print 111; } else { print 222; }
  return 0;
}
)"}});
  uint64_t Before = F.interpret();
  runConstProp(F.P, F.body("main"), F.Stats);
  runSimplifyCfg(F.P, F.body("main"), F.Stats);
  EXPECT_EQ(F.interpret(), Before);
  EXPECT_EQ(countOps(F.body("main"), Opcode::Br), 0u);
  // The dead arm's print is unreachable and removed.
  EXPECT_EQ(countOps(F.body("main"), Opcode::Print), 1u);
}

TEST(SimplifyCfg, MergesStraightLineBlocks) {
  HloFixture F({{"m", R"(
func main() {
  var a = 1;
  if (a > 0) { a = 2; } else { a = 3; }
  print a;
  return 0;
}
)"}});
  runCleanupPipeline(F.P, F.body("main"), F.Stats);
  // Everything folds into a single straight-line block.
  EXPECT_EQ(F.body("main").Blocks.size(), 1u);
  std::string Err = verifyRoutine(F.P, F.P.findRoutine("main"),
                                  F.body("main"));
  EXPECT_EQ(Err, "");
}

TEST(SimplifyCfg, PreservesLoops) {
  HloFixture F({{"m", R"(
func main() {
  var i = 0;
  var s = 0;
  while (i < 5) { s = s + i; i = i + 1; }
  print s;
  return 0;
}
)"}});
  uint64_t Before = F.interpret();
  runCleanupPipeline(F.P, F.body("main"), F.Stats);
  EXPECT_EQ(F.interpret(), Before);
  EXPECT_GE(F.body("main").Blocks.size(), 3u); // Header/body/exit survive.
}

TEST(SimplifyCfg, RandomBodiesStayValidAndEquivalent) {
  // Property test: cleanup on random (frontend-independent) bodies keeps
  // the verifier happy. (Bodies with calls/prints excluded from behaviour
  // comparison here; structure-only check.)
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    Program P;
    ModuleId M = P.addModule("m");
    RoutineId R = P.declareRoutine(M, "f", 2, false);
    Prng Rng(Seed);
    auto Body = randomBody(Rng, 0, 0, false);
    Body->NumParams = 2;
    if (Body->NextReg < 2)
      Body->NextReg = 2;
    P.defineRoutine(R, M, std::move(Body));
    ASSERT_EQ(verifyRoutine(P, R, P.body(R)), "") << "seed " << Seed;
    Statistics Stats;
    runCleanupPipeline(P, P.body(R), Stats);
    EXPECT_EQ(verifyRoutine(P, R, P.body(R)), "") << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Dead code elimination
//===----------------------------------------------------------------------===//

TEST(Dce, RemovesDeadArithmetic) {
  HloFixture F({{"m", R"(
func main() {
  var dead1 = 3 * 3;
  var dead2 = dead1 + 1;
  var live = 7;
  print live;
  return 0;
}
)"}});
  runDce(F.P, F.body("main"), F.Stats);
  EXPECT_EQ(countOps(F.body("main"), Opcode::Mul), 0u);
  EXPECT_EQ(countOps(F.body("main"), Opcode::Add), 0u);
  EXPECT_EQ(countOps(F.body("main"), Opcode::Print), 1u);
}

TEST(Dce, KeepsStoresAndCalls) {
  HloFixture F({{"m", R"(
global g;
func sideEffect() { g = g + 1; return 0; }
func main() {
  var unused = sideEffect();
  g = 5;
  return 0;
}
)"}});
  uint64_t CallsBefore = countOps(F.body("main"), Opcode::Call);
  runDce(F.P, F.body("main"), F.Stats);
  EXPECT_EQ(countOps(F.body("main"), Opcode::Call), CallsBefore);
  EXPECT_EQ(countOps(F.body("main"), Opcode::StoreG), 1u);
  // But the unused call result register is dropped.
  for (const BasicBlock &BB : F.body("main").Blocks)
    for (const Instr *I : BB.Instrs)
      if (I->Op == Opcode::Call) {
        EXPECT_EQ(I->Dst, NoReg);
      }
}

TEST(Dce, LoopCarriedValuesStayLive) {
  HloFixture F({{"m", R"(
func main() {
  var acc = 0;
  var i = 0;
  while (i < 4) { acc = acc + 2; i = i + 1; }
  print acc;
  return 0;
}
)"}});
  uint64_t Before = F.interpret();
  runDce(F.P, F.body("main"), F.Stats);
  EXPECT_EQ(F.interpret(), Before);
}

namespace {

/// Hand-built IL for exact DCE counts: a body whose blocks are filled by the
/// test, over \p NumRegs registers.
struct IlBuilder {
  Program P;
  RoutineBody Body;
  Statistics Stats;

  IlBuilder(unsigned NumBlocks, uint32_t NumRegs) {
    Body.NextReg = NumRegs;
    for (unsigned B = 0; B != NumBlocks; ++B)
      Body.newBlock();
  }

  Instr *add(BlockId B, Opcode Op, RegId Dst = NoReg,
             Operand A = Operand::none(), Operand Bo = Operand::none()) {
    Instr *I = Body.newInstr(Op);
    I->Dst = Dst;
    I->A = A;
    I->B = Bo;
    Body.Blocks[B].Instrs.push_back(I);
    return I;
  }
  void jmp(BlockId B, BlockId T) { add(B, Opcode::Jmp)->T1 = T; }
  void ret(BlockId B) { add(B, Opcode::Ret, NoReg, Operand::imm(0)); }

  std::vector<Opcode> ops(BlockId B) const {
    std::vector<Opcode> Out;
    for (const Instr *I : Body.Blocks[B].Instrs)
      Out.push_back(I->Op);
    return Out;
  }
  bool hasCounter(const char *Name) const {
    return Stats.all().count(Name) != 0;
  }
};

Operand reg(RegId R) { return Operand::reg(R); }
Operand imm(int64_t V) { return Operand::imm(V); }

} // namespace

TEST(Dce, DeadChainAcrossBlocksNeedsASecondRun) {
  // b0: v0 = 1; v1 = v0 + 2; jmp b1
  // b1: v2 = v1 * 3; jmp b2
  // b2: ret 0
  // Liveness is solved before anything is removed, so v1 is still live out
  // of b0 on the first run. The second run finds b0's whole chain dead in
  // one backward walk.
  IlBuilder F(3, 3);
  F.add(0, Opcode::Mov, 0, imm(1));
  F.add(0, Opcode::Add, 1, reg(0), imm(2));
  F.jmp(0, 1);
  F.add(1, Opcode::Mul, 2, reg(1), imm(3));
  F.jmp(1, 2);
  F.ret(2);
  EXPECT_TRUE(runDce(F.P, F.Body, F.Stats));
  EXPECT_EQ(F.Stats.get("dce.instrs"), 1u);
  EXPECT_EQ(F.ops(1), std::vector<Opcode>{Opcode::Jmp});
  EXPECT_EQ(F.ops(0), (std::vector<Opcode>{Opcode::Mov, Opcode::Add,
                                           Opcode::Jmp}));
  EXPECT_TRUE(runDce(F.P, F.Body, F.Stats));
  EXPECT_EQ(F.Stats.get("dce.instrs"), 3u);
  EXPECT_EQ(F.ops(0), std::vector<Opcode>{Opcode::Jmp});
  EXPECT_FALSE(runDce(F.P, F.Body, F.Stats));
  EXPECT_EQ(F.Stats.get("dce.instrs"), 3u);
  EXPECT_FALSE(F.hasCounter("dce.nops"));
  EXPECT_FALSE(F.hasCounter("dce.call_results"));
}

TEST(Dce, LoopCarriedValueKeptDeadLoopTempRemoved) {
  // b0: v0 = 0; v1 = 0; jmp b1
  // b1: v2 = v1 < 4; br v2, b2, b3
  // b2: v0 = v0 + 2; v3 = v1 * 7; v1 = v1 + 1; jmp b1
  // b3: print v0; ret 0
  IlBuilder F(4, 4);
  F.add(0, Opcode::Mov, 0, imm(0));
  F.add(0, Opcode::Mov, 1, imm(0));
  F.jmp(0, 1);
  F.add(1, Opcode::CmpLt, 2, reg(1), imm(4));
  Instr *Br = F.add(1, Opcode::Br, NoReg, reg(2));
  Br->T1 = 2;
  Br->T2 = 3;
  F.add(2, Opcode::Add, 0, reg(0), imm(2));
  F.add(2, Opcode::Mul, 3, reg(1), imm(7));
  F.add(2, Opcode::Add, 1, reg(1), imm(1));
  F.jmp(2, 1);
  F.add(3, Opcode::Print, NoReg, reg(0));
  F.ret(3);
  EXPECT_TRUE(runDce(F.P, F.Body, F.Stats));
  EXPECT_EQ(F.Stats.get("dce.instrs"), 1u);
  EXPECT_EQ(F.ops(2),
            (std::vector<Opcode>{Opcode::Add, Opcode::Add, Opcode::Jmp}));
  EXPECT_EQ(F.ops(0),
            (std::vector<Opcode>{Opcode::Mov, Opcode::Mov, Opcode::Jmp}));
  EXPECT_FALSE(runDce(F.P, F.Body, F.Stats));
  EXPECT_EQ(F.Stats.get("dce.instrs"), 1u);
}

TEST(Dce, CallWithDeadResultKeepsTheCall) {
  // b0: v0 = call 0(); v1 = v0 + 1; ret 0
  IlBuilder F(1, 2);
  Instr *Call = F.add(0, Opcode::Call, 0);
  Call->Sym = 0;
  F.add(0, Opcode::Add, 1, reg(0), imm(1));
  F.ret(0);
  EXPECT_TRUE(runDce(F.P, F.Body, F.Stats));
  // The add dies first (walk is backwards), which leaves the call result
  // dead in the same walk.
  EXPECT_EQ(F.Stats.get("dce.instrs"), 1u);
  EXPECT_EQ(F.Stats.get("dce.call_results"), 1u);
  EXPECT_EQ(F.ops(0), (std::vector<Opcode>{Opcode::Call, Opcode::Ret}));
  EXPECT_EQ(Call->Dst, NoReg);
  EXPECT_FALSE(runDce(F.P, F.Body, F.Stats));
  EXPECT_EQ(F.Stats.get("dce.call_results"), 1u);
  EXPECT_FALSE(F.hasCounter("dce.nops"));
}

TEST(Dce, RemovesNopsAndKeepsOrder) {
  // b0: nop; v0 = 4; v0 = 5; nop; print v0; nop; ret 0
  // The first def of v0 is overwritten before any use.
  IlBuilder F(1, 1);
  F.add(0, Opcode::Nop);
  F.add(0, Opcode::Mov, 0, imm(4));
  F.add(0, Opcode::Mov, 0, imm(5));
  F.add(0, Opcode::Nop);
  F.add(0, Opcode::Print, NoReg, reg(0));
  F.add(0, Opcode::Nop);
  F.ret(0);
  EXPECT_TRUE(runDce(F.P, F.Body, F.Stats));
  EXPECT_EQ(F.Stats.get("dce.nops"), 3u);
  EXPECT_EQ(F.Stats.get("dce.instrs"), 1u);
  EXPECT_EQ(F.ops(0),
            (std::vector<Opcode>{Opcode::Mov, Opcode::Print, Opcode::Ret}));
  EXPECT_EQ(F.Body.Blocks[0].Instrs[0]->A.asImm(), 5);
  EXPECT_FALSE(F.hasCounter("dce.call_results"));
}

//===----------------------------------------------------------------------===//
// Inliner
//===----------------------------------------------------------------------===//

namespace {

// Each interprocedural phase in isolation, driven through the pipeline the
// driver runs: planHlo plans it over the whole set, runLtrans applies it.

/// Static-heuristic inlining; IPCP (which spends operations) stays off.
HloOptions inlineOnly() {
  HloOptions Opts;
  Opts.Pbo = false;
  Opts.EnableIpcp = false;
  return Opts;
}

/// IPCP alone: no profile, so no clones, and no inline rounds.
HloOptions ipcpOnly(bool WholeProgram) {
  HloOptions Opts;
  Opts.Pbo = false;
  Opts.WholeProgram = WholeProgram;
  Opts.Inline.Rounds = 0;
  return Opts;
}

/// Profile-driven cloning alone: no IPCP and no inline rounds, so the
/// planned clone is neither preempted nor inlined away.
HloOptions cloneOnly() {
  HloOptions Opts;
  Opts.EnableIpcp = false;
  Opts.Inline.Rounds = 0;
  return Opts;
}

const char *InlineSrc = R"(
global g;
func leaf(a, b) {
  if (a > b) { return a - b; }
  return b - a;
}
func mid(x) {
  g = g + x;
  return leaf(x, 10) * 2;
}
func main() {
  var s = 0;
  var i = 0;
  while (i < 20) {
    s = s + mid(i);
    i = i + 1;
  }
  print s;
  print g;
  return 0;
}
)";

} // namespace

TEST(Inliner, InlineCallSitePreservesBehaviour) {
  HloFixture F({{"m", InlineSrc}});
  uint64_t Before = F.interpret();
  // Inline leaf into mid at its (only) call site.
  RoutineBody &Mid = F.body("mid");
  BlockId B = InvalidId;
  uint32_t Idx = 0;
  for (BlockId BB = 0; BB != Mid.Blocks.size(); ++BB)
    for (uint32_t I = 0; I != Mid.Blocks[BB].Instrs.size(); ++I)
      if (Mid.Blocks[BB].Instrs[I]->Op == Opcode::Call) {
        B = BB;
        Idx = I;
      }
  ASSERT_NE(B, InvalidId);
  ASSERT_TRUE(inlineCallSite(F.P, Mid, F.body("leaf"), B, Idx));
  EXPECT_EQ(countOps(Mid, Opcode::Call), 0u);
  EXPECT_EQ(verifyRoutine(F.P, F.P.findRoutine("mid"), Mid), "");
  EXPECT_EQ(F.interpret(), Before);
}

TEST(Inliner, CollapsesStaticChains) {
  HloFixture F({{"m", InlineSrc}});
  uint64_t Before = F.interpret();
  std::vector<RoutineId> Set = F.allDefined();
  runHlo(*F.Ctx, Set, inlineOnly());
  EXPECT_GE(F.Stats.get("inline.sites"), 2u);
  EXPECT_EQ(countOps(F.body("main"), Opcode::Call), 0u);
  EXPECT_EQ(F.interpret(), Before);
  EXPECT_EQ(verifyProgram(F.P), "");
}

TEST(Inliner, RecursiveCalleesAreSkipped) {
  HloFixture F({{"m", R"(
func fact(n) {
  if (n < 2) { return 1; }
  return n * fact(n - 1);
}
func main() { print fact(6); return 0; }
)"}});
  uint64_t Before = F.interpret();
  std::vector<RoutineId> Set = F.allDefined();
  runHlo(*F.Ctx, Set, inlineOnly());
  // fact itself is recursive: calls to it stay put.
  EXPECT_GE(countOps(F.body("main"), Opcode::Call), 1u);
  EXPECT_EQ(F.interpret(), Before);
}

TEST(Inliner, RespectsOperationLimit) {
  HloFixture F({{"m", InlineSrc}});
  F.Ctx->OpLimit = 1;
  std::vector<RoutineId> Set = F.allDefined();
  runHlo(*F.Ctx, Set, inlineOnly());
  EXPECT_EQ(F.Stats.get("inline.sites"), 1u);
}

TEST(Inliner, IntraModuleOnlyModeSkipsCrossModuleSites) {
  HloFixture F({{"a", "func helper(x) { return x + 1; }\n"
                      "func local() { return helper(1); }"},
                {"b", "func main() { print helper(5); print local(); "
                      "return 0; }"}});
  std::vector<RoutineId> Set = F.allDefined();
  HloOptions Opts = inlineOnly();
  Opts.Inline.IntraModuleOnly = true;
  runHlo(*F.Ctx, Set, Opts);
  // b's cross-module calls survive; a's intra-module call was inlined.
  EXPECT_EQ(countOps(F.body("main"), Opcode::Call), 2u);
  EXPECT_EQ(countOps(F.body("local"), Opcode::Call), 0u);
}

TEST(Inliner, ScalesProfileCountsIntoTheCaller) {
  HloFixture F({{"m", InlineSrc}});
  // Attach a synthetic profile: mid called 20 times, leaf 20 times.
  RoutineBody &Mid = F.body("mid");
  RoutineBody &Leaf = F.body("leaf");
  Mid.HasProfile = true;
  for (BasicBlock &BB : Mid.Blocks)
    BB.Freq = 20;
  Leaf.HasProfile = true;
  Leaf.Blocks[0].Freq = 20;
  for (BlockId B = 1; B < Leaf.Blocks.size(); ++B)
    Leaf.Blocks[B].Freq = 10;
  BlockId B = InvalidId;
  uint32_t Idx = 0;
  for (BlockId BB = 0; BB != Mid.Blocks.size(); ++BB)
    for (uint32_t I = 0; I != Mid.Blocks[BB].Instrs.size(); ++I)
      if (Mid.Blocks[BB].Instrs[I]->Op == Opcode::Call) {
        B = BB;
        Idx = I;
      }
  ASSERT_TRUE(inlineCallSite(F.P, Mid, Leaf, B, Idx));
  // The copied entry block carries the scaled count (20 * 20/20 = 20) and
  // interior blocks 10 * 20/20 = 10.
  uint64_t SawTen = 0;
  for (const BasicBlock &BB : Mid.Blocks)
    if (BB.Freq == 10)
      ++SawTen;
  EXPECT_GE(SawTen, 1u);
}

//===----------------------------------------------------------------------===//
// IPCP
//===----------------------------------------------------------------------===//

TEST(Ipcp, PropagatesUniformConstants) {
  HloFixture F({{"m", R"(
func scaled(x, factor) { return x * factor; }
func main() {
  print scaled(3, 7);
  print scaled(4, 7);
  return 0;
}
)"}});
  uint64_t Before = F.interpret();
  std::vector<RoutineId> Set = F.allDefined();
  runHlo(*F.Ctx, Set, ipcpOnly(/*WholeProgram=*/true));
  EXPECT_EQ(F.Stats.get("ipcp.params_propagated"), 1u); // factor only.
  EXPECT_EQ(F.interpret(), Before);
}

TEST(Ipcp, MixedConstantsAreNotPropagated) {
  HloFixture F({{"m", R"(
func scaled(x, factor) { return x * factor; }
func main() {
  print scaled(3, 7);
  print scaled(4, 8);
  return 0;
}
)"}});
  std::vector<RoutineId> Set = F.allDefined();
  runHlo(*F.Ctx, Set, ipcpOnly(true));
  EXPECT_EQ(F.Stats.get("ipcp.params_propagated"), 0u);
}

TEST(Ipcp, ExternsNeedWholeProgramVisibility) {
  HloFixture F({{"m", R"(
func scaled(x) { return x * 2; }
func main() { print scaled(7); return 0; }
)"}});
  std::vector<RoutineId> Set = F.allDefined();
  runHlo(*F.Ctx, Set, ipcpOnly(/*WholeProgram=*/false));
  EXPECT_EQ(F.Stats.get("ipcp.params_propagated"), 0u);
}

//===----------------------------------------------------------------------===//
// Cloner
//===----------------------------------------------------------------------===//

TEST(Cloner, SpecializesHotConstantSites) {
  // A callee too big to inline but worth cloning for its constant argument.
  std::string Big = "func bulky(mode, x) {\n  var r = x;\n";
  for (int I = 0; I != 30; ++I)
    Big += "  r = r + x * " + std::to_string(I % 7) + ";\n";
  Big += R"(
  if (mode == 1) { r = r * 2; }
  return r;
}
func main() {
  var s = 0;
  var i = 0;
  while (i < 50) { s = s + bulky(1, i); i = i + 1; }
  print s;
  return 0;
}
)";
  HloFixture F({{"m", Big}});
  uint64_t Before = F.interpret();
  // Attach profile counts making the site hot.
  RoutineBody &Main = F.body("main");
  Main.HasProfile = true;
  for (BasicBlock &BB : Main.Blocks)
    BB.Freq = 50;
  F.body("bulky").HasProfile = true;
  F.body("bulky").Blocks[0].Freq = 50;
  std::vector<RoutineId> Set = F.allDefined();
  HloOptions Opts = cloneOnly();
  Opts.Clone.MinCalleeInstrs = 10;
  runHlo(*F.Ctx, Set, Opts);
  EXPECT_EQ(F.Stats.get("clone.created"), 1u);
  EXPECT_EQ(F.Stats.get("clone.sites_redirected"), 1u);
  EXPECT_EQ(Set.size(), F.allDefined().size()); // Clone joined the set.
  EXPECT_EQ(F.interpret(), Before);
  EXPECT_EQ(verifyProgram(F.P), "");
}

TEST(Cloner, NoProfileMeansNoClones) {
  HloFixture F({{"m", R"(
func f(k) { return k * 3; }
func main() { print f(7); return 0; }
)"}});
  std::vector<RoutineId> Set = F.allDefined();
  runHlo(*F.Ctx, Set, cloneOnly());
  EXPECT_EQ(F.Stats.get("clone.created"), 0u);
}

//===----------------------------------------------------------------------===//
// Selectivity
//===----------------------------------------------------------------------===//

TEST(Selectivity, ZeroPercentSelectsNothing) {
  HloFixture F({{"a", "func f(x) { return x; }"},
                {"b", "func main() { print f(1); return 0; }"}});
  SelectivityResult Res = applySelectivity(F.P, *F.L, 0.0);
  EXPECT_TRUE(Res.CmoModules.empty());
  EXPECT_EQ(Res.DefaultModules.size(), 2u);
  for (RoutineId R : F.allDefined())
    EXPECT_FALSE(F.P.routine(R).Selected);
}

TEST(Selectivity, HotSitesPullBothEndpointModules) {
  HloFixture F({{"a", "func f(x) { return x; }"},
                {"b", "func main() { print f(1); return 0; }"},
                {"c", "func unused(x) { return x; }"}});
  // Give the one site a count by attaching profile to main's block.
  RoutineBody &Main = F.body("main");
  Main.HasProfile = true;
  Main.Blocks[0].Freq = 100;
  SelectivityResult Res = applySelectivity(F.P, *F.L, 50.0);
  EXPECT_EQ(Res.CmoModules.size(), 2u); // a and b, not c.
  EXPECT_FALSE(F.P.module(2).InCmoSet);
  EXPECT_TRUE(F.P.routine(F.P.findRoutine("f")).Selected);
  EXPECT_FALSE(F.P.routine(F.P.findRoutine("unused")).Selected);
}

TEST(Selectivity, SelectEverythingFlagsAll) {
  HloFixture F({{"a", "func f(x) { return x; }"},
                {"b", "func main() { print f(1); return 0; }"}});
  SelectivityResult Res = selectEverything(F.P);
  EXPECT_EQ(Res.CmoModules.size(), 2u);
  for (RoutineId R : F.allDefined())
    EXPECT_TRUE(F.P.routine(R).Selected);
}

//===----------------------------------------------------------------------===//
// Whole pipeline invariants
//===----------------------------------------------------------------------===//

TEST(HloPipeline, RunHloPreservesBehaviourOnRandomPrograms) {
  for (uint64_t Seed : {3u, 14u, 159u, 265u}) {
    WorkloadParams Params;
    Params.Seed = Seed;
    Params.NumModules = 3;
    Params.ColdRoutinesPerModule = 3;
    Params.HotRoutines = 4;
    Params.OuterIterations = 50;
    GeneratedProgram GP = generateProgram(Params);
    HloFixture F({});
    for (const GeneratedModule &GM : GP.Modules) {
      FrontendResult FR = compileSource(F.P, GM.Name, GM.Source);
      ASSERT_TRUE(FR.Ok) << FR.Error;
    }
    uint64_t Before = F.interpret();
    std::vector<RoutineId> Set = F.allDefined();
    selectEverything(F.P);
    HloOptions Opts;
    Opts.Pbo = false;
    runHlo(*F.Ctx, Set, Opts);
    EXPECT_EQ(verifyProgram(F.P), "") << "seed " << Seed;
    EXPECT_EQ(F.interpret(), Before) << "seed " << Seed;
  }
}

TEST(HloPipeline, DeadStaticsAreDropped) {
  HloFixture F({{"m", R"(
static func once(x) { return x + 1; }
func main() { print once(1); return 0; }
)"}});
  std::vector<RoutineId> Set = F.allDefined();
  selectEverything(F.P);
  HloOptions Opts;
  Opts.Pbo = false;
  runHlo(*F.Ctx, Set, Opts);
  // 'once' was inlined into main (called-once static) and is unreachable.
  RoutineId Once = F.P.findRoutineInModule(0, "once");
  ASSERT_NE(Once, InvalidId);
  EXPECT_FALSE(F.P.routine(Once).Emit);
  EXPECT_TRUE(F.P.routine(F.P.findRoutine("main")).Emit);
}

//===----------------------------------------------------------------------===//
// WPA snapshots
//===----------------------------------------------------------------------===//

TEST(Wpa, CompactSnapshotsRoundTripOutsideTheNaimBudget) {
  // A tight budget with spilling on: parked pools compact and offload
  // throughout planning. A zero compact budget spills every parked pool, so
  // any HloCompact byte left behind by planning would be plan state the
  // loader can never evict. Offloaded callees become record references,
  // the rest compact bytes; both kinds must decode to the planned body.
  GeneratedProgram GP = generateProgram(mcadLikeParams(20000, 1));
  MemoryTracker Tracker;
  Program P(&Tracker);
  for (const GeneratedModule &GM : GP.Modules) {
    FrontendResult FR = compileSource(P, GM.Name, GM.Source);
    ASSERT_TRUE(FR.Ok) << FR.Error;
  }
  NaimConfig C;
  C.Mode = NaimMode::Offload;
  C.ExpandedCacheBytes = 256 << 10;
  C.CompactResidentBytes = 0;
  Loader L(P, C);
  Statistics Stats;
  HloContext Ctx(P, L, Stats);
  std::vector<RoutineId> Set;
  std::map<RoutineId, std::string> Before;
  for (RoutineId R = 0; R != P.numRoutines(); ++R) {
    if (!P.routine(R).IsDefined)
      continue;
    Set.push_back(R);
    Before[R] = printRoutine(P, R, L.acquireRead(R));
    L.release(R);
  }
  selectEverything(P);
  uint64_t CompactBefore = Tracker.liveBytes(MemCategory::HloCompact);
  HloOptions Opts;
  Opts.Pbo = false;
  auto Plan = std::make_unique<HloPlan>(planHlo(Ctx, Set, Opts));
  EXPECT_EQ(Tracker.liveBytes(MemCategory::HloCompact), CompactBefore);
  ASSERT_GT(Plan->Snapshots.size(), 10u) << "too few inlines to test";

  uint64_t Bytes = 0, Charged = 0, Records = 0, InMemory = 0;
  for (const auto &[R, Snap] : Plan->Snapshots) {
    std::unique_ptr<RoutineBody> Body = L.expandSnapshot(R, Snap);
    ASSERT_TRUE(Body) << P.displayName(R);
    EXPECT_EQ(printRoutine(P, R, *Body), Before.at(R)) << P.displayName(R);
    if (Snap.isRecord()) {
      EXPECT_TRUE(Snap.Bytes.empty()) << P.displayName(R);
      ++Records;
      continue;
    }
    ++InMemory;
    Bytes += Snap.Bytes.size();
    Charged += Snap.Bytes.bytes().capacity(); // What TrackedBuffer charges.
  }
  EXPECT_TRUE(L.firstError().ok()) << L.firstError().toString();
  EXPECT_GT(Records, 0u) << "no offloaded callee was referenced";
  EXPECT_GT(InMemory, 0u) << "no resident callee was snapshotted";
  EXPECT_EQ(Stats.get("wpa.snapshot_bytes"), Bytes);
  EXPECT_EQ(Stats.get("wpa.snapshot_refs"), Records);
  uint64_t IrWithPlan = Tracker.liveBytes(MemCategory::HloIr);
  Plan.reset();
  EXPECT_EQ(IrWithPlan - Tracker.liveBytes(MemCategory::HloIr), Charged);
}

TEST(Wpa, PlanningExpandsNoParkedCallee) {
  // Every pool is parked before planning: offloaded under Offload, compact
  // under CompactIr. Snapshotting them must neither expand nor re-compact
  // anything, and LTRANS must rebuild from the snapshots exactly the IL a
  // build with every body resident produces.
  GeneratedProgram GP = generateProgram(mcadLikeParams(8000, 3));
  auto Optimized = [&GP](NaimMode Mode, uint64_t *Expansions,
                         uint64_t *Compactions, uint64_t *Refs) {
    MemoryTracker Tracker; // The offload budget is measured against it.
    Program P(&Tracker);
    for (const GeneratedModule &GM : GP.Modules) {
      FrontendResult FR = compileSource(P, GM.Name, GM.Source);
      EXPECT_TRUE(FR.Ok) << FR.Error;
    }
    NaimConfig C;
    C.Mode = Mode;
    C.ExpandedCacheBytes = 0;
    C.CompactResidentBytes = Mode == NaimMode::Offload ? 0 : 64ull << 20;
    Loader L(P, C);
    Statistics Stats;
    HloContext Ctx(P, L, Stats);
    std::vector<RoutineId> Set;
    for (RoutineId R = 0; R != P.numRoutines(); ++R)
      if (P.routine(R).IsDefined)
        Set.push_back(R);
    L.releaseAll();
    selectEverything(P);
    HloOptions Opts;
    Opts.Pbo = false;
    LoaderStats Start = L.stats();
    HloPlan Plan = planHlo(Ctx, Set, Opts);
    LoaderStats Planned = L.stats();
    *Expansions = Planned.Expansions - Start.Expansions;
    *Compactions = Planned.Compactions - Start.Compactions;
    *Refs = Stats.get("wpa.snapshot_refs");
    EXPECT_GT(Plan.Snapshots.size(), 10u) << "too few inlines to test";
    std::sort(Set.begin(), Set.end());
    EXPECT_EQ(runLtrans(Ctx, Set, &Plan, /*Verify=*/true), "");
    EXPECT_TRUE(L.firstError().ok()) << L.firstError().toString();
    std::string Il;
    for (RoutineId R : Set) {
      if (!P.routine(R).IsDefined || !P.routine(R).Emit)
        continue;
      Il += printRoutine(P, R, L.acquireRead(R));
      L.release(R);
    }
    return Il;
  };
  uint64_t Expansions = 0, Compactions = 0, Refs = 0;
  std::string Resident =
      Optimized(NaimMode::Off, &Expansions, &Compactions, &Refs);
  EXPECT_EQ(Refs, 0u);
  for (NaimMode Mode : {NaimMode::Offload, NaimMode::CompactIr}) {
    std::string Parked = Optimized(Mode, &Expansions, &Compactions, &Refs);
    EXPECT_EQ(Expansions, 0u) << int(Mode);
    EXPECT_EQ(Compactions, 0u) << int(Mode);
    if (Mode == NaimMode::Offload)
      EXPECT_GT(Refs, 0u);
    else
      EXPECT_EQ(Refs, 0u);
    EXPECT_EQ(Parked, Resident) << int(Mode);
  }
}

TEST(Ltrans, EveryTransformedBodyIsRepackedToItsLiveSize) {
  // NaimMode::Off never compacts, so LTRANS's repack is the only thing
  // that reclaims the instructions inlining copied in and cleanup deleted.
  GeneratedProgram GP = generateProgram(mcadLikeParams(8000, 3));
  MemoryTracker Tracker;
  Program P(&Tracker);
  for (const GeneratedModule &GM : GP.Modules) {
    FrontendResult FR = compileSource(P, GM.Name, GM.Source);
    ASSERT_TRUE(FR.Ok) << FR.Error;
  }
  NaimConfig C;
  C.Mode = NaimMode::Off;
  Loader L(P, C);
  Statistics Stats;
  HloContext Ctx(P, L, Stats);
  std::vector<RoutineId> Set;
  for (RoutineId R = 0; R != P.numRoutines(); ++R)
    if (P.routine(R).IsDefined)
      Set.push_back(R);
  selectEverything(P);
  HloOptions Opts;
  Opts.Pbo = false;
  HloPlan Plan = planHlo(Ctx, Set, Opts);
  std::sort(Set.begin(), Set.end());
  ASSERT_EQ(runLtrans(Ctx, Set, &Plan, /*Verify=*/true), "");
  EXPECT_GT(Stats.get("hlo.reclaimed_bytes"), 0u);
  unsigned Checked = 0;
  for (RoutineId R = 0; R != P.numRoutines(); ++R) {
    const RoutineInfo &RI = P.routine(R);
    if (!RI.IsDefined || !RI.Emit || !RI.Selected)
      continue;
    const RoutineBody &Body = L.acquireRead(R);
    uint64_t Live = 0;
    for (const BasicBlock &BB : Body.Blocks)
      for (const Instr *I : BB.Instrs)
        Live += sizeof(Instr) + I->NumArgs * sizeof(Operand);
    EXPECT_EQ(Body.irBytes(), Live) << P.displayName(R);
    L.release(R);
    ++Checked;
  }
  EXPECT_GT(Checked, 50u);
}
