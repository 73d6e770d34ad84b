//===- tests/LloVmTests.cpp -----------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LLO code generation and the VM: machine-level correctness (including the
/// calling convention and callee-save discipline), cost-model behaviour, and
/// machine-code structural invariants.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "frontend/Frontend.h"
#include "llo/Codegen.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

using namespace scmo;
using namespace scmo::test;

namespace {

/// Builds + runs at a given LLO configuration, through the driver.
RunResult runWith(const std::string &Src, OptLevel Level) {
  CompileOptions Opts;
  Opts.Level = Level;
  return buildAndRun({{"m", Src}}, Opts);
}

/// Structural verifier over one machine routine: all targets in range,
/// every path ends in control flow, spill slots within the frame.
void verifyMachine(const MachineRoutine &MR, size_t NumRoutines,
                   size_t NumGlobals) {
  std::vector<MInstr> Code = decodeMachine(MR);
  ASSERT_FALSE(Code.empty());
  ASSERT_EQ(Code.size(), MR.NumInstrs);
  for (const MInstr &I : Code) {
    switch (I.Op) {
    case MOp::Jmp:
    case MOp::Br:
    case MOp::Brz:
      EXPECT_LT(I.Target, Code.size());
      break;
    case MOp::Call:
      EXPECT_LT(I.Sym, NumRoutines);
      break;
    case MOp::LoadG:
    case MOp::StoreG:
    case MOp::LoadIdx:
    case MOp::StoreIdx:
      EXPECT_LT(I.Sym, NumGlobals);
      break;
    case MOp::LoadSpill:
    case MOp::StoreSpill:
      EXPECT_LT(I.Slot, MR.SpillSlots);
      break;
    default:
      break;
    }
    if (I.Op != MOp::Nop) {
      EXPECT_LT(I.Rd, NumPhysRegs);
      if (!I.A.IsImm) {
        EXPECT_LT(I.A.Reg, NumPhysRegs);
      }
      if (!I.B.IsImm) {
        EXPECT_LT(I.B.Reg, NumPhysRegs);
      }
    }
  }
  // The last instruction must be a control transfer (no fall-off).
  MOp Last = Code.back().Op;
  EXPECT_TRUE(Last == MOp::Ret || Last == MOp::Jmp || Last == MOp::Br ||
              Last == MOp::Brz);
}

} // namespace

//===----------------------------------------------------------------------===//
// Semantics through the full machine path
//===----------------------------------------------------------------------===//

TEST(Vm, ArithmeticEdgeCases) {
  auto Out = runWith(R"(
func main() {
  var z = 0;
  var minish = 0 - 9223372036854775807 - 1;
  print 7 / z;
  print 7 % z;
  print minish / (0 - 1);
  print minish % (0 - 1);
  print minish - 1;
  return 0;
}
)",
                     OptLevel::O2);
  ASSERT_EQ(Out.FirstOutputs.size(), 5u);
  EXPECT_EQ(Out.FirstOutputs[0], 0);
  EXPECT_EQ(Out.FirstOutputs[1], 0);
  EXPECT_EQ(Out.FirstOutputs[2], std::numeric_limits<int64_t>::min());
  EXPECT_EQ(Out.FirstOutputs[3], 0);
  EXPECT_EQ(Out.FirstOutputs[4], std::numeric_limits<int64_t>::max());
}

TEST(Vm, ArrayIndexWrapping) {
  auto Out = runWith(R"(
global a[10];
func main() {
  a[3] = 33;
  print a[3];
  print a[13];        // wraps to 3
  print a[0 - 7];     // wraps to 3
  return 0;
}
)",
                     OptLevel::O2);
  EXPECT_EQ(Out.FirstOutputs, (std::vector<int64_t>{33, 33, 33}));
}

TEST(Vm, DeepRecursionUsesFrames) {
  auto Out = runWith(R"(
func down(n) {
  if (n == 0) { return 0; }
  return down(n - 1) + 1;
}
func main() { print down(5000); return 0; }
)",
                     OptLevel::O2);
  EXPECT_EQ(Out.FirstOutputs, (std::vector<int64_t>{5000}));
}

TEST(Vm, EightParametersArriveIntact) {
  auto Out = runWith(R"(
func sum8(a, b, c, d, e, f, g, h) {
  return a + b * 10 + c * 100 + d * 1000 + e * 10000 + f * 100000
       + g * 1000000 + h * 10000000;
}
func main() { print sum8(1, 2, 3, 4, 5, 6, 7, 8); return 0; }
)",
                     OptLevel::O2);
  EXPECT_EQ(Out.FirstOutputs, (std::vector<int64_t>{87654321}));
}

TEST(Vm, ValuesSurviveAcrossCalls) {
  // The regression scenario behind the callee-save bug: many values live
  // across a call at the very start of the routine.
  auto Out = runWith(R"(
func noisy(x) { return x * 3; }
func f(p, q, r) {
  var n = noisy(1);
  return p * 1000000 + q * 1000 + r + n;
}
func main() { print f(1, 2, 3); return 0; }
)",
                     OptLevel::O2);
  EXPECT_EQ(Out.FirstOutputs, (std::vector<int64_t>{1002006}));
}

TEST(Vm, HighRegisterPressureIsCorrect) {
  // More simultaneously-live values than physical registers forces spills;
  // results must be unaffected.
  std::string Src = "func main() {\n";
  for (int I = 0; I != 40; ++I)
    Src += "  var v" + std::to_string(I) + " = " + std::to_string(I * 3 + 1) +
           ";\n";
  Src += "  var sum = 0;\n";
  for (int I = 0; I != 40; ++I)
    Src += "  sum = sum + v" + std::to_string(I) + ";\n";
  Src += "  print sum;\n  return 0;\n}\n";
  int64_t Expected = 0;
  for (int I = 0; I != 40; ++I)
    Expected += I * 3 + 1;
  for (OptLevel Level : {OptLevel::O1, OptLevel::O2}) {
    auto Out = runWith(Src, Level);
    EXPECT_EQ(Out.FirstOutputs, (std::vector<int64_t>{Expected}));
  }
}

TEST(Vm, PressureAcrossCallsIsCorrect) {
  std::string Src = "func id(x) { return x; }\nfunc main() {\n";
  for (int I = 0; I != 30; ++I)
    Src += "  var v" + std::to_string(I) + " = " + std::to_string(I + 1) +
           ";\n";
  Src += "  var mid = id(999);\n  var sum = mid;\n";
  for (int I = 0; I != 30; ++I)
    Src += "  sum = sum + v" + std::to_string(I) + ";\n";
  Src += "  print sum;\n  return 0;\n}\n";
  auto Out = runWith(Src, OptLevel::O2);
  EXPECT_EQ(Out.FirstOutputs, (std::vector<int64_t>{999 + 30 * 31 / 2}));
}

//===----------------------------------------------------------------------===//
// Cost model behaviour
//===----------------------------------------------------------------------===//

TEST(CostModel, O2BeatsO1) {
  const char *Src = R"(
func work(n) {
  var s = 0;
  var i = 0;
  while (i < n) { s = s + i * 3; i = i + 1; }
  return s;
}
func main() { print work(5000); return 0; }
)";
  RunResult O1 = runWith(Src, OptLevel::O1);
  RunResult O2 = runWith(Src, OptLevel::O2);
  EXPECT_EQ(O1.OutputChecksum, O2.OutputChecksum);
  EXPECT_LT(O2.Cycles, O1.Cycles);
  EXPECT_LT(O2.Instructions, O1.Instructions); // Fewer spill reloads.
}

TEST(CostModel, SchedulingReducesLoadStalls) {
  const char *Src = R"(
global a[64];
global b[64];
func main() {
  var i = 0;
  var s = 0;
  while (i < 2000) {
    s = s + a[i] + b[i] + a[i + 1] + b[i + 1];
    i = i + 1;
  }
  print s;
  return 0;
}
)";
  // Same program with/without the scheduler (all else equal).
  GeneratedProgram GP;
  GP.Modules.push_back({"m", Src, 0});
  auto cyclesWith = [&](bool Schedule) {
    Program P;
    FrontendResult FR = compileSource(P, "m", Src);
    EXPECT_TRUE(FR.Ok);
    LloOptions LOpts;
    LOpts.Schedule = Schedule;
    LOpts.ProfileLayout = false;
    std::vector<MachineRoutine> Machines;
    for (RoutineId R = 0; R != P.numRoutines(); ++R)
      if (P.routine(R).IsDefined)
        Machines.push_back(lowerRoutine(P, R, P.body(R), LOpts));
    LinkOptions Link;
    std::string Err;
    Executable Exe = linkProgram(P, std::move(Machines), Link, Err);
    EXPECT_TRUE(Err.empty()) << Err;
    RunResult Run = runExecutable(Exe);
    EXPECT_TRUE(Run.Ok) << Run.Error;
    return std::make_pair(Run.Cycles, Run.LoadStalls);
  };
  auto [CyclesOn, StallsOn] = cyclesWith(true);
  auto [CyclesOff, StallsOff] = cyclesWith(false);
  EXPECT_LE(StallsOn, StallsOff);
  EXPECT_LE(CyclesOn, CyclesOff);
}

TEST(CostModel, ProfileLayoutReducesTakenBranches) {
  // Rare-then / common-else: naive layout pays a taken branch on the common
  // path; profile layout flips it.
  const char *Src = R"(
global acc;
func main() {
  var i = 0;
  while (i < 3000) {
    if (i % 64 == 0) { acc = acc + 2; } else { acc = acc + 1; }
    i = i + 1;
  }
  print acc;
  return 0;
}
)";
  GeneratedProgram GP;
  GP.Modules.push_back({"m", Src, 0});
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  CompileOptions NoPbo;
  NoPbo.Level = OptLevel::O2;
  RunResult Plain = buildAndRun({{"m", Src}}, NoPbo);
  CompileOptions Pbo;
  Pbo.Level = OptLevel::O2;
  Pbo.Pbo = true;
  RunResult Guided = buildAndRun({{"m", Src}}, Pbo, &Db);
  EXPECT_EQ(Plain.OutputChecksum, Guided.OutputChecksum);
  EXPECT_LT(Guided.TakenBranches, Plain.TakenBranches);
}

//===----------------------------------------------------------------------===//
// Machine code structure
//===----------------------------------------------------------------------===//

TEST(Codegen, MachineRoutinesAreStructurallyValid) {
  for (uint64_t Seed : {1u, 2u, 3u}) {
    WorkloadParams Params;
    Params.Seed = Seed;
    Params.NumModules = 2;
    Params.ColdRoutinesPerModule = 4;
    Params.HotRoutines = 3;
    Params.OuterIterations = 10;
    GeneratedProgram GP = generateProgram(Params);
    Program P;
    for (const GeneratedModule &GM : GP.Modules) {
      FrontendResult FR = compileSource(P, GM.Name, GM.Source);
      ASSERT_TRUE(FR.Ok) << FR.Error;
    }
    for (bool RegAlloc : {false, true}) {
      LloOptions LOpts;
      LOpts.RegAlloc = RegAlloc;
      for (RoutineId R = 0; R != P.numRoutines(); ++R) {
        if (!P.routine(R).IsDefined)
          continue;
        MachineRoutine MR = lowerRoutine(P, R, P.body(R), LOpts);
        verifyMachine(MR, P.numRoutines(), P.numGlobals());
      }
    }
  }
}

TEST(Codegen, ChargesTransientLloMemory) {
  MemoryTracker T;
  Program P(&T);
  FrontendResult FR = compileSource(P, "m", R"(
func big(a, b) {
  var s = a;
  var i = 0;
  while (i < 10) { s = s + b * i; i = i + 1; }
  return s;
}
func main() { return big(1, 2); }
)");
  ASSERT_TRUE(FR.Ok);
  LloStats Stats;
  lowerRoutine(P, P.findRoutine("big"), P.body(P.findRoutine("big")),
               LloOptions(), &Stats);
  EXPECT_GT(Stats.PeakRoutineBytes, 0u);
  // Transient: everything released after lowering.
  EXPECT_EQ(T.liveBytes(MemCategory::Llo), 0u);
}

TEST(Codegen, PeakRoutineBytesIsTheLargestLiveCharge) {
  // One block of code (the frontend's implicit-return block after it holds
  // only a `ret`), so scheduling regions are the runs between control
  // instructions and block starts; the call splits the body into two
  // regions. Each region's DAG charge is released when the region ends, so
  // the routine's peak is the unscheduled charge plus the largest region's
  // DAG, not their sum.
  MemoryTracker T;
  Program P(&T);
  FrontendResult FR = compileSource(P, "m", R"(
func g(v) { return v; }
func two(a, b) {
  var x = a + b;
  var y = x * a;
  var z = y - b;
  var w = z * x;
  print w + y;
  var r = g(w);
  var s = r + a;
  var t = s * b;
  var u = t - s;
  print u * r;
  return u + t;
}
func main() { return two(1, 2); }
)");
  ASSERT_TRUE(FR.Ok) << FR.Error;
  RoutineId F = P.findRoutine("two");
  for (size_t B = 1; B != P.body(F).Blocks.size(); ++B)
    ASSERT_EQ(P.body(F).Blocks[B].Instrs.size(), 1u);

  LloOptions NoSched;
  NoSched.Schedule = false;
  LloStats Base;
  lowerRoutine(P, F, P.body(F), NoSched, &Base);
  LloStats Stats;
  MachineRoutine MR = lowerRoutine(P, F, P.body(F), LloOptions(), &Stats);

  // Region boundaries: control instructions and block starts. Block 0
  // starts at 0 and the implicit-return block right after the first ret.
  uint64_t MaxDag = 0, SumDag = 0;
  unsigned Regions = 0;
  size_t Begin = 0;
  std::vector<MInstr> Code = decodeMachine(MR);
  size_t FirstRet = 0;
  while (FirstRet != Code.size() && Code[FirstRet].Op != MOp::Ret)
    ++FirstRet;
  for (size_t Idx = 0; Idx <= Code.size(); ++Idx) {
    MOp Op = Idx == Code.size() ? MOp::Ret : Code[Idx].Op;
    bool BlockStart = Idx == 0 || Idx == FirstRet + 1;
    if (!BlockStart && Op != MOp::Call && Op != MOp::Ret && Op != MOp::Jmp &&
        Op != MOp::Br && Op != MOp::Brz && Op != MOp::Halt)
      continue;
    uint64_t N = Idx - Begin;
    if (N > 2) {
      uint64_t Dag = N * N / 8 + N * 16;
      MaxDag = std::max(MaxDag, Dag);
      SumDag += Dag;
      ++Regions;
    }
    Begin = Idx + 1;
  }
  ASSERT_GE(Regions, 2u);
  EXPECT_EQ(Stats.PeakRoutineBytes, Base.PeakRoutineBytes + MaxDag);
  EXPECT_LT(Stats.PeakRoutineBytes, Base.PeakRoutineBytes + SumDag);
  // The tracker saw the same peak, and everything came back.
  EXPECT_EQ(T.peakBytes(MemCategory::Llo), Stats.PeakRoutineBytes);
  EXPECT_EQ(T.liveBytes(MemCategory::Llo), 0u);
}

TEST(Codegen, ScratchFromAnEarlierRoutineDoesNotLeak) {
  // LLO keeps its buffers for the life of the thread. `hot` wraps its cold
  // call (twelve loop values live across it, ten callee-save registers);
  // `plain` lowered without register allocation right after it must come
  // out exactly as after a routine with no wraps.
  std::string Src = "func cold(x) { return x + 1; }\nfunc hot(n) {\n";
  for (int I = 0; I != 12; ++I)
    Src += "  var v" + std::to_string(I) + " = n + " + std::to_string(I) +
           ";\n";
  Src += "  var s = 0;\n  var i = 0;\n  while (i < n) {\n";
  for (int I = 0; I != 12; ++I) {
    std::string V = "v" + std::to_string(I);
    Src += "    s = s + " + V + " * " + V + " - " + V + " + " + V + " * " +
           V + ";\n";
  }
  Src += "    if (s == 12345) { s = cold(s); }\n    i = i + 1;\n  }\n";
  Src += "  return s";
  for (int I = 0; I != 12; ++I)
    Src += " + v" + std::to_string(I);
  Src += ";\n}\n";
  Src += "func plain(a) { var b = cold(a); var c = cold(b); return b + c; }\n";
  Src += "func main() { print hot(3); return plain(1); }\n";
  Program P;
  FrontendResult FR = compileSource(P, "m", Src);
  ASSERT_TRUE(FR.Ok) << FR.Error;
  RoutineId Hot = P.findRoutine("hot"), Plain = P.findRoutine("plain"),
            Cold = P.findRoutine("cold");

  // A wrap restores a caller-save register (r3..r13) right after the call.
  std::vector<MInstr> HotCode =
      decodeMachine(lowerRoutine(P, Hot, P.body(Hot), LloOptions()));
  bool Wraps = false;
  for (size_t I = 1; I < HotCode.size(); ++I)
    Wraps |= HotCode[I - 1].Op == MOp::Call &&
             HotCode[I].Op == MOp::LoadSpill && HotCode[I].Rd >= 3 &&
             HotCode[I].Rd <= 13;
  ASSERT_TRUE(Wraps) << "hot no longer wraps a call";

  LloOptions SpillAll;
  SpillAll.RegAlloc = false;
  SpillAll.Schedule = false;
  SpillAll.ProfileLayout = false;
  lowerRoutine(P, Cold, P.body(Cold), LloOptions());
  MachineRoutine Fresh = lowerRoutine(P, Plain, P.body(Plain), SpillAll);
  lowerRoutine(P, Hot, P.body(Hot), LloOptions());
  MachineRoutine AfterWraps = lowerRoutine(P, Plain, P.body(Plain), SpillAll);
  EXPECT_EQ(AfterWraps.Code, Fresh.Code);
  EXPECT_EQ(AfterWraps.NumInstrs, Fresh.NumInstrs);
  EXPECT_EQ(AfterWraps.SpillSlots, Fresh.SpillSlots);
}

TEST(Codegen, O1SpillsEverything) {
  Program P;
  FrontendResult FR = compileSource(P, "m", R"(
func f(a, b) { var c = a + b; return c * 2; }
func main() { return f(1, 2); }
)");
  ASSERT_TRUE(FR.Ok);
  LloOptions LOpts;
  LOpts.RegAlloc = false;
  LloStats Stats;
  RoutineId F = P.findRoutine("f");
  MachineRoutine MR = lowerRoutine(P, F, P.body(F), LOpts, &Stats);
  EXPECT_EQ(MR.SpillSlots, P.body(F).NextReg);
  EXPECT_GT(Stats.SpillsAllocated, 0u);
}

//===----------------------------------------------------------------------===//
// VM safety limits
//===----------------------------------------------------------------------===//

TEST(VmLimits, StepLimitStopsRunawayPrograms) {
  CompileOptions Opts;
  CompilerSession Session(Opts);
  ASSERT_TRUE(Session.addSource("m", R"(
func main() {
  var i = 1;
  while (i > 0) { i = i + 1; }
  return 0;
}
)"));
  BuildResult Build = Session.build();
  ASSERT_TRUE(Build.Ok) << Build.Error;
  VmConfig Cfg;
  Cfg.MaxSteps = 10000;
  RunResult Run = runExecutable(Build.Exe, Cfg);
  EXPECT_FALSE(Run.Ok);
  EXPECT_NE(Run.Error.find("step limit"), std::string::npos);
}

TEST(VmLimits, UnboundedRecursionHitsTheFrameGuard) {
  CompileOptions Opts;
  Opts.Level = OptLevel::O1; // Keep the self-call un-optimized.
  CompilerSession Session(Opts);
  ASSERT_TRUE(Session.addSource("m", R"(
func forever(n) { return forever(n + 1); }
func main() { return forever(0); }
)"));
  BuildResult Build = Session.build();
  ASSERT_TRUE(Build.Ok) << Build.Error;
  VmConfig Cfg;
  Cfg.MaxStackFrames = 1000;
  RunResult Run = runExecutable(Build.Exe, Cfg);
  EXPECT_FALSE(Run.Ok);
  EXPECT_NE(Run.Error.find("stack overflow"), std::string::npos);
}

TEST(VmLimits, EmptyExecutableIsRejected) {
  Executable Exe;
  RunResult Run = runExecutable(Exe);
  EXPECT_FALSE(Run.Ok);
}

//===----------------------------------------------------------------------===//
// LLO kernels against their reference algorithms
//===----------------------------------------------------------------------===//

namespace {

/// The loop-depth algorithm LLO used before its epoch-stamped walk: one
/// fresh membership vector and one full block scan per back edge.
std::vector<uint32_t> referenceLoopDepths(const RoutineBody &Body) {
  size_t NumBlocks = Body.Blocks.size();
  std::vector<uint32_t> Depth(NumBlocks, 0);
  if (NumBlocks == 0)
    return Depth;
  auto successors = [&](BlockId B, BlockId Out[2]) -> unsigned {
    const Instr *Term = Body.Blocks[B].terminator();
    if (!Term)
      return 0;
    if (Term->Op == Opcode::Jmp) {
      Out[0] = Term->T1;
      return 1;
    }
    if (Term->Op == Opcode::Br) {
      Out[0] = Term->T1;
      Out[1] = Term->T2;
      return 2;
    }
    return 0;
  };
  enum : uint8_t { White, Grey, Black };
  std::vector<uint8_t> Color(NumBlocks, White);
  std::vector<std::pair<BlockId, BlockId>> BackEdges;
  struct Frame {
    BlockId B;
    unsigned NextSucc;
  };
  std::vector<Frame> Stack;
  Stack.push_back({0, 0});
  Color[0] = Grey;
  while (!Stack.empty()) {
    Frame &F = Stack.back();
    BlockId Succs[2];
    unsigned N = successors(F.B, Succs);
    if (F.NextSucc >= N) {
      Color[F.B] = Black;
      Stack.pop_back();
      continue;
    }
    BlockId S = Succs[F.NextSucc++];
    if (Color[S] == Grey)
      BackEdges.emplace_back(F.B, S);
    else if (Color[S] == White) {
      Color[S] = Grey;
      Stack.push_back({S, 0});
    }
  }
  std::vector<std::vector<BlockId>> Preds(NumBlocks);
  for (BlockId B = 0; B != NumBlocks; ++B) {
    BlockId Succs[2];
    unsigned N = successors(B, Succs);
    for (unsigned S = 0; S != N; ++S)
      Preds[Succs[S]].push_back(B);
  }
  for (const auto &[Latch, Header] : BackEdges) {
    std::vector<bool> InLoop(NumBlocks, false);
    InLoop[Header] = true;
    std::vector<BlockId> Work;
    if (!InLoop[Latch]) {
      InLoop[Latch] = true;
      Work.push_back(Latch);
    }
    while (!Work.empty()) {
      BlockId B = Work.back();
      Work.pop_back();
      for (BlockId Pred : Preds[B])
        if (!InLoop[Pred]) {
          InLoop[Pred] = true;
          Work.push_back(Pred);
        }
    }
    for (BlockId B = 0; B != NumBlocks; ++B)
      if (InLoop[B])
        ++Depth[B];
  }
  return Depth;
}

/// A random terminator-only CFG: random Jmp/Br/Ret terminators (self-loops
/// and two-same-target branches included), a planted nest (a self-loop
/// inside an inner loop inside an outer loop), a planted irreducible
/// two-entry loop, one block without a terminator and one block nothing
/// branches to.
std::unique_ptr<RoutineBody> randomLoopCfg(Prng &Rng) {
  auto Body = std::make_unique<RoutineBody>();
  uint32_t NumBlocks = static_cast<uint32_t>(Rng.nextRange(1, 40));
  for (uint32_t B = 0; B != NumBlocks; ++B)
    Body->newBlock();
  // Targets never include the last block, which stays unreachable.
  auto target = [&]() {
    return static_cast<BlockId>(
        Rng.nextBelow(NumBlocks > 1 ? NumBlocks - 1 : 1));
  };
  auto jmp = [&](BlockId B, BlockId T1) {
    Instr *T = Body->newInstr(Opcode::Jmp);
    T->T1 = T1;
    Body->Blocks[B].Instrs.push_back(T);
  };
  auto br = [&](BlockId B, BlockId T1, BlockId T2) {
    Instr *T = Body->newInstr(Opcode::Br);
    T->A = Operand::imm(1);
    T->T1 = T1;
    T->T2 = T2;
    Body->Blocks[B].Instrs.push_back(T);
  };
  bool Planted = NumBlocks > 10;
  for (BlockId B = 0; B != NumBlocks; ++B) {
    if (Planted && B == 1)
      continue; // No terminator.
    if (Planted && B == 0) {
      br(B, 2, 3); // Enters the 2 <-> 3 loop at either block.
    } else if (Planted && B == 2) {
      jmp(B, 3);
    } else if (Planted && B == 3) {
      br(B, 2, 5);
    } else if (Planted && B == 5) {
      jmp(B, 6);
    } else if (Planted && B == 6) {
      br(B, 6, 7); // Self-loop.
    } else if (Planted && B == 7) {
      br(B, 6, 8); // Inner loop 6..7.
    } else if (Planted && B == 8) {
      br(B, 5, target()); // Outer loop 5..8.
    } else {
      switch (Rng.nextBelow(5)) {
      case 0:
        jmp(B, Rng.nextBelow(3) == 0 ? B : target());
        break;
      case 1:
      case 2: {
        BlockId T1 = Rng.nextBelow(3) == 0 ? B : target();
        br(B, T1, Rng.nextBelow(4) == 0 ? T1 : target());
        break;
      }
      case 3: {
        Instr *T = Body->newInstr(Opcode::Ret);
        T->A = Operand::imm(0);
        Body->Blocks[B].Instrs.push_back(T);
        break;
      }
      default:
        break; // No terminator.
      }
    }
  }
  return Body;
}

/// LLO's list scheduler over the all-pairs dependence DAG, as it was before
/// the frontier-built DAG: the reference scheduleRegion must match.
uint64_t referenceSchedule(MInstr *Code, size_t N) {
  auto isLoad = [](MOp Op) {
    return Op == MOp::LoadG || Op == MOp::LoadIdx || Op == MOp::LoadSpill;
  };
  auto writesRd = [](MOp Op) {
    switch (Op) {
    case MOp::Mov:
    case MOp::Add:
    case MOp::Sub:
    case MOp::Mul:
    case MOp::Div:
    case MOp::Rem:
    case MOp::Neg:
    case MOp::CmpEq:
    case MOp::CmpNe:
    case MOp::CmpLt:
    case MOp::CmpLe:
    case MOp::CmpGt:
    case MOp::CmpGe:
    case MOp::LoadG:
    case MOp::LoadIdx:
    case MOp::LoadSpill:
      return true;
    default:
      return false;
    }
  };
  auto usesA = [](const MInstr &I) {
    switch (I.Op) {
    case MOp::Mov:
    case MOp::Add:
    case MOp::Sub:
    case MOp::Mul:
    case MOp::Div:
    case MOp::Rem:
    case MOp::Neg:
    case MOp::CmpEq:
    case MOp::CmpNe:
    case MOp::CmpLt:
    case MOp::CmpLe:
    case MOp::CmpGt:
    case MOp::CmpGe:
    case MOp::StoreG:
    case MOp::LoadIdx:
    case MOp::StoreIdx:
    case MOp::StoreSpill:
    case MOp::Br:
    case MOp::Brz:
    case MOp::Print:
      return true;
    default:
      return false;
    }
  };
  auto usesB = [](const MInstr &I) {
    switch (I.Op) {
    case MOp::Add:
    case MOp::Sub:
    case MOp::Mul:
    case MOp::Div:
    case MOp::Rem:
    case MOp::CmpEq:
    case MOp::CmpNe:
    case MOp::CmpLt:
    case MOp::CmpLe:
    case MOp::CmpGt:
    case MOp::CmpGe:
    case MOp::StoreIdx:
      return true;
    default:
      return false;
    }
  };
  auto isMemOp = [](MOp Op) {
    return Op == MOp::LoadG || Op == MOp::StoreG || Op == MOp::LoadIdx ||
           Op == MOp::StoreIdx || Op == MOp::LoadSpill ||
           Op == MOp::StoreSpill;
  };
  auto isStoreOp = [](MOp Op) {
    return Op == MOp::StoreG || Op == MOp::StoreIdx || Op == MOp::StoreSpill;
  };
  auto isSpillOp = [](MOp Op) {
    return Op == MOp::LoadSpill || Op == MOp::StoreSpill;
  };
  auto readsReg = [&](const MInstr &I, uint8_t Reg) {
    if (!I.A.IsImm && usesA(I) && I.A.Reg == Reg)
      return true;
    if (!I.B.IsImm && usesB(I) && I.B.Reg == Reg)
      return true;
    return false;
  };
  auto conflicts = [&](const MInstr &X, const MInstr &Y) {
    if (writesRd(X.Op) &&
        (readsReg(Y, X.Rd) || (writesRd(Y.Op) && Y.Rd == X.Rd)))
      return true;
    if (writesRd(Y.Op) && readsReg(X, Y.Rd))
      return true;
    bool XMem = isMemOp(X.Op), YMem = isMemOp(Y.Op);
    if (XMem && YMem) {
      bool XStore = isStoreOp(X.Op), YStore = isStoreOp(Y.Op);
      if (XStore || YStore) {
        bool BothSpill = isSpillOp(X.Op) && isSpillOp(Y.Op);
        if (!BothSpill || X.Slot == Y.Slot)
          return true;
      }
    }
    if (X.Op == MOp::Print && Y.Op == MOp::Print)
      return true;
    return false;
  };
  std::vector<MInstr> Orig(Code, Code + N);
  std::vector<std::vector<uint32_t>> Succs(N);
  std::vector<uint32_t> InDeg(N, 0);
  for (size_t I = 0; I != N; ++I)
    for (size_t J = I + 1; J != N; ++J)
      if (conflicts(Orig[I], Orig[J])) {
        Succs[I].push_back(static_cast<uint32_t>(J));
        ++InDeg[J];
      }
  std::vector<uint32_t> Ready;
  for (uint32_t I = 0; I != N; ++I)
    if (InDeg[I] == 0)
      Ready.push_back(I);
  int LastLoadRd = -1;
  uint64_t Moves = 0;
  size_t Placed = 0;
  while (!Ready.empty()) {
    size_t PickIdx = 0;
    bool Found = false;
    for (size_t Pass = 0; Pass != 2 && !Found; ++Pass) {
      for (size_t Idx = 0; Idx != Ready.size(); ++Idx) {
        const MInstr &C = Orig[Ready[Idx]];
        if (LastLoadRd >= 0 && readsReg(C, static_cast<uint8_t>(LastLoadRd)))
          continue;
        if (Pass == 0 && !isLoad(C.Op))
          continue;
        PickIdx = Idx;
        Found = true;
        break;
      }
    }
    uint32_t Chosen = Ready[PickIdx];
    Ready.erase(Ready.begin() + PickIdx);
    if (Chosen != Placed)
      ++Moves;
    const MInstr &C = Orig[Chosen];
    LastLoadRd = isLoad(C.Op) ? C.Rd : -1;
    Code[Placed++] = C;
    for (uint32_t Succ : Succs[Chosen])
      if (--InDeg[Succ] == 0)
        Ready.insert(std::upper_bound(Ready.begin(), Ready.end(), Succ),
                     Succ);
  }
  return Moves;
}

/// A random straight-line region over a few registers and spill slots, so
/// register, slot and memory dependences collide often.
std::vector<MInstr> randomRegion(Prng &Rng) {
  static const MOp Ops[] = {
      MOp::Mov,       MOp::Add,        MOp::Sub,     MOp::Neg,
      MOp::CmpLt,     MOp::LoadG,      MOp::StoreG,  MOp::LoadIdx,
      MOp::StoreIdx,  MOp::LoadSpill,  MOp::StoreSpill, MOp::LoadSpill,
      MOp::StoreSpill, MOp::Print,     MOp::Probe,   MOp::Nop};
  size_t N = static_cast<size_t>(Rng.nextBelow(90));
  unsigned NumRegs = static_cast<unsigned>(Rng.nextRange(1, 8));
  // Mostly small slot numbers; now and then a large one.
  auto slot = [&]() -> uint32_t {
    return Rng.nextBelow(16) == 0
               ? static_cast<uint32_t>(Rng.nextRange(100, 5000))
               : static_cast<uint32_t>(Rng.nextBelow(4));
  };
  auto reg = [&]() { return static_cast<uint8_t>(Rng.nextBelow(NumRegs)); };
  auto operand = [&]() {
    return Rng.nextBelow(4) == 0
               ? MOperand::imm(static_cast<int64_t>(Rng.nextBelow(50)))
               : MOperand::reg(reg());
  };
  std::vector<MInstr> Code(N);
  for (MInstr &I : Code) {
    I.Op = Ops[Rng.nextBelow(sizeof(Ops) / sizeof(Ops[0]))];
    I.Rd = reg();
    I.A = operand();
    I.B = operand();
    if (I.Op == MOp::LoadSpill || I.Op == MOp::StoreSpill)
      I.Slot = slot();
    if (I.Op == MOp::LoadG || I.Op == MOp::StoreG || I.Op == MOp::LoadIdx ||
        I.Op == MOp::StoreIdx)
      I.Sym = static_cast<uint32_t>(Rng.nextBelow(3));
  }
  return Code;
}

std::vector<uint8_t> encodeAll(const std::vector<MInstr> &Code) {
  std::vector<uint8_t> Bytes;
  for (const MInstr &I : Code)
    encodeMInstr(Bytes, I);
  return Bytes;
}

} // namespace

TEST(Llo, LoopDepthsMatchReference) {
  // One output vector across every CFG: state left over from a larger
  // routine must not leak into a smaller one.
  std::vector<uint32_t> Depth;
  unsigned Nested = 0;
  for (uint64_t Seed = 1; Seed <= 2000; ++Seed) {
    Prng Rng(Seed);
    auto Body = randomLoopCfg(Rng);
    computeLoopDepths(*Body, Depth);
    ASSERT_EQ(Depth, referenceLoopDepths(*Body)) << "seed " << Seed;
    if (!Depth.empty() && *std::max_element(Depth.begin(), Depth.end()) >= 3)
      ++Nested;
  }
  // The planted nest gives its self-loop block depth 3 or more.
  EXPECT_GT(Nested, 100u);
}

TEST(Llo, ScheduleMatchesAllPairsReference) {
  unsigned Moved = 0;
  for (uint64_t Seed = 1; Seed <= 3000; ++Seed) {
    Prng Rng(Seed);
    std::vector<MInstr> Code = randomRegion(Rng);
    std::vector<MInstr> Ref = Code;
    uint64_t Moves = scheduleRegion(Code.data(), Code.size());
    uint64_t RefMoves = referenceSchedule(Ref.data(), Ref.size());
    ASSERT_EQ(Moves, RefMoves) << "seed " << Seed;
    ASSERT_EQ(encodeAll(Code), encodeAll(Ref)) << "seed " << Seed;
    Moved += Moves != 0;
  }
  EXPECT_GT(Moved, 1000u);
}
