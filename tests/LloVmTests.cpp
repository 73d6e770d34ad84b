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

#include <gtest/gtest.h>

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
