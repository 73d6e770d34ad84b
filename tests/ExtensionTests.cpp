//===- tests/ExtensionTests.cpp -------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section 8 "past and future work" extensions: multi-layered
/// selectivity, profile-database persistence across runs, and the
/// machine-code diagnostics.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "bytecode/ObjectFile.h"
#include "frontend/Frontend.h"
#include "llo/MachinePrinter.h"

#include <gtest/gtest.h>

#include <regex>

using namespace scmo;
using namespace scmo::test;

namespace {

GeneratedProgram layeredProgram() {
  WorkloadParams Params;
  Params.Seed = 40;
  Params.NumModules = 6;
  Params.ColdRoutinesPerModule = 6;
  Params.HotRoutines = 6;
  Params.WarmRoutines = 4;
  Params.OuterIterations = 400;
  Params.HotModuleFraction = 0.34;
  return generateProgram(Params);
}

} // namespace

//===----------------------------------------------------------------------===//
// Multi-layered selectivity (Section 8)
//===----------------------------------------------------------------------===//

TEST(MultiLayered, AssignsAllThreeTiers) {
  GeneratedProgram GP = layeredProgram();
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.Pbo = true;
  Opts.SelectivityPercent = 1.0;
  Opts.MultiLayered = true;
  Opts.FineHotThreshold = 50;
  CompilerSession Session(Opts);
  ASSERT_TRUE(Session.addGenerated(GP));
  Session.attachProfile(Db);
  BuildResult Build = Session.build();
  ASSERT_TRUE(Build.Ok) << Build.Error;
  unsigned Tiers[3] = {0, 0, 0};
  Program &P = Session.program();
  for (RoutineId R = 0; R != P.numRoutines(); ++R)
    if (P.routine(R).IsDefined)
      ++Tiers[static_cast<unsigned>(P.routine(R).Tier)];
  EXPECT_GT(Tiers[0], 0u) << "no Full-tier routines";
  EXPECT_GT(Tiers[1], 0u) << "no Basic-tier routines";
  EXPECT_GT(Tiers[2], 0u) << "no None-tier routines";
}

TEST(MultiLayered, PreservesBehaviour) {
  GeneratedProgram GP = layeredProgram();
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  auto runWith = [&](bool Layered) {
    CompileOptions Opts;
    Opts.Level = OptLevel::O4;
    Opts.Pbo = true;
    Opts.SelectivityPercent = 1.0;
    Opts.MultiLayered = Layered;
    CompilerSession Session(Opts);
    EXPECT_TRUE(Session.addGenerated(GP));
    Session.attachProfile(Db);
    BuildResult Build = Session.build();
    EXPECT_TRUE(Build.Ok) << Build.Error;
    RunResult Run = runExecutable(Build.Exe);
    EXPECT_TRUE(Run.Ok) << Run.Error;
    return Run.OutputChecksum;
  };
  EXPECT_EQ(runWith(false), runWith(true));
}

TEST(MultiLayered, NoneTierGetsQuickCodegen) {
  GeneratedProgram GP = layeredProgram();
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  auto spillsWith = [&](bool Layered) {
    CompileOptions Opts;
    Opts.Level = OptLevel::O4;
    Opts.Pbo = true;
    Opts.SelectivityPercent = 1.0;
    Opts.FineHotThreshold = 50;
    Opts.MultiLayered = Layered;
    CompilerSession Session(Opts);
    EXPECT_TRUE(Session.addGenerated(GP));
    Session.attachProfile(Db);
    BuildResult Build = Session.build();
    EXPECT_TRUE(Build.Ok) << Build.Error;
    return Build.Llo.SpillsAllocated;
  };
  // None-tier routines spill everything under quick codegen: far more
  // allocated slots in the layered build — the visible trace of the tier.
  EXPECT_GT(spillsWith(true), spillsWith(false) * 3 / 2);
}

//===----------------------------------------------------------------------===//
// Profile database persistence
//===----------------------------------------------------------------------===//

TEST(ProfilePersistence, SaveLoadRoundTrip) {
  GeneratedProgram GP = layeredProgram();
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  const std::string Path = "/tmp/scmo-test-profile.db";
  ASSERT_TRUE(saveProfileDb(Db, Path));
  ProfileDb Loaded;
  ASSERT_TRUE(loadProfileDb(Path, Loaded));
  EXPECT_EQ(Loaded.size(), Db.size());
  EXPECT_EQ(Loaded.totalCount(), Db.totalCount());
  std::remove(Path.c_str());
}

TEST(ProfilePersistence, RepeatRunsAccumulate) {
  GeneratedProgram GP = layeredProgram();
  std::string Error;
  ProfileDb Run1 = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty());
  ProfileDb Run2 = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty());
  uint64_t Single = Run1.totalCount();
  Run1.merge(Run2);
  EXPECT_EQ(Run1.totalCount(), 2 * Single);
  // An accumulated database still correlates and compiles.
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.Pbo = true;
  CompilerSession Session(Opts);
  ASSERT_TRUE(Session.addGenerated(GP));
  Session.attachProfile(Run1);
  BuildResult Build = Session.build();
  ASSERT_TRUE(Build.Ok) << Build.Error;
  EXPECT_GT(Build.Correlation.Matched, 0u);
  EXPECT_EQ(Build.Correlation.Stale, 0u);
}

TEST(ProfilePersistence, LoadFailsCleanlyOnMissingOrGarbage) {
  ProfileDb Out;
  EXPECT_FALSE(loadProfileDb("/tmp/scmo-no-such-file.db", Out));
  const std::string Path = "/tmp/scmo-test-garbage.db";
  ASSERT_TRUE(writeFile(Path, std::vector<uint8_t>{'j', 'u', 'n', 'k'}));
  EXPECT_FALSE(loadProfileDb(Path, Out));
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Machine-code diagnostics
//===----------------------------------------------------------------------===//

TEST(MachinePrinter, DisassemblesRoutines) {
  Program P;
  FrontendResult FR = compileSource(P, "m", R"(
global g;
func f(a, b) {
  if (a > b) { g = a; }
  print a;
  print 7;
  return a + b;
}
func main() { return f(2, 1); }
)");
  ASSERT_TRUE(FR.Ok) << FR.Error;
  RoutineId F = P.findRoutine("f");
  MachineRoutine MR = lowerRoutine(P, F, P.body(F), LloOptions());
  std::string Text = printMachineRoutine(MR);
  EXPECT_NE(Text.find("machine f"), std::string::npos);
  EXPECT_NE(Text.find("cmpgt"), std::string::npos);
  EXPECT_NE(Text.find("ret"), std::string::npos);
  // print names its operand: a register or an immediate.
  EXPECT_TRUE(std::regex_search(Text, std::regex(R"(\tprint r\d+\n)")))
      << Text;
  EXPECT_TRUE(std::regex_search(Text, std::regex(R"(\tprint #7\n)")))
      << Text;
  // Every instruction appears on its own numbered line.
  size_t Lines = std::count(Text.begin(), Text.end(), '\n');
  EXPECT_EQ(Lines, MR.NumInstrs + 1);
}

TEST(MachinePrinter, DisassemblesLinkedExecutables) {
  CompileOptions Opts;
  CompilerSession Session(Opts);
  ASSERT_TRUE(Session.addSource("m", R"(
func helper(x) { return x * 3; }
func main() { return helper(4); }
)"));
  BuildResult Build = Session.build();
  ASSERT_TRUE(Build.Ok) << Build.Error;
  std::string Text = printExeRoutine(Build.Exe, "main");
  EXPECT_NE(Text.find("routine main"), std::string::npos);
  EXPECT_NE(Text.find("call fn"), std::string::npos);
  EXPECT_EQ(printExeRoutine(Build.Exe, "nosuch"), "");
}

//===----------------------------------------------------------------------===//
// VM debugging aids (watchpoints used by the Section 6.3 workflow)
//===----------------------------------------------------------------------===//

TEST(VmWatch, DataWatchpointRecordsStores) {
  CompileOptions Opts;
  CompilerSession Session(Opts);
  ASSERT_TRUE(Session.addSource("m", R"(
global counter;
func main() {
  var i = 0;
  while (i < 4) { counter = counter + 10; i = i + 1; }
  return counter;
}
)"));
  BuildResult Build = Session.build();
  ASSERT_TRUE(Build.Ok) << Build.Error;
  GlobalId G = Session.program().findGlobal("counter");
  VmConfig Cfg;
  Cfg.WatchDataAddr = Build.Exe.GlobalOffset[G];
  RunResult Run = runExecutable(Build.Exe, Cfg);
  ASSERT_TRUE(Run.Ok);
  EXPECT_EQ(Run.WatchLog, (std::vector<int64_t>{10, 20, 30, 40}));
}

TEST(VmWatch, CallWatchpointRecordsArguments) {
  CompileOptions Opts;
  Opts.Level = OptLevel::O1; // Keep the call un-inlined trivially.
  CompilerSession Session(Opts);
  ASSERT_TRUE(Session.addSource("m", R"(
func callee(a, b) { return a + b; }
func main() {
  var r = callee(7, 9);
  return r;
}
)"));
  BuildResult Build = Session.build();
  ASSERT_TRUE(Build.Ok) << Build.Error;
  uint32_t Target = InvalidId;
  for (uint32_t Idx = 0; Idx != Build.Exe.Routines.size(); ++Idx)
    if (Build.Exe.Routines[Idx].Name == "callee")
      Target = Idx;
  ASSERT_NE(Target, InvalidId);
  VmConfig Cfg;
  Cfg.WatchCallRoutine = Target;
  RunResult Run = runExecutable(Build.Exe, Cfg);
  ASSERT_TRUE(Run.Ok);
  ASSERT_EQ(Run.WatchLog.size(), 3u); // (pc, arg0, arg1)
  EXPECT_EQ(Run.WatchLog[1], 7);
  EXPECT_EQ(Run.WatchLog[2], 9);
}
