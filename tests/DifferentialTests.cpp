//===- tests/DifferentialTests.cpp ----------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential testing: the IL reference interpreter defines program
/// meaning; every optimization level of the full pipeline must reproduce it
/// exactly. Unlike cross-level comparison, this catches bugs that every
/// level shares (the class of miscompile that bit the register allocator
/// during development).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "frontend/Frontend.h"

#include <gtest/gtest.h>

using namespace scmo;
using namespace scmo::test;

namespace {

/// Reference output of a program at the IL level (pre-optimization).
IlRunResult reference(const GeneratedProgram &GP) {
  Program P;
  for (const GeneratedModule &GM : GP.Modules) {
    FrontendResult FR = compileSource(P, GM.Name, GM.Source);
    EXPECT_TRUE(FR.Ok) << FR.Error;
  }
  IlRunResult Res = interpretProgram(P);
  EXPECT_TRUE(Res.Ok) << Res.Error;
  return Res;
}

void expectAllLevelsMatchReference(const GeneratedProgram &GP) {
  IlRunResult Ref = reference(GP);
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty()) << Error;

  struct Spec {
    OptLevel Level;
    bool Pbo;
    const char *Name;
  };
  const Spec Specs[] = {
      {OptLevel::O1, false, "O1"},   {OptLevel::O2, false, "O2"},
      {OptLevel::O2, true, "O2+P"},  {OptLevel::O4, false, "O4"},
      {OptLevel::O4, true, "O4+P"},
  };
  for (const Spec &S : Specs) {
    CompileOptions Opts;
    Opts.Level = S.Level;
    Opts.Pbo = S.Pbo;
    CompilerSession Session(Opts);
    ASSERT_TRUE(Session.addGenerated(GP));
    if (S.Pbo)
      Session.attachProfile(Db);
    BuildResult Build = Session.build();
    ASSERT_TRUE(Build.Ok) << S.Name << ": " << Build.Error;
    RunResult Run = runExecutable(Build.Exe);
    ASSERT_TRUE(Run.Ok) << S.Name << ": " << Run.Error;
    EXPECT_EQ(Run.OutputChecksum, Ref.OutputChecksum) << S.Name;
    EXPECT_EQ(Run.OutputCount, Ref.OutputCount) << S.Name;
    EXPECT_EQ(Run.ExitValue, Ref.ExitValue) << S.Name;
  }
}

} // namespace

TEST(Differential, InterpreterMatchesVmOnHandWrittenProgram) {
  GeneratedProgram GP;
  GP.Modules.push_back({"m", R"(
global acc;
global grid[31];
func visit(i, w) {
  grid[i * 7] = grid[i * 7] + w;
  acc = acc + grid[i];
  return grid[i * 3];
}
func main() {
  var i = 0;
  while (i < 100) {
    acc = acc + visit(i, i % 5);
    i = i + 1;
  }
  print acc;
  var j = 0;
  while (j < 31) { print grid[j]; j = j + 1; }
  return 0;
}
)",
                        0});
  expectAllLevelsMatchReference(GP);
}

TEST(Differential, GeneratedWorkloadsMatchAtAllLevels) {
  for (uint64_t Seed : {21u, 22u, 23u}) {
    WorkloadParams Params;
    Params.Seed = Seed;
    Params.NumModules = 4;
    Params.ColdRoutinesPerModule = 5;
    Params.HotRoutines = 6;
    Params.WarmRoutines = 4;
    Params.OuterIterations = 300;
    expectAllLevelsMatchReference(generateProgram(Params));
  }
}

TEST(Differential, SelectivityLevelsMatchReference) {
  WorkloadParams Params;
  Params.Seed = 31;
  Params.NumModules = 6;
  Params.ColdRoutinesPerModule = 4;
  Params.HotRoutines = 6;
  Params.OuterIterations = 200;
  Params.HotModuleFraction = 0.4;
  GeneratedProgram GP = generateProgram(Params);
  IlRunResult Ref = reference(GP);
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  for (double Pct : {0.0, 0.3, 3.0, 30.0, 99.9}) {
    CompileOptions Opts;
    Opts.Level = OptLevel::O4;
    Opts.Pbo = true;
    Opts.SelectivityPercent = Pct;
    CompilerSession Session(Opts);
    ASSERT_TRUE(Session.addGenerated(GP));
    Session.attachProfile(Db);
    BuildResult Build = Session.build();
    ASSERT_TRUE(Build.Ok) << Build.Error;
    RunResult Run = runExecutable(Build.Exe);
    ASSERT_TRUE(Run.Ok) << Run.Error;
    EXPECT_EQ(Run.OutputChecksum, Ref.OutputChecksum) << "pct " << Pct;
  }
}

TEST(Differential, InterpreterProbeCountsMatchVmProbes) {
  GeneratedProgram GP;
  GP.Modules.push_back({"m", R"(
func step(x) {
  if (x % 2 == 0) { return x / 2; }
  return 3 * x + 1;
}
func main() {
  var n = 27;
  var count = 0;
  while (n != 1) { n = step(n); count = count + 1; }
  print count;
  return 0;
}
)",
                        0});
  // Instrumented build through the pipeline; the IL stays to be read.
  CompileOptions Opts;
  Opts.Level = OptLevel::O2;
  Opts.Instrument = true;
  Opts.KeepIl = true;
  CompilerSession Session(Opts);
  ASSERT_TRUE(Session.addGenerated(GP));
  BuildResult Build = Session.build();
  ASSERT_TRUE(Build.Ok) << Build.Error;
  RunResult VmRun = runExecutable(Build.Exe);
  ASSERT_TRUE(VmRun.Ok);
  // Interpret the same instrumented IL.
  IlInterpConfig Cfg;
  Cfg.NumProbes = Build.Probes.size();
  IlRunResult IlRun = interpretProgram(Session.program(), &Session.loader(),
                                       Cfg);
  ASSERT_TRUE(IlRun.Ok) << IlRun.Error;
  EXPECT_EQ(IlRun.Probes, VmRun.Probes);
  EXPECT_EQ(IlRun.OutputChecksum, VmRun.OutputChecksum);
}

TEST(Differential, OptimizedIlInterpretsLikeTheExecutable) {
  // The IL HLO hands to LLO is a program in its own right: interpreting
  // the optimized IL of a selective CMO+PBO build (kept past lowering)
  // must print, return and count exactly what the linked executable does.
  WorkloadParams Params;
  Params.Seed = 41;
  Params.NumModules = 6;
  Params.ColdRoutinesPerModule = 4;
  Params.HotRoutines = 6;
  Params.WarmRoutines = 4;
  Params.OuterIterations = 200;
  Params.HotModuleFraction = 0.4;
  GeneratedProgram GP = generateProgram(Params);
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.Pbo = true;
  Opts.SelectivityPercent = 20;
  Opts.KeepIl = true;
  CompilerSession Session(Opts);
  ASSERT_TRUE(Session.addGenerated(GP));
  Session.attachProfile(Db);
  BuildResult Build = Session.build();
  ASSERT_TRUE(Build.Ok) << Build.Error;
  ASSERT_GT(Build.Stats.get("hlo.routines_optimized"), 0u);
  RunResult VmRun = runExecutable(Build.Exe);
  ASSERT_TRUE(VmRun.Ok) << VmRun.Error;
  IlRunResult IlRun = interpretProgram(Session.program(), &Session.loader());
  ASSERT_TRUE(IlRun.Ok) << IlRun.Error;
  EXPECT_TRUE(Session.loader().firstError().ok())
      << Session.loader().firstError().toString();
  EXPECT_EQ(IlRun.ExitValue, VmRun.ExitValue);
  EXPECT_EQ(IlRun.OutputChecksum, VmRun.OutputChecksum);
  EXPECT_EQ(IlRun.OutputCount, VmRun.OutputCount);
  EXPECT_EQ(IlRun.FirstOutputs, VmRun.FirstOutputs);
  EXPECT_EQ(IlRun.Probes, VmRun.Probes); // Neither carries probes.
  // And both agree with the frontend's IL.
  EXPECT_EQ(IlRun.OutputChecksum, reference(GP).OutputChecksum);
}

TEST(Differential, InterpreterWorksThroughTightNaimLoader) {
  WorkloadParams Params;
  Params.Seed = 77;
  Params.NumModules = 3;
  Params.ColdRoutinesPerModule = 4;
  Params.HotRoutines = 4;
  Params.OuterIterations = 50;
  GeneratedProgram GP = generateProgram(Params);
  // Two programs: one fully resident, one through a loader with a zero
  // cache budget (every call path reloads bodies).
  Program P1;
  for (const GeneratedModule &GM : GP.Modules)
    ASSERT_TRUE(compileSource(P1, GM.Name, GM.Source).Ok);
  IlRunResult Ref = interpretProgram(P1);
  ASSERT_TRUE(Ref.Ok) << Ref.Error;

  MemoryTracker T;
  Program P2(&T);
  NaimConfig C;
  C.Mode = NaimMode::Offload;
  C.ExpandedCacheBytes = 0;
  C.CompactResidentBytes = 0;
  Loader L(P2, C);
  for (const GeneratedModule &GM : GP.Modules) {
    FrontendResult FR = compileSource(P2, GM.Name, GM.Source);
    ASSERT_TRUE(FR.Ok);
    for (RoutineId R : P2.module(FR.Module).Routines)
      if (P2.routine(R).IsDefined)
        L.release(R);
  }
  IlRunResult Out = interpretProgram(P2, &L);
  ASSERT_TRUE(Out.Ok) << Out.Error;
  EXPECT_EQ(Out.OutputChecksum, Ref.OutputChecksum);
  EXPECT_GT(L.stats().Expansions, 0u); // The loader really was exercised.
}
