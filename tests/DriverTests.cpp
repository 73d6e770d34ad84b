//===- tests/DriverTests.cpp ----------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CompilerSession behaviour: option matrix equivalence, determinism
/// (Section 6.2), the heap-cap failure mode, metrics plausibility, and the
/// Section 6.3 isolation machinery.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "driver/Isolate.h"
#include "driver/StatsRender.h"
#include "ir/Printer.h"
#include "frontend/Frontend.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace scmo;
using namespace scmo::test;

namespace {

GeneratedProgram testProgram(uint64_t Seed = 5) {
  WorkloadParams Params;
  Params.Seed = Seed;
  Params.NumModules = 4;
  Params.ColdRoutinesPerModule = 4;
  Params.HotRoutines = 5;
  Params.OuterIterations = 300;
  return generateProgram(Params);
}

BuildResult buildGP(const GeneratedProgram &GP, CompileOptions Opts,
                    const ProfileDb *Db = nullptr) {
  CompilerSession Session(Opts);
  EXPECT_TRUE(Session.addGenerated(GP)) << Session.firstError();
  if (Db)
    Session.attachProfile(*Db);
  return Session.build();
}

/// Byte-level equality of two executables.
bool exesIdentical(const Executable &X, const Executable &Y) {
  if (X.Code.size() != Y.Code.size() || X.Data != Y.Data ||
      X.Entry != Y.Entry)
    return false;
  for (size_t I = 0; I != X.Code.size(); ++I) {
    const MInstr &A = X.Code[I];
    const MInstr &B = Y.Code[I];
    if (A.Op != B.Op || A.Rd != B.Rd || A.Sym != B.Sym ||
        A.Target != B.Target || A.Slot != B.Slot ||
        A.A.IsImm != B.A.IsImm || A.A.Reg != B.A.Reg || A.A.Imm != B.A.Imm ||
        A.B.IsImm != B.B.IsImm || A.B.Reg != B.B.Reg || A.B.Imm != B.B.Imm)
      return false;
  }
  return true;
}

} // namespace

TEST(Driver, RepeatedBuildsAreBitIdentical) {
  GeneratedProgram GP = testProgram();
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.Pbo = true;
  BuildResult B1 = buildGP(GP, Opts, &Db);
  BuildResult B2 = buildGP(GP, Opts, &Db);
  ASSERT_TRUE(B1.Ok && B2.Ok);
  EXPECT_TRUE(exesIdentical(B1.Exe, B2.Exe));
}

TEST(Driver, MemoryBudgetNeverChangesGeneratedCode) {
  // Paper Section 6.2: "the compiler must behave in exactly the same way
  // when compiling the same piece of code ... on a machine with the same
  // memory configuration from run to run" — and our stronger guarantee:
  // on *any* memory configuration.
  GeneratedProgram GP = testProgram(8);
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  CompileOptions Base;
  Base.Level = OptLevel::O4;
  Base.Pbo = true;
  Base.Naim.Mode = NaimMode::Off;
  BuildResult Ref = buildGP(GP, Base, &Db);
  ASSERT_TRUE(Ref.Ok);
  for (NaimMode Mode : {NaimMode::CompactIr, NaimMode::CompactIrSt,
                        NaimMode::Offload}) {
    CompileOptions Opts = Base;
    Opts.Naim.Mode = Mode;
    Opts.Naim.ExpandedCacheBytes = 16 << 10;
    Opts.Naim.CompactResidentBytes = 8 << 10;
    BuildResult Out = buildGP(GP, Opts, &Db);
    ASSERT_TRUE(Out.Ok) << Out.Error;
    EXPECT_TRUE(exesIdentical(Ref.Exe, Out.Exe))
        << "NAIM mode " << static_cast<int>(Mode);
  }
}

TEST(Driver, ObjectFileFlowMatchesDirectFlow) {
  // Objects replay each module's frontend symbol operations in order, so
  // the program re-read from them has the direct flow's ids and compiles to
  // the same executable, byte for byte.
  GeneratedProgram GP = testProgram(9);
  CompileOptions Direct;
  Direct.Level = OptLevel::O4;
  BuildResult B1 = buildGP(GP, Direct);
  CompileOptions ViaObjects = Direct;
  ViaObjects.WriteObjects = true;
  BuildResult B2 = buildGP(GP, ViaObjects);
  BuildResult B3 = buildGP(GP, ViaObjects);
  ASSERT_TRUE(B1.Ok && B2.Ok && B3.Ok) << B1.Error << B2.Error << B3.Error;
  RunResult R1 = runExecutable(B1.Exe);
  RunResult R2 = runExecutable(B2.Exe);
  ASSERT_TRUE(R1.Ok && R2.Ok);
  EXPECT_EQ(R1.OutputChecksum, R2.OutputChecksum);
  EXPECT_EQ(R1.ExitValue, R2.ExitValue);
  EXPECT_TRUE(exesIdentical(B1.Exe, B2.Exe));
  EXPECT_TRUE(exesIdentical(B2.Exe, B3.Exe));
}

TEST(Driver, ObjectFileFlowBalancesLoaderPinsAcrossModuleBoundaries) {
  // Regression: rebuildFromObjects acquires only the routines a module
  // *owns* but used to release every defined routine on its list — so a
  // routine referenced from a module it doesn't own (declared in "app",
  // defined in "lib") got a release with no matching acquire. Under the
  // pin-count protocol that is an unbalanced release; the early unpin let
  // the loader evict a pool the object writer was still serializing.
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.WriteObjects = true;
  // Zero cache budget makes any erroneously-unpinned pool compact at once,
  // so an unbalanced release cannot hide behind a roomy cache.
  Opts.Naim.Mode = NaimMode::CompactIr;
  Opts.Naim.ExpandedCacheBytes = 0;
  RunResult Run = buildAndRun({{"app", R"(
func main() { print sharedHelper(20); return 0; }
)"},
                               {"lib", R"(
func sharedHelper(x) { return x + 22; }
)"}},
                              Opts);
  EXPECT_EQ(Run.ExitValue, 0);
  ASSERT_EQ(Run.FirstOutputs.size(), 1u);
  EXPECT_EQ(Run.FirstOutputs[0], 42);
}

TEST(Driver, HeapCapFailsCleanly) {
  GeneratedProgram GP = testProgram(10);
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.HeapCapBytes = 64 << 10; // Absurdly small.
  Opts.Naim.Mode = NaimMode::Off;
  BuildResult Build = buildGP(GP, Opts);
  EXPECT_FALSE(Build.Ok);
  EXPECT_NE(Build.Error.find("heap exhausted"), std::string::npos)
      << Build.Error;
}

TEST(Driver, GenerousHeapCapSucceeds) {
  GeneratedProgram GP = testProgram(10);
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.HeapCapBytes = 1ull << 33;
  BuildResult Build = buildGP(GP, Opts);
  EXPECT_TRUE(Build.Ok) << Build.Error;
}

TEST(Driver, MetricsArePopulated) {
  GeneratedProgram GP = testProgram(11);
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty());
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.Pbo = true;
  BuildResult Build = buildGP(GP, Opts, &Db);
  ASSERT_TRUE(Build.Ok);
  EXPECT_GT(Build.SourceLines, 100u);
  EXPECT_GT(Build.HloPeakBytes, 0u);
  EXPECT_GE(Build.TotalPeakBytes, Build.HloPeakBytes);
  EXPECT_GT(Build.Correlation.Matched, 0u);
  EXPECT_GT(Build.Llo.RoutinesLowered, 0u);
  EXPECT_GT(Build.Stats.get("inline.sites"), 0u);
  EXPECT_GE(Build.TotalSeconds, Build.HloSeconds);
}

TEST(Driver, StatsJsonKeyOrderIsStable) {
  // The JSON key order is a documented contract (StatsRender.h): downstream
  // tooling indexes by position, so reordering keys is a breaking change.
  GeneratedProgram GP = testProgram(11);
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  BuildResult Build = buildGP(GP, Opts);
  ASSERT_TRUE(Build.Ok) << Build.Error;
  std::string Json = renderStatsJson(Build);

  const char *TopLevel[] = {
      "\"source_lines\"",   "\"routines\"",       "\"instrs\"",
      "\"hlo_peak_bytes\"", "\"total_peak_bytes\"", "\"loader\"",
      "\"naim_io\"",        "\"stages\"",         "\"memory_profile\"",
      "\"statistics\"",     "\"exe_xxh64\"",      "\"llo\""};
  size_t Prev = 0;
  for (const char *Key : TopLevel) {
    size_t At = Json.find(Key, Prev);
    ASSERT_NE(At, std::string::npos) << "missing key " << Key;
    EXPECT_GE(At, Prev) << "key out of order: " << Key;
    Prev = At;
  }

  // Each stage row's fixed sub-order, CPU time beside the wall time.
  size_t StagesAt = Json.find("\"stages\"");
  ASSERT_NE(StagesAt, std::string::npos);
  const char *StageKeys[] = {"\"name\"", "\"seconds\"", "\"cpu_s\"",
                             "\"live_bytes_after\"", "\"skipped\""};
  Prev = StagesAt;
  for (const char *Key : StageKeys) {
    size_t At = Json.find(Key, Prev);
    ASSERT_NE(At, std::string::npos) << "missing stage key " << Key;
    Prev = At;
  }
  EXPECT_LT(Prev, Json.find("\"memory_profile\"")) << "stage keys out of place";

  // memory_profile's own fixed sub-order.
  size_t MpAt = Json.find("\"memory_profile\"");
  ASSERT_NE(MpAt, std::string::npos);
  const char *MpKeys[] = {"\"arena_waste\"", "\"underflow_events\"",
                          "\"underflow_category\""};
  Prev = MpAt;
  for (const char *Key : MpKeys) {
    size_t At = Json.find(Key, Prev);
    ASSERT_NE(At, std::string::npos) << "missing key " << Key;
    Prev = At;
  }

  // llo's fixed sub-order: the counters, then one time per LLO phase.
  size_t LloAt = Json.find("\"llo\"", Json.find("\"exe_xxh64\""));
  ASSERT_NE(LloAt, std::string::npos);
  std::vector<std::string> LloKeys = {
      "\"routines_lowered\"", "\"spills\"", "\"regs\"",
      "\"schedule_moves\"", "\"peak_routine_kib\"", "\"phase_s\""};
  for (unsigned P = 0; P != NumLloPhases; ++P)
    LloKeys.push_back(std::string("\"") +
                      lloPhaseName(static_cast<LloPhase>(P)) + "\"");
  Prev = LloAt;
  for (const std::string &Key : LloKeys) {
    size_t At = Json.find(Key, Prev);
    ASSERT_NE(At, std::string::npos) << "missing llo key " << Key;
    Prev = At;
  }

  // The profile carries the pipeline's stage rows with per-category cells.
  EXPECT_NE(Json.find("\"category\""), std::string::npos);
  EXPECT_NE(Json.find("\"waste_bytes\""), std::string::npos);
  EXPECT_NE(Json.find("\"llo\""), std::string::npos);
}

TEST(Driver, StatsRenderLloCounters) {
  GeneratedProgram GP = testProgram(11);
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  BuildResult Build = buildGP(GP, Opts);
  ASSERT_TRUE(Build.Ok) << Build.Error;
  const LloStats &Llo = Build.Llo;
  ASSERT_GT(Llo.RoutinesLowered, 0u);
  uint64_t PhaseNanos = 0;
  for (uint64_t Ns : Llo.PhaseNanos)
    PhaseNanos += Ns;
  EXPECT_GT(PhaseNanos, 0u);

  std::string Text = renderStatsText(Build);
  std::string Line = "; llo: " + std::to_string(Llo.RoutinesLowered) +
                     " routines lowered, " +
                     std::to_string(Llo.SpillsAllocated) + " spills, " +
                     std::to_string(Llo.RegsAllocated) + " regs, " +
                     std::to_string(Llo.ScheduleMoves) + " schedule moves";
  EXPECT_NE(Text.find(Line), std::string::npos) << Text;
  EXPECT_NE(Text.find("; llo phases (s): layout "), std::string::npos);

  std::string Json = renderStatsJson(Build);
  std::string Obj =
      "\"llo\":{\"routines_lowered\":" + std::to_string(Llo.RoutinesLowered) +
      ",\"spills\":" + std::to_string(Llo.SpillsAllocated) +
      ",\"regs\":" + std::to_string(Llo.RegsAllocated) +
      ",\"schedule_moves\":" + std::to_string(Llo.ScheduleMoves) + ",";
  EXPECT_NE(Json.find(Obj), std::string::npos) << Json;
}

TEST(Driver, InstrumentedBuildsSkipOptimization) {
  GeneratedProgram GP = testProgram(12);
  CompileOptions Opts;
  Opts.Level = OptLevel::O2;
  Opts.Instrument = true;
  BuildResult Build = buildGP(GP, Opts);
  ASSERT_TRUE(Build.Ok);
  EXPECT_GT(Build.Probes.size(), 0u);
  EXPECT_EQ(Build.Stats.get("inline.sites"), 0u);
  EXPECT_EQ(Build.Stats.get("constprop.folds"), 0u);
}

TEST(Driver, FrontendErrorSurfacesFromBuild) {
  CompileOptions Opts;
  CompilerSession Session(Opts);
  EXPECT_FALSE(Session.addSource("bad", "func main( { return 0; }"));
  BuildResult Build = Session.build();
  EXPECT_FALSE(Build.Ok);
  EXPECT_NE(Build.Error.find("bad:"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Retiring lowered IL
//===----------------------------------------------------------------------===//

TEST(Retire, EveryLoweredRoutineLeavesNoIlBehind) {
  // The backend visit lowers each emitted routine and frees its IL, at
  // every level: CMO+PBO (whose edge weights read summaries after the
  // visit), plain O2, and the raw-IL builds +O1 and +I. What stays is the
  // IL of routines nothing lowers; KeepIl keeps the rest and changes no
  // byte of the executable.
  GeneratedProgram GP = testProgram(13);
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  struct Spec {
    OptLevel Level;
    bool Pbo, Instrument;
    const char *Name;
  };
  for (const Spec &Sp : {Spec{OptLevel::O4, true, false, "O4+P"},
                         Spec{OptLevel::O2, false, false, "O2"},
                         Spec{OptLevel::O1, false, false, "O1"},
                         Spec{OptLevel::O2, false, true, "O2+I"}}) {
    CompileOptions Opts;
    Opts.Level = Sp.Level;
    Opts.Pbo = Sp.Pbo;
    Opts.Instrument = Sp.Instrument;
    Opts.Jobs = 2;
    CompilerSession Session(Opts);
    ASSERT_TRUE(Session.addGenerated(GP)) << Session.firstError();
    if (Sp.Pbo)
      Session.attachProfile(Db);
    BuildResult Build = Session.build();
    ASSERT_TRUE(Build.Ok) << Sp.Name << ": " << Build.Error;
    const Program &P = Session.program();
    uint64_t Unlowered = 0;
    size_t Retired = 0;
    for (RoutineId R = 0; R != P.numRoutines(); ++R) {
      const RoutineInfo &RI = P.routine(R);
      if (!RI.IsDefined)
        continue;
      if (RI.Emit) {
        EXPECT_EQ(RI.Slot.State, PoolState::Retired)
            << Sp.Name << " " << P.displayName(R);
        Retired += RI.Slot.State == PoolState::Retired;
      } else if (RI.Slot.State == PoolState::Expanded) {
        Unlowered += RI.Slot.Body->irBytes();
      }
    }
    EXPECT_EQ(Retired, Build.Llo.RoutinesLowered) << Sp.Name;
    EXPECT_LE(Session.tracker().liveBytes(MemCategory::HloIr), Unlowered)
        << Sp.Name;
    EXPECT_EQ(Build.Loader.Compactions, 0u) << Sp.Name;
    EXPECT_TRUE(Session.loader().firstError().ok()) << Sp.Name;

    Opts.KeepIl = true;
    CompilerSession Keep(Opts);
    ASSERT_TRUE(Keep.addGenerated(GP));
    if (Sp.Pbo)
      Keep.attachProfile(Db);
    BuildResult Kept = Keep.build();
    ASSERT_TRUE(Kept.Ok) << Sp.Name << ": " << Kept.Error;
    EXPECT_TRUE(exesIdentical(Build.Exe, Kept.Exe)) << Sp.Name;
    for (RoutineId R = 0; R != Keep.program().numRoutines(); ++R)
      EXPECT_NE(Keep.program().routine(R).Slot.State, PoolState::Retired)
          << Sp.Name;
    EXPECT_GT(Keep.tracker().liveBytes(MemCategory::HloIr),
              Session.tracker().liveBytes(MemCategory::HloIr))
        << Sp.Name;
  }
}

TEST(Retire, ReadingRetiredIlFailsWithTheRoutinesName) {
  GeneratedProgram GP = testProgram(14);
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  CompilerSession Session(Opts);
  ASSERT_TRUE(Session.addGenerated(GP));
  BuildResult Build = Session.build();
  ASSERT_TRUE(Build.Ok) << Build.Error;
  RoutineId Main = Session.program().findRoutine("main");
  ASSERT_NE(Main, InvalidId);
  const RoutineBody &Stub = Session.loader().acquireRead(Main);
  EXPECT_EQ(Stub.instrCount(), 1u);
  Session.loader().release(Main);
  Status Err = Session.loader().firstError();
  ASSERT_FALSE(Err.ok());
  EXPECT_EQ(Err.code(), StatusCode::Unavailable);
  EXPECT_NE(Err.message().find("main"), std::string::npos) << Err.message();
}

TEST(Retire, KeptIlOfTheExamplesMatchesTheGolden) {
  // scmoc --emit-il keeps the IL (KeepIl); what it prints for each routine
  // of examples/mc is pinned byte for byte, in the order the golden was
  // written: for R in clamp blend initLut main,
  //   scmoc +O4 --emit-il R examples/mc/mathlib.mc examples/mc/app.mc
  auto slurp = [](const std::string &Path) {
    std::ifstream In(Path);
    std::stringstream Text;
    Text << In.rdbuf();
    return Text.str();
  };
  const std::string Dir = SCMO_EXAMPLES_DIR "/mc/";
  std::string Golden = slurp(Dir + "expected-il.txt");
  ASSERT_FALSE(Golden.empty());
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.KeepIl = true;
  CompilerSession Session(Opts);
  ASSERT_TRUE(Session.addSource("mathlib", slurp(Dir + "mathlib.mc")));
  ASSERT_TRUE(Session.addSource("app", slurp(Dir + "app.mc")));
  BuildResult Build = Session.build();
  ASSERT_TRUE(Build.Ok) << Build.Error;
  Program &P = Session.program();
  std::string Il;
  for (const char *Name : {"clamp", "blend", "initLut", "main"}) {
    RoutineId R = P.findRoutine(Name);
    ASSERT_NE(R, InvalidId) << Name;
    Il += printRoutine(P, R, Session.loader().acquireRead(R));
    Session.loader().release(R);
  }
  EXPECT_EQ(Il, Golden);
  EXPECT_TRUE(Session.loader().firstError().ok());
}

//===----------------------------------------------------------------------===//
// Isolation (Section 6.3)
//===----------------------------------------------------------------------===//

TEST(Isolate, FindsThePlantedBadOperation) {
  // Synthetic monotone failure: operations beyond #37 break the build.
  auto BuildAt = [](uint64_t Limit) {
    BuildResult B;
    B.Ok = true;
    B.SourceLines = Limit; // Smuggle the limit to the oracle.
    return B;
  };
  BuildOracle Oracle = [](const BuildResult &B) {
    return B.SourceLines < 37;
  };
  IsolationResult Res = isolateBadOperation(BuildAt, Oracle, 1 << 16);
  EXPECT_TRUE(Res.Found);
  EXPECT_EQ(Res.BadOperation, 37u);
  // Binary search, not linear: lg(65536) + 2 endpoint probes.
  EXPECT_LE(Res.BuildsUsed, 20u);
}

TEST(Isolate, ReportsBaselineFailures) {
  auto BuildAt = [](uint64_t) {
    BuildResult B;
    B.Ok = true;
    return B;
  };
  IsolationResult Res =
      isolateBadOperation(BuildAt, [](const BuildResult &) { return false; });
  EXPECT_TRUE(Res.BaselineBad);
  EXPECT_FALSE(Res.Found);
}

TEST(Isolate, ReportsNeverFailing) {
  auto BuildAt = [](uint64_t) {
    BuildResult B;
    B.Ok = true;
    return B;
  };
  IsolationResult Res =
      isolateBadOperation(BuildAt, [](const BuildResult &) { return true; });
  EXPECT_TRUE(Res.NeverFails);
}

TEST(Isolate, RealPipelineEndToEnd) {
  // Isolate against the real compiler with an oracle comparing to the IL
  // reference. Full optimization is correct, so the isolator reports
  // NeverFails — and every probe build along the way must succeed.
  GeneratedProgram GP = testProgram(13);
  Program RefP;
  for (const GeneratedModule &GM : GP.Modules)
    ASSERT_TRUE(compileSource(RefP, GM.Name, GM.Source).Ok);
  IlRunResult Ref = interpretProgram(RefP);
  ASSERT_TRUE(Ref.Ok);

  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty());

  auto BuildAt = [&](uint64_t Limit) {
    CompileOptions Opts;
    Opts.Level = OptLevel::O4;
    Opts.Pbo = true;
    Opts.HloOpLimit = Limit;
    return buildGP(GP, Opts, &Db);
  };
  BuildOracle Oracle = [&](const BuildResult &B) {
    RunResult Run = runExecutable(B.Exe);
    return Run.Ok && Run.OutputChecksum == Ref.OutputChecksum;
  };
  IsolationResult Res = isolateBadOperation(BuildAt, Oracle, 4096);
  EXPECT_TRUE(Res.NeverFails);
}
