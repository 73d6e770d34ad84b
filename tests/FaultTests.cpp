//===- tests/FaultTests.cpp -----------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end fault tolerance of the NAIM spill path: deterministic fault
/// injection must produce graceful degradation (with a byte-identical
/// executable), object-file recovery, or a structured build failure — and a
/// SIGKILL mid-emission must never leave a torn object file behind.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "bytecode/ObjectFile.h"
#include "driver/CompilerSession.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

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

/// Offload-happy NAIM config: everything spills on release, so the spill
/// path is exercised by even a small program.
NaimConfig spillEverything() {
  NaimConfig C;
  C.Mode = NaimMode::Offload;
  C.ExpandedCacheBytes = 0;
  C.CompactResidentBytes = 0;
  return C;
}

BuildResult buildGP(const GeneratedProgram &GP, const CompileOptions &Opts) {
  CompilerSession Session(Opts);
  EXPECT_TRUE(Session.addGenerated(GP)) << Session.firstError();
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

size_t countDefinedRoutines(const GeneratedProgram &GP,
                            const CompileOptions &Opts) {
  CompilerSession Session(Opts);
  EXPECT_TRUE(Session.addGenerated(GP));
  size_t N = 0;
  for (RoutineId R = 0; R != Session.program().numRoutines(); ++R)
    if (Session.program().routine(R).IsDefined)
      ++N;
  return N;
}

bool hasWarning(const BuildResult &B, CheckCode Code) {
  for (const Diagnostic &D : B.Warnings)
    if (D.Code == Code)
      return true;
  return false;
}

} // namespace

TEST(FaultDriver, SpillFailureDegradesAndExecutableIsIdentical) {
  // The ISSUE's headline scenario: the 3rd repository store fails (disk
  // died mid-compile). The build must complete with a warning and produce
  // exactly the bytes an uninjected build produces.
  GeneratedProgram GP = testProgram();
  CompileOptions Opts;
  Opts.Level = OptLevel::O2;
  Opts.Naim = spillEverything();
  Opts.Jobs = 1;
  BuildResult Clean = buildGP(GP, Opts);
  ASSERT_TRUE(Clean.Ok) << Clean.Error;
  EXPECT_TRUE(Clean.Warnings.empty()) << Clean.WarningsText;

  Opts.FaultInject = "store:fail-nth=3";
  BuildResult Injected = buildGP(GP, Opts);
  ASSERT_TRUE(Injected.Ok) << Injected.Error;
  EXPECT_EQ(Injected.Loader.SpillFailures, 1u);
  EXPECT_TRUE(hasWarning(Injected, CheckCode::SpillDegraded))
      << Injected.WarningsText;
  EXPECT_TRUE(exesIdentical(Clean.Exe, Injected.Exe));
}

TEST(FaultDriver, DiskFullDegradesTheSameWay) {
  GeneratedProgram GP = testProgram(11);
  CompileOptions Opts;
  Opts.Level = OptLevel::O2;
  Opts.Naim = spillEverything();
  Opts.Jobs = 1;
  BuildResult Clean = buildGP(GP, Opts);
  ASSERT_TRUE(Clean.Ok) << Clean.Error;
  Opts.FaultInject = "store:enospc-nth=1";
  BuildResult Injected = buildGP(GP, Opts);
  ASSERT_TRUE(Injected.Ok) << Injected.Error;
  EXPECT_EQ(Injected.Loader.Offloads, 0u); // Never got a spill down.
  EXPECT_TRUE(hasWarning(Injected, CheckCode::SpillDegraded));
  EXPECT_TRUE(exesIdentical(Clean.Exe, Injected.Exe));
}

TEST(FaultDriver, TransientFaultsAreInvisibleInTheResult) {
  GeneratedProgram GP = testProgram(7);
  CompileOptions Opts;
  Opts.Level = OptLevel::O2;
  Opts.Naim = spillEverything();
  Opts.Jobs = 1;
  BuildResult Clean = buildGP(GP, Opts);
  ASSERT_TRUE(Clean.Ok) << Clean.Error;
  Opts.FaultInject = "seed=3,store:eintr-rate=0.2,store:short-rate=0.2,"
                     "read:eintr-rate=0.2";
  BuildResult Injected = buildGP(GP, Opts);
  ASSERT_TRUE(Injected.Ok) << Injected.Error;
  EXPECT_TRUE(Injected.Warnings.empty()) << Injected.WarningsText;
  EXPECT_TRUE(exesIdentical(Clean.Exe, Injected.Exe));
}

TEST(FaultDriver, FetchCorruptionRecoversFromObjectFiles) {
  // Persistent on-disk corruption of a spilled pool, hit after the IL has
  // round-tripped through object files: the loader re-expands the routine
  // from its object, the build succeeds, and the executable is identical.
  GeneratedProgram GP = testProgram();
  CompileOptions Opts;
  Opts.Level = OptLevel::O1; // No IL mutation: recovery stays armed.
  Opts.WriteObjects = true;
  Opts.Naim = spillEverything();
  Opts.Jobs = 1;
  char Dir[] = "/tmp/scmo-fault-obj-XXXXXX";
  ASSERT_NE(mkdtemp(Dir), nullptr);
  Opts.ObjectDir = Dir;

  BuildResult Clean = buildGP(GP, Opts);
  ASSERT_TRUE(Clean.Ok) << Clean.Error;

  // Store-op layout at Jobs=1 is deterministic: N frontend spills (the
  // object-writer drain re-offloads are elided — the pools are clean since
  // the repository), then the rebuilt loader's first spill at op N+1 —
  // corrupt that one.
  size_t N = countDefinedRoutines(GP, Opts);
  ASSERT_GT(N, 0u);
  Opts.FaultInject = "store:corrupt-nth=" + std::to_string(N + 1);
  BuildResult Injected = buildGP(GP, Opts);
  ASSERT_TRUE(Injected.Ok)
      << Injected.Error << "\n" << Injected.WarningsText;
  EXPECT_GE(Injected.Loader.Recoveries, 1u);
  EXPECT_EQ(Injected.Loader.PoisonedPools, 0u);
  EXPECT_TRUE(hasWarning(Injected, CheckCode::RepoCorruption))
      << Injected.WarningsText;
  EXPECT_TRUE(exesIdentical(Clean.Exe, Injected.Exe));
}

TEST(FaultDriver, CorruptionWithoutObjectsFailsStructurally) {
  // No object files to fall back on: the build must fail with a structured
  // diagnostic — this test running to completion is the no-abort proof.
  GeneratedProgram GP = testProgram();
  CompileOptions Opts;
  Opts.Level = OptLevel::O2;
  Opts.Naim = spillEverything();
  Opts.Jobs = 1;
  Opts.FaultInject = "store:corrupt-nth=1";
  BuildResult Build = buildGP(GP, Opts);
  EXPECT_FALSE(Build.Ok);
  EXPECT_NE(Build.Error.find("corruption"), std::string::npos)
      << Build.Error;
  EXPECT_GE(Build.Loader.PoisonedPools, 1u);
  EXPECT_TRUE(hasWarning(Build, CheckCode::RepoCorruption))
      << Build.WarningsText;
}

/// O4 over a spilling loader with no verify pass: nothing reads a pool's
/// frontend record before WPA, which references the records of the callees
/// it plans to inline instead of expanding them.
CompileOptions snapshotRecordOptions() {
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.Naim = spillEverything();
  Opts.Jobs = 1;
  Opts.VerifyIl = false;
  return Opts;
}

bool warnsAboutSnapshotRecord(const BuildResult &B) {
  return B.WarningsText.find("snapshot record") != std::string::npos;
}

TEST(FaultDriver, CorruptSnapshotRecordFailsLtransStructurally) {
  // Persistent corruption of a record WPA referenced: LTRANS's read of the
  // snapshot fails twice, and the build must end in a structured LTRANS
  // error — not an abort. Which store holds such a record depends on the
  // program, so corrupt each frontend store in turn; every build must
  // return, and at least one must fail on a snapshot read.
  GeneratedProgram GP = testProgram();
  CompileOptions Opts = snapshotRecordOptions();
  BuildResult Clean = buildGP(GP, Opts);
  ASSERT_TRUE(Clean.Ok) << Clean.Error;
  ASSERT_GT(Clean.Stats.get("wpa.snapshot_refs"), 0u);
  size_t N = countDefinedRoutines(GP, Opts);
  bool SnapshotFailure = false;
  for (size_t K = 1; K <= N; ++K) {
    Opts.FaultInject = "store:corrupt-nth=" + std::to_string(K);
    BuildResult Build = buildGP(GP, Opts);
    if (Build.Ok)
      continue; // The corrupted record was never read back.
    EXPECT_EQ(Build.Error.rfind("repository failure during ", 0), 0u)
        << Build.Error;
    EXPECT_GE(Build.Loader.PoisonedPools, 1u);
    EXPECT_TRUE(hasWarning(Build, CheckCode::RepoCorruption))
        << Build.WarningsText;
    if (warnsAboutSnapshotRecord(Build)) {
      SnapshotFailure = true;
      EXPECT_EQ(Build.Error.rfind("repository failure during LTRANS", 0), 0u)
          << Build.Error;
    }
  }
  EXPECT_TRUE(SnapshotFailure) << "no corrupted record was a snapshot";
}

TEST(FaultDriver, TransientSnapshotReadCorruptionHeals) {
  // A snapshot record read back flipped in memory heals on the re-read:
  // the build succeeds with a warning and the identical executable. Flip
  // the fetches in order until one of them is a snapshot read.
  GeneratedProgram GP = testProgram();
  CompileOptions Opts = snapshotRecordOptions();
  BuildResult Clean = buildGP(GP, Opts);
  ASSERT_TRUE(Clean.Ok) << Clean.Error;
  ASSERT_GT(Clean.Loader.Fetches, 0u);
  bool SnapshotRetried = false;
  for (uint64_t K = 1; K <= Clean.Loader.Fetches && !SnapshotRetried; ++K) {
    Opts.FaultInject = "read:flip-nth=" + std::to_string(K);
    BuildResult Build = buildGP(GP, Opts);
    ASSERT_TRUE(Build.Ok) << "fetch " << K << ": " << Build.Error;
    EXPECT_EQ(Build.Loader.FetchRetries, 1u) << "fetch " << K;
    EXPECT_TRUE(hasWarning(Build, CheckCode::RepoCorruption))
        << Build.WarningsText;
    EXPECT_TRUE(exesIdentical(Clean.Exe, Build.Exe)) << "fetch " << K;
    SnapshotRetried = warnsAboutSnapshotRecord(Build);
  }
  EXPECT_TRUE(SnapshotRetried) << "no fetch was a snapshot read";
}

TEST(FaultDriver, MalformedInjectSpecFailsTheBuildUpFront) {
  GeneratedProgram GP = testProgram();
  CompileOptions Opts;
  Opts.FaultInject = "store:explode-nth=1";
  CompilerSession Session(Opts);
  EXPECT_FALSE(Session.firstError().empty());
  Session.addGenerated(GP);
  BuildResult Build = Session.build();
  EXPECT_FALSE(Build.Ok);
  EXPECT_NE(Build.Error.find("--fault-inject"), std::string::npos)
      << Build.Error;
}

TEST(FaultCrash, SigkillMidEmissionLeavesNoTornObjects) {
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
  GTEST_SKIP() << "fork() under TSan is unsupported";
#endif
#endif
  char Dir[] = "/tmp/scmo-crash-XXXXXX";
  ASSERT_NE(mkdtemp(Dir), nullptr);
  GeneratedProgram GP = testProgram();

  pid_t Child = ::fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    // Child: emit object files in a tight loop until killed.
    for (;;) {
      CompileOptions Opts;
      Opts.Level = OptLevel::O1;
      Opts.WriteObjects = true;
      Opts.ObjectDir = Dir;
      Opts.Jobs = 1;
      CompilerSession Session(Opts);
      Session.addGenerated(GP);
      Session.build();
    }
  }

  // Parent: wait for emission to start, then SIGKILL mid-flight.
  auto listDir = [&](std::vector<std::string> &Objects, bool &SawTmp) {
    Objects.clear();
    SawTmp = false;
    DIR *D = ::opendir(Dir);
    ASSERT_NE(D, nullptr);
    while (struct dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name.size() > 2 && Name.rfind(".o") == Name.size() - 2)
        Objects.push_back(std::string(Dir) + "/" + Name);
      if (Name.find(".tmp.") != std::string::npos)
        SawTmp = true;
    }
    ::closedir(D);
  };
  std::vector<std::string> Objects;
  bool SawTmp = false;
  for (int Spin = 0; Spin != 2000 && Objects.empty(); ++Spin) {
    listDir(Objects, SawTmp);
    ::usleep(1000);
  }
  ::kill(Child, SIGKILL);
  int WaitStatus = 0;
  ASSERT_EQ(::waitpid(Child, &WaitStatus, 0), Child);
  ASSERT_TRUE(WIFSIGNALED(WaitStatus));
  ASSERT_FALSE(Objects.empty()) << "child never emitted an object";

  // Every visible .o is complete: the rename-into-place protocol means a
  // torn write can only ever be a .tmp file, which readers never look at.
  listDir(Objects, SawTmp);
  for (const std::string &Path : Objects) {
    std::vector<uint8_t> Bytes;
    ASSERT_TRUE(readFile(Path, Bytes)) << Path;
    MemoryTracker Tracker;
    Program P(&Tracker);
    std::string Error;
    EXPECT_NE(readObject(P, Bytes, Error), InvalidId)
        << Path << ": " << Error;
  }

  // And a re-run over the same directory succeeds outright.
  CompileOptions Opts;
  Opts.Level = OptLevel::O1;
  Opts.WriteObjects = true;
  Opts.ObjectDir = Dir;
  Opts.Jobs = 1;
  BuildResult Build = buildGP(GP, Opts);
  EXPECT_TRUE(Build.Ok) << Build.Error;
}
