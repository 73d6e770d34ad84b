//===- tests/ParallelTests.cpp --------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel backend's contract: the ThreadPool runs every task exactly
/// once, and a build at --jobs=N is indistinguishable from --jobs=1 — same
/// executable bytes, same routine checksums, same NAIM activity totals.
/// These tests are the TSan targets in CI: they drive concurrent acquire /
/// release / compact / offload traffic through one shared loader.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <sched.h>
#include <thread>

using namespace scmo;
using namespace scmo::test;

namespace {

GeneratedProgram testProgram(uint64_t Seed = 21) {
  WorkloadParams Params;
  Params.Seed = Seed;
  Params.NumModules = 6;
  Params.ColdRoutinesPerModule = 5;
  Params.HotRoutines = 6;
  Params.OuterIterations = 200;
  return generateProgram(Params);
}

/// Builds \p GP at the given worker count, returning the result plus the
/// per-routine structural checksums the build left behind.
struct JobsBuild {
  BuildResult Build;
  std::vector<uint64_t> Checksums;
};

JobsBuild buildAtJobs(const GeneratedProgram &GP, unsigned Jobs,
                      CompileOptions Opts, const ProfileDb *Db = nullptr) {
  Opts.Jobs = Jobs;
  CompilerSession Session(Opts);
  EXPECT_TRUE(Session.addGenerated(GP)) << Session.firstError();
  if (Db)
    Session.attachProfile(*Db);
  JobsBuild Out;
  Out.Build = Session.build();
  Program &P = Session.program();
  for (RoutineId R = 0; R != P.numRoutines(); ++R)
    if (P.routine(R).IsDefined)
      Out.Checksums.push_back(P.routine(R).Checksum);
  return Out;
}

/// Byte-level equality of two executables (mirrors DriverTests).
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

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, EveryTaskRunsExactlyOnce) {
  ThreadPool Pool(4);
  constexpr size_t N = 10000;
  std::vector<std::atomic<uint32_t>> Hits(N);
  Pool.parallelFor(N, [&](size_t I) {
    Hits[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t I = 0; I != N; ++I)
    ASSERT_EQ(Hits[I].load(), 1u) << "task " << I;
}

TEST(ThreadPool, SerialWidthRunsInOrder) {
  // Jobs=1 is documented as the exact pre-parallel behavior: an in-order
  // inline loop on the calling thread.
  ThreadPool Pool(1);
  std::vector<size_t> Order;
  Pool.parallelFor(100, [&](size_t I) { Order.push_back(I); });
  ASSERT_EQ(Order.size(), 100u);
  for (size_t I = 0; I != Order.size(); ++I)
    EXPECT_EQ(Order[I], I);
}

TEST(ThreadPool, PoolIsReusableAcrossJobs) {
  // A stale worker from job K must never execute tasks of job K+1 with job
  // K's function (the handoff race the pool's generation gate prevents).
  ThreadPool Pool(3);
  for (int Round = 0; Round != 50; ++Round) {
    std::atomic<uint64_t> Sum{0};
    size_t N = 17 + static_cast<size_t>(Round) * 3;
    Pool.parallelFor(N, [&](size_t I) {
      Sum.fetch_add(I + 1, std::memory_order_relaxed);
    });
    EXPECT_EQ(Sum.load(), uint64_t(N) * (N + 1) / 2) << "round " << Round;
  }
  // Tiny jobs on a wider pool: the caller usually finishes before the
  // workers wake, so they wake into a finished job (and must sleep again)
  // or straight into a later one (and must run that job's function). The
  // yield widens the window in which a worker still runs a claimed task
  // after the caller's own share is done; the caller must wait for it.
  ThreadPool Wide(4);
  for (int Round = 0; Round != 2000; ++Round) {
    std::atomic<uint64_t> Sum{0};
    size_t N = 2 + static_cast<size_t>(Round) % 3;
    Wide.parallelFor(N, [&](size_t I) {
      std::this_thread::yield();
      Sum.fetch_add(I + 1, std::memory_order_relaxed);
    });
    ASSERT_EQ(Sum.load(), uint64_t(N) * (N + 1) / 2) << "round " << Round;
  }
}

TEST(ThreadPool, DrainedWorkersSleepWhileATaskRuns) {
  // Three tasks finish at once and task 0 sleeps: the three drained
  // participants must block rather than poll until task 0 ends.
  ThreadPool Pool(4);
  Pool.parallelFor(4, [](size_t) {}); // Let every worker start.
  double Before = processCpuSeconds();
  Pool.parallelFor(4, [](size_t I) {
    if (I == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
  });
  EXPECT_LT(processCpuSeconds() - Before, 0.050);
}

TEST(ThreadPool, HardwareThreadsFollowsTheAffinityMask) {
  cpu_set_t Mask;
  ASSERT_EQ(sched_getaffinity(0, sizeof(Mask), &Mask), 0);
  EXPECT_EQ(ThreadPool::hardwareThreads(), unsigned(CPU_COUNT(&Mask)));
  // Pinned to one CPU (as under `taskset -c N`), the count follows the pin.
  unsigned Pinned = 0;
  std::thread([&] {
    cpu_set_t One;
    CPU_ZERO(&One);
    for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu)
      if (CPU_ISSET(Cpu, &Mask)) {
        CPU_SET(Cpu, &One);
        break;
      }
    if (sched_setaffinity(0, sizeof(One), &One) == 0)
      Pinned = ThreadPool::hardwareThreads();
  }).join();
  EXPECT_EQ(Pinned, 1u);
}

TEST(ThreadPool, OversubscribedWidthStillCompletes) {
  ThreadPool Pool(ThreadPool::hardwareThreads() * 4);
  std::atomic<size_t> Count{0};
  Pool.parallelFor(1000, [&](size_t) {
    Count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(Count.load(), 1000u);
}

//===----------------------------------------------------------------------===//
// Build determinism across worker counts
//===----------------------------------------------------------------------===//

TEST(Parallel, ExecutablesAreBitIdenticalAcrossJobCounts) {
  GeneratedProgram GP = testProgram();
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.Pbo = true;
  JobsBuild Ref = buildAtJobs(GP, 1, Opts, &Db);
  ASSERT_TRUE(Ref.Build.Ok) << Ref.Build.Error;
  for (unsigned Jobs : {2u, 8u}) {
    JobsBuild Out = buildAtJobs(GP, Jobs, Opts, &Db);
    ASSERT_TRUE(Out.Build.Ok) << Out.Build.Error;
    EXPECT_TRUE(exesIdentical(Ref.Build.Exe, Out.Build.Exe))
        << "jobs=" << Jobs;
    EXPECT_EQ(Ref.Checksums, Out.Checksums) << "jobs=" << Jobs;
    EXPECT_EQ(Ref.Build.Llo.RoutinesLowered, Out.Build.Llo.RoutinesLowered);
    EXPECT_EQ(Ref.Build.Llo.SpillsAllocated, Out.Build.Llo.SpillsAllocated);
    EXPECT_EQ(Ref.Build.Llo.RegsAllocated, Out.Build.Llo.RegsAllocated);
    EXPECT_EQ(Ref.Build.Llo.ScheduleMoves, Out.Build.Llo.ScheduleMoves);
  }
}

TEST(Parallel, ObjectFileFlowIsDeterministicAcrossJobCounts) {
  // WriteObjects exercises the parallel checksum pass (checksums are
  // recomputed after the object round trip) on top of verify + LLO.
  GeneratedProgram GP = testProgram(22);
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.WriteObjects = true;
  JobsBuild Ref = buildAtJobs(GP, 1, Opts);
  ASSERT_TRUE(Ref.Build.Ok) << Ref.Build.Error;
  ASSERT_FALSE(Ref.Checksums.empty());
  for (unsigned Jobs : {2u, 8u}) {
    JobsBuild Out = buildAtJobs(GP, Jobs, Opts);
    ASSERT_TRUE(Out.Build.Ok) << Out.Build.Error;
    EXPECT_TRUE(exesIdentical(Ref.Build.Exe, Out.Build.Exe))
        << "jobs=" << Jobs;
    EXPECT_EQ(Ref.Checksums, Out.Checksums) << "jobs=" << Jobs;
  }
}

TEST(Parallel, LoaderActivityTotalsMatchAcrossJobCounts) {
  // With a zero expanded-cache budget in Offload mode every release
  // compacts and every compaction offloads, so the Compactions and Offloads
  // totals depend only on the number of release operations — which the
  // deterministic fan-out keeps identical at any worker count. (Cache hits
  // and fetches legitimately vary with interleaving; the totals that
  // reflect *work requested* must not.)
  GeneratedProgram GP = testProgram(23);
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.Naim.Mode = NaimMode::Offload;
  Opts.Naim.ExpandedCacheBytes = 0;
  Opts.Naim.CompactResidentBytes = 0;
  JobsBuild Ref = buildAtJobs(GP, 1, Opts);
  ASSERT_TRUE(Ref.Build.Ok) << Ref.Build.Error;
  ASSERT_GT(Ref.Build.Loader.Compactions, 0u);
  ASSERT_GT(Ref.Build.Loader.Offloads, 0u);
  for (unsigned Jobs : {2u, 8u}) {
    JobsBuild Out = buildAtJobs(GP, Jobs, Opts);
    ASSERT_TRUE(Out.Build.Ok) << Out.Build.Error;
    EXPECT_TRUE(exesIdentical(Ref.Build.Exe, Out.Build.Exe))
        << "jobs=" << Jobs;
    EXPECT_EQ(Ref.Build.Loader.Compactions, Out.Build.Loader.Compactions)
        << "jobs=" << Jobs;
    EXPECT_EQ(Ref.Build.Loader.Offloads, Out.Build.Loader.Offloads)
        << "jobs=" << Jobs;
  }
}

TEST(Parallel, SpillingBuildIsIdenticalAcrossJobCounts) {
  // Under a budget that keeps pools compacting and offloading, the worker
  // count must still be invisible in the output. Unlike the zero-budget
  // case above, residency traffic here depends on release order (which
  // boundary pools are still compact, not yet offloaded, at build end), so
  // only the output is compared.
  GeneratedProgram GP = testProgram(26);
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.Naim.Mode = NaimMode::Offload;
  Opts.Naim.ExpandedCacheBytes = 16 << 10;
  Opts.Naim.CompactResidentBytes = 8 << 10;
  JobsBuild Ref = buildAtJobs(GP, 1, Opts);
  ASSERT_TRUE(Ref.Build.Ok) << Ref.Build.Error;
  ASSERT_GT(Ref.Build.Loader.Offloads, 0u) << "spill path never exercised";
  for (unsigned Jobs : {2u, 8u}) {
    JobsBuild Out = buildAtJobs(GP, Jobs, Opts);
    ASSERT_TRUE(Out.Build.Ok) << Out.Build.Error;
    EXPECT_TRUE(exesIdentical(Ref.Build.Exe, Out.Build.Exe))
        << "jobs=" << Jobs;
    EXPECT_EQ(Ref.Checksums, Out.Checksums) << "jobs=" << Jobs;
  }
}

TEST(Parallel, FailureReportsIdenticallyAcrossJobCounts) {
  // The error path must be as deterministic as the success path: heap
  // exhaustion is detected per-task but reported once after the join, so
  // the diagnostic names the same phase and cap at any worker count.
  GeneratedProgram GP = testProgram(24);
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.HeapCapBytes = 64 << 10; // Absurdly small: trips during LLO/HLO.
  Opts.Naim.Mode = NaimMode::Off;
  JobsBuild Ref = buildAtJobs(GP, 1, Opts);
  ASSERT_FALSE(Ref.Build.Ok);
  for (unsigned Jobs : {2u, 8u}) {
    JobsBuild Out = buildAtJobs(GP, Jobs, Opts);
    ASSERT_FALSE(Out.Build.Ok);
    EXPECT_EQ(Ref.Build.Error, Out.Build.Error) << "jobs=" << Jobs;
  }
}

TEST(Parallel, RunBehaviorMatchesSerialBuild) {
  GeneratedProgram GP = testProgram(25);
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  JobsBuild Serial = buildAtJobs(GP, 1, Opts);
  JobsBuild Wide = buildAtJobs(GP, 8, Opts);
  ASSERT_TRUE(Serial.Build.Ok && Wide.Build.Ok);
  RunResult R1 = runExecutable(Serial.Build.Exe);
  RunResult R2 = runExecutable(Wide.Build.Exe);
  ASSERT_TRUE(R1.Ok && R2.Ok);
  EXPECT_EQ(R1.OutputChecksum, R2.OutputChecksum);
  EXPECT_EQ(R1.ExitValue, R2.ExitValue);
}

//===----------------------------------------------------------------------===//
// LTRANS: one task per routine
//===----------------------------------------------------------------------===//

TEST(Parallel, LtransJobMatrixIsBitIdentical) {
  // The WHOPR contract: the job count decides only which worker applies the
  // plan to a routine, never what the plan says. Every width must produce
  // one executable, clone bodies and all, profile-guided inlining included.
  GeneratedProgram GP = testProgram(27);
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.Pbo = true;
  JobsBuild Ref = buildAtJobs(GP, 1, Opts, &Db);
  ASSERT_TRUE(Ref.Build.Ok) << Ref.Build.Error;
  ASSERT_GT(Ref.Build.Stats.get("inline.sites"), 0u)
      << "no inlining; the matrix would be vacuous";
  for (unsigned Jobs : {2u, 3u, 8u}) {
    JobsBuild Out = buildAtJobs(GP, Jobs, Opts, &Db);
    ASSERT_TRUE(Out.Build.Ok) << Out.Build.Error;
    EXPECT_TRUE(exesIdentical(Ref.Build.Exe, Out.Build.Exe))
        << "jobs=" << Jobs;
    EXPECT_EQ(Ref.Checksums, Out.Checksums) << "jobs=" << Jobs;
  }
}

TEST(Parallel, LtransJobMatrixHoldsUnderOffload) {
  // The job count changes which worker touches which routine, so it
  // reshapes the loader's acquire/release traffic; with pools spilling to
  // the repository the bytes the optimizer reads back must still be exact.
  GeneratedProgram GP = testProgram(28);
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.Naim.Mode = NaimMode::Offload;
  Opts.Naim.ExpandedCacheBytes = 16 << 10;
  Opts.Naim.CompactResidentBytes = 8 << 10;
  JobsBuild Ref = buildAtJobs(GP, 1, Opts);
  ASSERT_TRUE(Ref.Build.Ok) << Ref.Build.Error;
  ASSERT_GT(Ref.Build.Loader.Offloads, 0u) << "spill path never exercised";
  // LTRANS workers then read WPA's referenced snapshot records while other
  // workers append to the same repository file.
  ASSERT_GT(Ref.Build.Stats.get("wpa.snapshot_refs"), 0u)
      << "no snapshot record referenced";
  for (unsigned Jobs : {2u, 3u, 8u}) {
    JobsBuild Out = buildAtJobs(GP, Jobs, Opts);
    ASSERT_TRUE(Out.Build.Ok) << Out.Build.Error;
    EXPECT_TRUE(exesIdentical(Ref.Build.Exe, Out.Build.Exe))
        << "jobs=" << Jobs;
    EXPECT_EQ(Ref.Checksums, Out.Checksums) << "jobs=" << Jobs;
  }
}

TEST(Parallel, SelectiveBuildIsIdenticalAcrossJobCounts) {
  // At 5% selectivity most modules take the default-set path, whose
  // per-tier cleanup runs in the LTRANS fan-out beside the CMO-set work.
  // Its output, its cleanup counters and the bytes the end-of-task repack
  // reclaims must not depend on the width, with and without the
  // multi-layered Basic / None tiers.
  GeneratedProgram GP = testProgram(32);
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  for (bool MultiLayered : {false, true}) {
    CompileOptions Opts;
    Opts.Level = OptLevel::O4;
    Opts.Pbo = true;
    Opts.SelectivityPercent = 5;
    Opts.MultiLayered = MultiLayered;
    JobsBuild Ref = buildAtJobs(GP, 1, Opts, &Db);
    ASSERT_TRUE(Ref.Build.Ok) << Ref.Build.Error;
    ASSERT_FALSE(Ref.Build.Selectivity.DefaultModules.empty());
    ASSERT_FALSE(Ref.Build.Selectivity.CmoModules.empty());
    ASSERT_GT(Ref.Build.Stats.get("dce.instrs"), 0u);
    ASSERT_GT(Ref.Build.Stats.get("hlo.reclaimed_bytes"), 0u);
    auto Cleanup = [](const Statistics &St) {
      std::map<std::string, uint64_t> Out;
      for (const auto &[Name, Value] : St.all())
        if (Name == "hlo.routines_optimized" ||
            Name == "hlo.reclaimed_bytes" ||
            Name.rfind("constprop.", 0) == 0 ||
            Name.rfind("simplify.", 0) == 0 || Name.rfind("dce.", 0) == 0)
          Out[Name] = Value;
      return Out;
    };
    for (unsigned Jobs : {2u, 8u}) {
      JobsBuild Out = buildAtJobs(GP, Jobs, Opts, &Db);
      ASSERT_TRUE(Out.Build.Ok) << Out.Build.Error;
      EXPECT_TRUE(exesIdentical(Ref.Build.Exe, Out.Build.Exe))
          << "multi-layered=" << MultiLayered << " jobs=" << Jobs;
      EXPECT_EQ(Ref.Checksums, Out.Checksums)
          << "multi-layered=" << MultiLayered << " jobs=" << Jobs;
      EXPECT_EQ(Cleanup(Ref.Build.Stats), Cleanup(Out.Build.Stats))
          << "multi-layered=" << MultiLayered << " jobs=" << Jobs;
    }
  }
}

TEST(Parallel, PostHloVerifyReusesTheLtransAcquire) {
  // The backend visits each routine under one loader acquire: plan or
  // cleanup, the post-HLO verify and the lowering all use the body the
  // task holds, and nothing acquires a routine after it. So at --jobs 1
  // verifying costs exactly the verify stage's acquire per defined routine
  // (clones do not exist yet), and an O2 build, which has no WPA, acquires
  // each routine once in the backend and never again.
  GeneratedProgram GP = testProgram(33);
  for (OptLevel Level : {OptLevel::O4, OptLevel::O2}) {
    CompileOptions Opts;
    Opts.Level = Level;
    Opts.Jobs = 1;
    Opts.VerifyIl = false;
    CompilerSession Off(Opts);
    ASSERT_TRUE(Off.addGenerated(GP)) << Off.firstError();
    BuildResult Plain = Off.build();
    ASSERT_TRUE(Plain.Ok) << Plain.Error;
    Opts.VerifyIl = true;
    CompilerSession On(Opts);
    ASSERT_TRUE(On.addGenerated(GP)) << On.firstError();
    const size_t Declared = On.program().numRoutines();
    BuildResult Verified = On.build();
    ASSERT_TRUE(Verified.Ok) << Verified.Error;
    EXPECT_TRUE(exesIdentical(Plain.Exe, Verified.Exe));
    uint64_t VerifyAcquires = 0, Emitted = 0;
    const Program &P = On.program();
    for (RoutineId R = 0; R != P.numRoutines(); ++R)
      if (P.routine(R).IsDefined) {
        VerifyAcquires += R < Declared;
        Emitted += P.routine(R).Emit;
      }
    ASSERT_GT(Emitted, 0u);
    EXPECT_EQ(Verified.Loader.Acquires - Plain.Loader.Acquires,
              VerifyAcquires);
    EXPECT_EQ(Verified.Llo.RoutinesLowered, Emitted);
    if (Level == OptLevel::O2) {
      EXPECT_EQ(Emitted, VerifyAcquires);
      EXPECT_EQ(Plain.Loader.Acquires, Emitted);
    }
  }
}
