//===- tests/ShapeTests.cpp -----------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scaled-down regression guards for the paper's headline *shapes*: if a
/// change breaks sub-linear HLO memory, the NAIM memory staircase, the
/// selectivity knee, or the Figure 1 orderings, these tests fail long
/// before anyone stares at a bench table. Each uses a miniature workload so
/// the whole file runs in seconds.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace scmo;
using namespace scmo::test;

namespace {

struct BuildRun {
  BuildResult Build;
  RunResult Run;
};

BuildRun buildAndRunGP(const GeneratedProgram &GP, CompileOptions Opts,
                       const ProfileDb *Db, bool Execute = true) {
  BuildRun Out;
  CompilerSession Session(Opts);
  EXPECT_TRUE(Session.addGenerated(GP)) << Session.firstError();
  if (Db)
    Session.attachProfile(*Db);
  Out.Build = Session.build();
  EXPECT_TRUE(Out.Build.Ok) << Out.Build.Error;
  if (Execute && Out.Build.Ok) {
    Out.Run = runExecutable(Out.Build.Exe);
    EXPECT_TRUE(Out.Run.Ok) << Out.Run.Error;
  }
  return Out;
}

} // namespace

TEST(Shape, Fig1OrderingOnAnMcadLikeApp) {
  GeneratedProgram GP = generateProgram(mcadLikeParams(25000, 1));
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty()) << Error;

  CompileOptions O2;
  O2.Level = OptLevel::O2;
  CompileOptions O2P = O2;
  O2P.Pbo = true;
  CompileOptions O4P;
  O4P.Level = OptLevel::O4;
  O4P.Pbo = true;

  uint64_t Base = buildAndRunGP(GP, O2, nullptr).Run.Cycles;
  uint64_t Pbo = buildAndRunGP(GP, O2P, &Db).Run.Cycles;
  uint64_t CmoPbo = buildAndRunGP(GP, O4P, &Db).Run.Cycles;
  EXPECT_LE(Pbo, Base);
  EXPECT_LT(CmoPbo, Base);
  EXPECT_LE(CmoPbo, Pbo);
}

TEST(Shape, Fig4HloMemoryIsSubLinear) {
  // Quadruple the program size under fixed NAIM thresholds (a 24 MiB
  // machine): at 40k lines the budget does not bind, at 160k it does. Each
  // routine's IL is freed once it is lowered, which leaves the small point
  // near the frontend's IL and the large one near the budget; both must
  // stay there, and bytes per line must still fall as the program grows.
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.Jobs = 1; // The sampled HLO peak moves with worker interleaving.
  Opts.Naim = NaimConfig::autoFor(24ull << 20);
  auto hloPeakAt = [&](uint64_t Lines) {
    GeneratedProgram GP = generateProgram(mcadLikeParams(Lines, 1));
    return buildAndRunGP(GP, Opts, nullptr, /*Execute=*/false)
        .Build.HloPeakBytes;
  };
  uint64_t Small = hloPeakAt(40000);
  uint64_t Large = hloPeakAt(160000);
  EXPECT_LE(Small, 8ull << 20) << "HLO peak at 40k lines: " << Small;
  EXPECT_LE(Large, 21ull << 20) << "HLO peak at 160k lines: " << Large;
  EXPECT_LT(Large, Small * 4) << "HLO memory is no longer sub-linear "
                              << Small << " -> " << Large;
}

TEST(Shape, Fig5NaimMemoryStaircase) {
  GeneratedProgram GP = generateProgram(mcadLikeParams(25000, 1));
  auto peakWith = [&](NaimMode Mode) {
    CompileOptions Opts;
    Opts.Level = OptLevel::O4;
    Opts.Naim.Mode = Mode;
    Opts.Jobs = 1; // The sampled HLO peak moves with worker interleaving.
    Opts.Naim.ExpandedCacheBytes = 512 << 10;
    Opts.Naim.CompactResidentBytes = 256 << 10;
    return buildAndRunGP(GP, Opts, nullptr, false).Build.HloPeakBytes;
  };
  uint64_t Off = peakWith(NaimMode::Off);
  uint64_t Ir = peakWith(NaimMode::CompactIr);
  uint64_t IrSt = peakWith(NaimMode::CompactIrSt);
  uint64_t Offload = peakWith(NaimMode::Offload);
  EXPECT_LT(Ir * 2, Off);       // IR compaction halves memory at least.
  EXPECT_LE(IrSt, Ir);          // ST compaction only helps.
  EXPECT_LT(Offload, IrSt);     // Offloading shrinks the compact pool too.
}

TEST(Shape, Fig6SelectivityKnee) {
  GeneratedProgram GP = generateProgram(mcadLikeParams(30000, 1));
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  auto cyclesAt = [&](double Pct) {
    CompileOptions Opts;
    Opts.Level = OptLevel::O4;
    Opts.Pbo = true;
    Opts.SelectivityPercent = Pct;
    return buildAndRunGP(GP, Opts, &Db).Run.Cycles;
  };
  uint64_t None = cyclesAt(0.0);
  uint64_t Knee = cyclesAt(2.0);
  uint64_t Full = cyclesAt(99.99);
  // Selecting the hot couple of percent of sites captures most of the full
  // benefit (paper: "about 80% of the code has no appreciable effect").
  ASSERT_LT(Full, None);
  uint64_t FullGain = None - Full;
  uint64_t KneeGain = None > Knee ? None - Knee : 0;
  EXPECT_GT(KneeGain * 2, FullGain)
      << "knee gain " << KneeGain << " vs full gain " << FullGain;
}

TEST(Shape, PureCmoHoldsMoreWpaStateThanSelective) {
  GeneratedProgram GP = generateProgram(mcadLikeParams(50000, 1));
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  uint64_t Machine = GP.TotalLines * 280;
  CompileOptions Pure;
  Pure.Level = OptLevel::O4;
  Pure.Naim = NaimConfig::autoFor(Machine);
  CompileOptions Guided = Pure;
  Guided.Pbo = true;
  Guided.SelectivityPercent = 5.0;
  uint64_t PureState = buildAndRunGP(GP, Pure, nullptr, false)
                           .Build.Stats.get("wpa.snapshot_bytes");
  uint64_t GuidedState = buildAndRunGP(GP, Guided, &Db, false)
                             .Build.Stats.get("wpa.snapshot_bytes");
  // The Section 5 direction: with no profile to focus it, the optimizer
  // works (and holds optimizer state for) the whole program. Both compiles'
  // HLO peaks sit at the shared NAIM budget, so the direction shows in the
  // plan's callee snapshots — see EXPERIMENTS.md for the infeasibility
  // discussion.
  EXPECT_GT(PureState, 2 * GuidedState)
      << "pure " << PureState << " vs guided " << GuidedState;
}

TEST(Shape, WpaPlanningKeepsLoaderTrafficSingleVisit) {
  // The WHOPR-style split strengthens the Section 4.3 cache-scheduling
  // property: the planner decides every inline from summaries, and LTRANS
  // applies each routine's whole plan under one acquire. Loader traffic
  // therefore scales with the routine count (a few single-visit scans per
  // routine), not with the operation count — the serial inliner's
  // two-acquires-per-inline churn is gone entirely.
  GeneratedProgram GP = generateProgram(mcadLikeParams(20000, 1));
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.Naim.Mode = NaimMode::CompactIr;
  Opts.Naim.ExpandedCacheBytes = 256 << 10;
  BuildRun Out = buildAndRunGP(GP, Opts, nullptr, false);
  const LoaderStats &L = Out.Build.Loader;
  ASSERT_GT(L.Compactions, 0u) << "cache never under pressure; test is moot";
  uint64_t Inlines = Out.Build.Stats.get("inline.sites");
  ASSERT_GT(Inlines, 100u) << "too few inlines to exercise the claim";
  uint64_t Routines = Out.Build.Stats.get("summary.routines_scanned");
  ASSERT_GT(Routines, 0u);
  // Each routine is visited a bounded number of times across the whole
  // pipeline (summary scan, snapshot, LTRANS, LLO) regardless of how many
  // inline operations land in it.
  EXPECT_LT(L.Acquires, Routines * 8)
      << L.Acquires << " acquires for " << Routines << " routines and "
      << Inlines << " inlines";
}
