//===- tests/ProfileTests.cpp ---------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "frontend/Frontend.h"
#include "ir/Checksum.h"
#include "profile/Probes.h"
#include "profile/ProfileDb.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <unistd.h>

using namespace scmo;
using namespace scmo::test;

namespace {

const char *LoopSrc = R"(
func work(n) {
  var s = 0;
  var i = 0;
  while (i < n) {
    if (i % 3 == 0) { s = s + 2; } else { s = s + 1; }
    i = i + 1;
  }
  return s;
}
func main() {
  print work(30);
  return 0;
}
)";

} // namespace

TEST(Probes, EveryBlockGetsAnEntryProbe) {
  Program P;
  FrontendResult FR = compileSource(P, "m", LoopSrc);
  ASSERT_TRUE(FR.Ok);
  ProbeTable Table = instrumentProgram(P);
  // Per block: one entry probe; per conditional branch: one taken probe.
  size_t Blocks = 0, Branches = 0;
  for (RoutineId R = 0; R != P.numRoutines(); ++R) {
    const RoutineBody &Body = P.body(R);
    Blocks += Body.Blocks.size();
    for (const BasicBlock &BB : Body.Blocks) {
      EXPECT_EQ(BB.Instrs.front()->Op, Opcode::Probe);
      if (BB.terminator()->Op == Opcode::Br) {
        ++Branches;
        EXPECT_NE(BB.terminator()->ProbeId, InvalidId);
      }
    }
  }
  EXPECT_EQ(Table.size(), Blocks + Branches);
}

TEST(Probes, InstrumentedRunProducesExactCounts) {
  GeneratedProgram GP;
  GP.Modules.push_back({"m", LoopSrc, 0});
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  const RoutineProfile *RP = Db.lookup("work");
  ASSERT_NE(RP, nullptr);
  EXPECT_EQ(RP->entryCount(), 1u); // Called once.
  // The loop body executed 30 times: some block must carry count 30.
  bool Found30 = false;
  for (uint64_t C : RP->BlockCounts)
    if (C == 30)
      Found30 = true;
  EXPECT_TRUE(Found30);
  // The then-arm of i%3==0 ran 10 times.
  bool Found10 = false;
  for (uint64_t C : RP->BlockCounts)
    if (C == 10)
      Found10 = true;
  EXPECT_TRUE(Found10);
}

TEST(ProfileDb, SerializeParseRoundTrip) {
  ProfileDb Db;
  RoutineProfile RP;
  RP.Checksum = 0xdeadbeef;
  RP.BlockCounts = {5, 0, 123456789};
  RP.TakenCounts = {0, 0, 42};
  Db.insert("mod:func", RP);
  std::string Text = Db.serialize();
  ProfileDb Out;
  ASSERT_TRUE(ProfileDb::parse(Text, Out));
  const RoutineProfile *Got = Out.lookup("mod:func");
  ASSERT_NE(Got, nullptr);
  EXPECT_EQ(Got->Checksum, 0xdeadbeefu);
  EXPECT_EQ(Got->BlockCounts, RP.BlockCounts);
  EXPECT_EQ(Got->TakenCounts, RP.TakenCounts);
}

TEST(ProfileDb, ParseRejectsGarbage) {
  ProfileDb Out;
  EXPECT_FALSE(ProfileDb::parse("not-a-profile 3", Out));
  EXPECT_FALSE(ProfileDb::parse("scmo-profile-v1 1\nfoo 1", Out));
}

TEST(ProfileDb, BlockCountsBeyondTheTextAreRejectedNotAllocated) {
  // 2^40 blocks would ask for 16 TiB; the text cannot hold even one.
  ProfileDb Out;
  RoutineProfile RP;
  RP.Checksum = 5;
  RP.BlockCounts = {1};
  RP.TakenCounts = {0};
  Out.insert("kept:entry", RP);
  std::string Before = Out.serialize();
  EXPECT_FALSE(
      ProfileDb::parse("scmo-profile-v1 1\nmain 0 1099511627776\n", Out));
  EXPECT_FALSE(ProfileDb::parse("scmo-profile-v1 1\nmain 0 300000000\n"
                                "1 0\n2 0\n",
                                Out));
  EXPECT_EQ(Out.serialize(), Before);

  // The same bytes on disk: the loader a build uses fails cleanly too.
  char Path[] = "/tmp/scmo-profile-XXXXXX";
  int Fd = mkstemp(Path);
  ASSERT_GE(Fd, 0);
  const char Bad[] = "scmo-profile-v1 1\nmain 0 1099511627776\n";
  ASSERT_EQ(write(Fd, Bad, sizeof(Bad) - 1), ssize_t(sizeof(Bad) - 1));
  close(Fd);
  ProfileDb Loaded;
  EXPECT_FALSE(loadProfileDb(Path, Loaded));
  EXPECT_TRUE(Loaded.empty());
  unlink(Path);

  // The tightest honest text still parses: a last block line without its
  // newline, and an empty routine at the very end.
  ASSERT_TRUE(
      ProfileDb::parse("scmo-profile-v1 2\na 1 2\n3 4\n5 6\nb 7 0", Out));
  ASSERT_NE(Out.lookup("a"), nullptr);
  EXPECT_EQ(Out.lookup("a")->TakenCounts, (std::vector<uint64_t>{4, 6}));
  ASSERT_NE(Out.lookup("b"), nullptr);
  EXPECT_EQ(Out.lookup("kept:entry"), nullptr); // Replaced, not merged.
}

TEST(ProfileDb, FingerprintTracksEveryFieldAndIgnoresInsertionOrder) {
  auto entry = [](uint64_t Checksum, std::vector<uint64_t> Counts,
                  std::vector<uint64_t> Taken) {
    RoutineProfile RP;
    RP.Checksum = Checksum;
    RP.BlockCounts = std::move(Counts);
    RP.TakenCounts = std::move(Taken);
    return RP;
  };
  ProfileDb Base;
  Base.insert("m:a", entry(1, {10, 4}, {3, 0}));
  Base.insert("m:b", entry(2, {7}, {1}));
  Base.insert("n:c", entry(3, {}, {}));
  uint64_t Fp = Base.fingerprint();

  ProfileDb Reordered;
  Reordered.insert("n:c", entry(3, {}, {}));
  Reordered.insert("m:b", entry(2, {7}, {1}));
  Reordered.insert("m:a", entry(1, {10, 4}, {3, 0}));
  EXPECT_EQ(Reordered.fingerprint(), Fp);

  auto changed = [&](const std::string &Name, RoutineProfile RP) {
    ProfileDb Db = Base;
    Db.insert(Name, std::move(RP));
    return Db.fingerprint();
  };
  EXPECT_NE(changed("m:a", entry(9, {10, 4}, {3, 0})), Fp); // Checksum.
  EXPECT_NE(changed("m:a", entry(1, {11, 4}, {3, 0})), Fp); // Count.
  EXPECT_NE(changed("m:a", entry(1, {10, 4}, {3, 1})), Fp); // Taken.
  EXPECT_NE(changed("m:a", entry(1, {10, 4, 0}, {3, 0, 0})), Fp); // Blocks.
  EXPECT_NE(changed("n:d", entry(0, {}, {})), Fp); // One more entry.
  ProfileDb Renamed;
  Renamed.insert("m:a", entry(1, {10, 4}, {3, 0}));
  Renamed.insert("m:bb", entry(2, {7}, {1}));
  Renamed.insert("n:c", entry(3, {}, {}));
  EXPECT_NE(Renamed.fingerprint(), Fp); // Name.
  EXPECT_NE(ProfileDb().fingerprint(), Fp);
}

TEST(ProfileDb, MergeAccumulatesMatchingRuns) {
  ProfileDb A, B;
  RoutineProfile RP;
  RP.Checksum = 7;
  RP.BlockCounts = {10, 20};
  RP.TakenCounts = {1, 2};
  A.insert("f", RP);
  B.insert("f", RP);
  A.merge(B);
  const RoutineProfile *Got = A.lookup("f");
  EXPECT_EQ(Got->BlockCounts[0], 20u);
  EXPECT_EQ(Got->TakenCounts[1], 4u);
}

TEST(ProfileDb, MergeReplacesOnChecksumMismatch) {
  ProfileDb A, B;
  RoutineProfile Old;
  Old.Checksum = 1;
  Old.BlockCounts = {100};
  Old.TakenCounts = {0};
  A.insert("f", Old);
  RoutineProfile New;
  New.Checksum = 2;
  New.BlockCounts = {5};
  New.TakenCounts = {0};
  B.insert("f", New);
  A.merge(B);
  EXPECT_EQ(A.lookup("f")->Checksum, 2u);
  EXPECT_EQ(A.lookup("f")->BlockCounts[0], 5u);
}

TEST(ProfileDb, CorrelationMatchesByChecksum) {
  Program P;
  FrontendResult FR = compileSource(P, "m", LoopSrc);
  ASSERT_TRUE(FR.Ok);
  RoutineId Work = P.findRoutine("work");
  P.routine(Work).Checksum = computeChecksum(P.body(Work));
  ProfileDb Db;
  RoutineProfile RP;
  RP.Checksum = P.routine(Work).Checksum;
  RP.BlockCounts.assign(P.body(Work).Blocks.size(), 3);
  RP.TakenCounts.assign(P.body(Work).Blocks.size(), 1);
  Db.insert("work", RP);
  CorrelationStats Stats;
  EXPECT_TRUE(Db.correlate(P, Work, P.body(Work), Stats));
  EXPECT_TRUE(P.body(Work).HasProfile);
  EXPECT_EQ(P.body(Work).Blocks[0].Freq, 3u);
  EXPECT_EQ(Stats.Matched, 1u);
}

TEST(ProfileDb, StaleProfileIsRejected) {
  // Paper Section 6.2: "as the new code base diverges from the old, the
  // benefits obtained with stale profiles will diminish" — structurally
  // changed routines must not correlate.
  Program P;
  FrontendResult FR = compileSource(P, "m", LoopSrc);
  ASSERT_TRUE(FR.Ok);
  RoutineId Work = P.findRoutine("work");
  P.routine(Work).Checksum = computeChecksum(P.body(Work));
  ProfileDb Db;
  RoutineProfile RP;
  RP.Checksum = P.routine(Work).Checksum + 1; // Stale.
  RP.BlockCounts.assign(P.body(Work).Blocks.size(), 3);
  RP.TakenCounts.assign(P.body(Work).Blocks.size(), 1);
  Db.insert("work", RP);
  CorrelationStats Stats;
  EXPECT_FALSE(Db.correlate(P, Work, P.body(Work), Stats));
  EXPECT_FALSE(P.body(Work).HasProfile);
  EXPECT_EQ(Stats.Stale, 1u);
}

TEST(ProfileDb, MissingProfileIsCounted) {
  Program P;
  FrontendResult FR = compileSource(P, "m", LoopSrc);
  ASSERT_TRUE(FR.Ok);
  RoutineId Work = P.findRoutine("work");
  ProfileDb Db;
  CorrelationStats Stats;
  EXPECT_FALSE(Db.correlate(P, Work, P.body(Work), Stats));
  EXPECT_EQ(Stats.Missing, 1u);
}

TEST(ProfileDb, EndToEndStaleSourceStillRunsCorrectly) {
  // Train on one version, compile a modified version with the stale
  // database attached: behaviour must be unaffected (stale data dropped).
  GeneratedProgram Old;
  Old.Modules.push_back({"m", LoopSrc, 0});
  std::string Error;
  ProfileDb Db = trainProfile(Old, Error);
  ASSERT_TRUE(Error.empty()) << Error;

  std::string NewSrc = LoopSrc;
  // Structural change: different modulus constant keeps the checksum equal?
  // No: add a statement so block shapes change.
  size_t Pos = NewSrc.find("var s = 0;");
  NewSrc.insert(Pos, "var extra = n * 2; if (extra > 100) { s = 0; } ");
  Pos = NewSrc.find("var s = 0;");

  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.Pbo = true;
  CompilerSession Session(Opts);
  // The edited function fails to parse? Build with the original declaration
  // ordering; 'extra' inserted before 's' is fine, but it references 's'
  // before declaration — keep it simple: just verify the stale DB is
  // tolerated on a *renamed* routine set instead.
  ASSERT_TRUE(Session.addSource("m", R"(
func work(n) {
  var s = 1;
  var i = 0;
  while (i < n) {
    s = s + i;
    i = i + 1;
  }
  return s;
}
func main() { print work(10); return 0; }
)"));
  Session.attachProfile(Db);
  BuildResult Build = Session.build();
  ASSERT_TRUE(Build.Ok) << Build.Error;
  EXPECT_GT(Build.Correlation.Stale + Build.Correlation.Missing, 0u);
  RunResult Run = runExecutable(Build.Exe);
  ASSERT_TRUE(Run.Ok);
  EXPECT_EQ(Run.FirstOutputs[0], 46);
}
