//===- tests/IncrementalTests.cpp -----------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental-rebuild contract of the artifact cache (scmoc
/// --incremental --cache-dir): a warm build is byte-identical to a cold one
/// at any worker count; editing one module invalidates exactly that
/// module's unit (the whole CMO set if it is a CMO member, just the module
/// if it is default-set); a profile-database change invalidates every
/// profile-dependent unit; an option change invalidates everything; a
/// corrupt cache entry degrades to recompilation, never to wrong code.
/// Source-keyed module objects extend the contract to the frontend: an
/// unchanged module is replayed from its IL object, never re-parsed, with
/// the same bytes out.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "cache/ArtifactCache.h"
#include "cache/CacheFormat.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

using namespace scmo;
using namespace scmo::test;

namespace {

GeneratedProgram testProgram(uint64_t Seed = 31) {
  WorkloadParams Params;
  Params.Seed = Seed;
  Params.NumModules = 6;
  Params.ColdRoutinesPerModule = 5;
  Params.HotRoutines = 6;
  Params.OuterIterations = 200;
  return generateProgram(Params);
}

/// A fresh cache directory under /tmp; leaked on purpose (tests are
/// short-lived and the driver cleans /tmp).
std::string freshCacheDir() {
  char Dir[] = "/tmp/scmo-cache-XXXXXX";
  EXPECT_NE(mkdtemp(Dir), nullptr);
  return Dir;
}

/// One build against \p CacheDir (empty = caching off). Returns the result
/// plus the session's shared-call-graph reuse counter.
struct IncBuild {
  BuildResult Build;
  uint64_t GraphReuses = 0;
};

IncBuild buildWithCache(const GeneratedProgram &GP,
                        const std::string &CacheDir, CompileOptions Opts,
                        const ProfileDb *Db = nullptr) {
  if (!CacheDir.empty()) {
    Opts.Incremental = true;
    Opts.CacheDir = CacheDir;
  }
  CompilerSession Session(Opts);
  EXPECT_TRUE(Session.addGenerated(GP)) << Session.firstError();
  if (Db)
    Session.attachProfile(*Db);
  IncBuild Out;
  Out.Build = Session.build();
  Out.GraphReuses = Session.program().callGraphReuses();
  return Out;
}

/// Byte-level equality of two executables (mirrors ParallelTests).
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

/// Appends a small well-formed routine to module \p Idx — the canonical
/// "developer edited one file" event.
GeneratedProgram editModule(GeneratedProgram GP, size_t Idx) {
  GP.Modules[Idx].Source += "\nfunc edit_probe(x, k) {\n"
                            "  var t = x * 3 + k;\n"
                            "  return t % 97;\n"
                            "}\n";
  return GP;
}

uint64_t stat(const BuildResult &B, const char *Name) {
  return B.Stats.get(Name);
}

const StageMetrics *stage(const BuildResult &B, const char *Name) {
  for (const StageMetrics &M : B.Stages)
    if (M.Name == Name)
      return &M;
  return nullptr;
}

} // namespace

//===----------------------------------------------------------------------===//
// Warm == cold, at every worker count
//===----------------------------------------------------------------------===//

TEST(Incremental, WarmBuildIsByteIdenticalAndSkipsOptimization) {
  GeneratedProgram GP = testProgram();
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.Pbo = true;
  Opts.Jobs = 1;

  std::string Dir = freshCacheDir();
  IncBuild Cold = buildWithCache(GP, Dir, Opts, &Db);
  ASSERT_TRUE(Cold.Build.Ok) << Cold.Build.Error;
  EXPECT_GT(stat(Cold.Build, "cache.misses"), 0u);
  EXPECT_GT(stat(Cold.Build, "cache.stores"), 0u);
  EXPECT_EQ(stat(Cold.Build, "cache.hits"), 0u);

  // The warm rebuild must skip HLO and LLO entirely and reproduce the cold
  // executable bit for bit — at the serial width and at a wide one.
  for (unsigned Jobs : {1u, 8u}) {
    CompileOptions WOpts = Opts;
    WOpts.Jobs = Jobs;
    IncBuild Warm = buildWithCache(GP, Dir, WOpts, &Db);
    ASSERT_TRUE(Warm.Build.Ok) << Warm.Build.Error;
    EXPECT_TRUE(exesIdentical(Cold.Build.Exe, Warm.Build.Exe))
        << "jobs=" << Jobs;
    EXPECT_GT(stat(Warm.Build, "cache.hits"), 0u) << "jobs=" << Jobs;
    EXPECT_EQ(stat(Warm.Build, "cache.misses"), 0u) << "jobs=" << Jobs;
    EXPECT_GT(stat(Warm.Build, "cache.skip.hlo"), 0u) << "jobs=" << Jobs;
    EXPECT_GT(stat(Warm.Build, "cache.skip.llo"), 0u) << "jobs=" << Jobs;
    const StageMetrics *Wpa = stage(Warm.Build, "wpa");
    const StageMetrics *Ltrans = stage(Warm.Build, "ltrans");
    const StageMetrics *Llo = stage(Warm.Build, "llo");
    ASSERT_NE(Wpa, nullptr);
    ASSERT_NE(Ltrans, nullptr);
    ASSERT_NE(Llo, nullptr);
    EXPECT_TRUE(Wpa->Skipped) << "jobs=" << Jobs;
    EXPECT_TRUE(Ltrans->Skipped) << "jobs=" << Jobs;
    EXPECT_TRUE(Llo->Skipped) << "jobs=" << Jobs;
  }
}

TEST(Incremental, CachedBuildMatchesUncachedBuild) {
  // The cache must be invisible in the output: cold-with-cache, warm, and
  // never-cached builds all produce the same bytes.
  GeneratedProgram GP = testProgram(32);
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  IncBuild Plain = buildWithCache(GP, "", Opts);
  ASSERT_TRUE(Plain.Build.Ok) << Plain.Build.Error;
  std::string Dir = freshCacheDir();
  IncBuild Cold = buildWithCache(GP, Dir, Opts);
  ASSERT_TRUE(Cold.Build.Ok) << Cold.Build.Error;
  IncBuild Warm = buildWithCache(GP, Dir, Opts);
  ASSERT_TRUE(Warm.Build.Ok) << Warm.Build.Error;
  EXPECT_TRUE(exesIdentical(Plain.Build.Exe, Cold.Build.Exe));
  EXPECT_TRUE(exesIdentical(Plain.Build.Exe, Warm.Build.Exe));
}

//===----------------------------------------------------------------------===//
// Invalidation granularity
//===----------------------------------------------------------------------===//

TEST(Incremental, ModuleEditInvalidatesOnlyItsUnit) {
  // At O2 every module is its own cache unit: editing one module must miss
  // exactly one unit and hit all the others.
  GeneratedProgram GP = testProgram(33);
  CompileOptions Opts;
  Opts.Level = OptLevel::O2;
  std::string Dir = freshCacheDir();
  IncBuild Cold = buildWithCache(GP, Dir, Opts);
  ASSERT_TRUE(Cold.Build.Ok) << Cold.Build.Error;
  uint64_t Units = stat(Cold.Build, "cache.misses");
  ASSERT_EQ(Units, GP.Modules.size());

  GeneratedProgram Edited = editModule(GP, 2);
  IncBuild Warm = buildWithCache(Edited, Dir, Opts);
  ASSERT_TRUE(Warm.Build.Ok) << Warm.Build.Error;
  EXPECT_EQ(stat(Warm.Build, "cache.misses"), 1u);
  EXPECT_EQ(stat(Warm.Build, "cache.hits"), Units - 1);

  // Correctness of the mixed (cached + recompiled) link: identical to a
  // from-scratch build of the edited program.
  IncBuild Fresh = buildWithCache(Edited, "", Opts);
  ASSERT_TRUE(Fresh.Build.Ok) << Fresh.Build.Error;
  EXPECT_TRUE(exesIdentical(Fresh.Build.Exe, Warm.Build.Exe));
}

TEST(Incremental, DefaultModuleEditLinksCachedCmoCodeLikeAColdBuild) {
  // The edit-compile loop's shape: O4 +P with selectivity, a CMO unit whose
  // HLO created clones, and one default-set module edited. The warm build
  // links the cached CMO unit's code, clones included, from its stored
  // reference indices next to freshly lowered code, and must reproduce a
  // from-scratch build of the edited sources.
  GeneratedProgram GP = testProgram(34);
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.Pbo = true;
  Opts.SelectivityPercent = 5;
  std::string Dir = freshCacheDir();
  IncBuild Cold = buildWithCache(GP, Dir, Opts, &Db);
  ASSERT_TRUE(Cold.Build.Ok) << Cold.Build.Error;
  ASSERT_GT(stat(Cold.Build, "clone.created"), 0u);
  const SelectivityResult &Sel = Cold.Build.Selectivity;
  ASSERT_FALSE(Sel.CmoModules.empty());
  ASSERT_FALSE(Sel.DefaultModules.empty());
  uint64_t Units = stat(Cold.Build, "cache.misses");
  ASSERT_EQ(Units, 1 + Sel.DefaultModules.size());

  GeneratedProgram Edited = editModule(GP, Sel.DefaultModules.back());
  IncBuild Fresh = buildWithCache(Edited, "", Opts, &Db);
  ASSERT_TRUE(Fresh.Build.Ok) << Fresh.Build.Error;
  for (unsigned Jobs : {1u, 4u}) {
    CompileOptions JOpts = Opts;
    JOpts.Jobs = Jobs;
    std::string JDir = freshCacheDir();
    ASSERT_TRUE(buildWithCache(GP, JDir, JOpts, &Db).Build.Ok);
    IncBuild Warm = buildWithCache(Edited, JDir, JOpts, &Db);
    ASSERT_TRUE(Warm.Build.Ok) << Warm.Build.Error;
    EXPECT_EQ(stat(Warm.Build, "cache.misses"), 1u) << "jobs=" << Jobs;
    EXPECT_EQ(stat(Warm.Build, "cache.hits"), Units - 1) << "jobs=" << Jobs;
    EXPECT_EQ(stat(Warm.Build, "cache.skip.hlo"), 1u) << "jobs=" << Jobs;
    EXPECT_GT(stat(Warm.Build, "cache.skip.llo"), 0u) << "jobs=" << Jobs;
    EXPECT_TRUE(exesIdentical(Fresh.Build.Exe, Warm.Build.Exe))
        << "jobs=" << Jobs;
    EXPECT_EQ(hashExecutable(Fresh.Build.Exe), hashExecutable(Warm.Build.Exe))
        << "jobs=" << Jobs;
  }
}

TEST(Incremental, CmoMemberEditInvalidatesTheWholeSet) {
  // At O4 without selectivity the entire program is one CMO unit — HLO is
  // interprocedural across it, so any member edit invalidates the set.
  GeneratedProgram GP = testProgram(34);
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  std::string Dir = freshCacheDir();
  IncBuild Cold = buildWithCache(GP, Dir, Opts);
  ASSERT_TRUE(Cold.Build.Ok) << Cold.Build.Error;
  ASSERT_EQ(stat(Cold.Build, "cache.misses"), 1u);

  GeneratedProgram Edited = editModule(GP, 0);
  IncBuild Warm = buildWithCache(Edited, Dir, Opts);
  ASSERT_TRUE(Warm.Build.Ok) << Warm.Build.Error;
  EXPECT_EQ(stat(Warm.Build, "cache.misses"), 1u);
  EXPECT_EQ(stat(Warm.Build, "cache.hits"), 0u);

  IncBuild Fresh = buildWithCache(Edited, "", Opts);
  ASSERT_TRUE(Fresh.Build.Ok) << Fresh.Build.Error;
  EXPECT_TRUE(exesIdentical(Fresh.Build.Exe, Warm.Build.Exe));
}

TEST(Incremental, ProfileChangeInvalidatesEverything) {
  // The profile epoch is key material for every unit (block counts steer
  // inlining, layout, spill weights): a different database must miss.
  GeneratedProgram GP = testProgram(35);
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.Pbo = true;
  std::string Dir = freshCacheDir();
  IncBuild Cold = buildWithCache(GP, Dir, Opts, &Db);
  ASSERT_TRUE(Cold.Build.Ok) << Cold.Build.Error;
  uint64_t Units = stat(Cold.Build, "cache.misses");
  ASSERT_GT(Units, 0u);

  // Same IL, same options, doubled counts: a different epoch.
  ProfileDb Doubled = Db;
  Doubled.merge(Db);
  IncBuild Warm = buildWithCache(GP, Dir, Opts, &Doubled);
  ASSERT_TRUE(Warm.Build.Ok) << Warm.Build.Error;
  EXPECT_EQ(stat(Warm.Build, "cache.misses"), Units);
  EXPECT_EQ(stat(Warm.Build, "cache.hits"), 0u);

  // And the original database still hits its own artifacts.
  IncBuild Back = buildWithCache(GP, Dir, Opts, &Db);
  ASSERT_TRUE(Back.Build.Ok) << Back.Build.Error;
  EXPECT_EQ(stat(Back.Build, "cache.hits"), Units);
  EXPECT_TRUE(exesIdentical(Cold.Build.Exe, Back.Build.Exe));
}

TEST(Incremental, OptionChangeInvalidatesEverything) {
  GeneratedProgram GP = testProgram(36);
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  std::string Dir = freshCacheDir();
  IncBuild Cold = buildWithCache(GP, Dir, Opts);
  ASSERT_TRUE(Cold.Build.Ok) << Cold.Build.Error;
  uint64_t Units = stat(Cold.Build, "cache.misses");
  ASSERT_GT(Units, 0u);

  CompileOptions Changed = Opts;
  Changed.Inline.MaxCalleeInstrs += 7; // Any fingerprinted knob will do.
  IncBuild Warm = buildWithCache(GP, Dir, Changed);
  ASSERT_TRUE(Warm.Build.Ok) << Warm.Build.Error;
  EXPECT_EQ(stat(Warm.Build, "cache.hits"), 0u);
  EXPECT_EQ(stat(Warm.Build, "cache.misses"), Units);
}

//===----------------------------------------------------------------------===//
// Fault tolerance
//===----------------------------------------------------------------------===//

TEST(Incremental, CorruptArtifactFallsBackToRecompilation) {
  // Persistently corrupt the first artifact written (the cache-store fault
  // site — the artifact cache's own site, distinct from the NAIM spill
  // path's `store`). The warm build must detect the bad frame, treat it as
  // a miss, recompile, and still produce the cold executable.
  GeneratedProgram GP = testProgram(37);
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.Naim.Mode = NaimMode::Off;
  Opts.Jobs = 1;

  IncBuild Plain = buildWithCache(GP, "", Opts);
  ASSERT_TRUE(Plain.Build.Ok) << Plain.Build.Error;

  std::string Dir = freshCacheDir();
  CompileOptions Inject = Opts;
  Inject.FaultInject = "cache-store:corrupt-nth=1";
  IncBuild Cold = buildWithCache(GP, Dir, Inject);
  ASSERT_TRUE(Cold.Build.Ok) << Cold.Build.Error;
  ASSERT_GT(stat(Cold.Build, "cache.stores"), 0u);
  EXPECT_TRUE(exesIdentical(Plain.Build.Exe, Cold.Build.Exe));

  IncBuild Warm = buildWithCache(GP, Dir, Opts);
  ASSERT_TRUE(Warm.Build.Ok) << Warm.Build.Error;
  EXPECT_GT(stat(Warm.Build, "cache.misses"), 0u);
  EXPECT_TRUE(exesIdentical(Plain.Build.Exe, Warm.Build.Exe));

  // The recompile overwrote the bad artifact: the next build hits.
  IncBuild Healed = buildWithCache(GP, Dir, Opts);
  ASSERT_TRUE(Healed.Build.Ok) << Healed.Build.Error;
  EXPECT_GT(stat(Healed.Build, "cache.hits"), 0u);
  EXPECT_TRUE(exesIdentical(Plain.Build.Exe, Healed.Build.Exe));
}

TEST(Incremental, FormatVersion1ArtifactIsAMissAndIsOverwritten) {
  // Unit artifacts written before the dense code encoding carry payload
  // version 1. Left in a cache directory they must read as misses (never
  // be decoded under the new layout), recompile, and be overwritten so the
  // next build hits again.
  GeneratedProgram GP = testProgram(43);
  CompileOptions Opts;
  Opts.Level = OptLevel::O2;
  Opts.Jobs = 1;
  IncBuild Plain = buildWithCache(GP, "", Opts);
  ASSERT_TRUE(Plain.Build.Ok) << Plain.Build.Error;
  std::string Dir = freshCacheDir();
  IncBuild Cold = buildWithCache(GP, Dir, Opts);
  ASSERT_TRUE(Cold.Build.Ok) << Cold.Build.Error;

  // Re-stamp every unit artifact as version 1 under a valid frame.
  auto unitEntries = [&Dir] {
    std::vector<std::string> Paths;
    for (const auto &E : std::filesystem::directory_iterator(Dir)) {
      std::string Name = E.path().filename().string();
      if (Name.rfind("unit-", 0) == 0 || Name.rfind("mod-", 0) == 0)
        Paths.push_back(E.path().string());
    }
    return Paths;
  };
  auto payloadVersion = [](const std::vector<uint8_t> &Bytes) {
    cachefmt::Reader R(Bytes, cachefmt::FrameBytes);
    return R.u32();
  };
  std::vector<std::string> Units = unitEntries();
  ASSERT_EQ(Units.size(), stat(Cold.Build, "cache.stores"));
  for (const std::string &Path : Units) {
    std::vector<uint8_t> Bytes;
    ASSERT_TRUE(readFile(Path, Bytes));
    ASSERT_EQ(payloadVersion(Bytes), 2u);
    std::vector<uint8_t> Payload(Bytes.begin() + cachefmt::FrameBytes,
                                 Bytes.end());
    Payload[0] = 1;
    Payload[1] = Payload[2] = Payload[3] = 0;
    cachefmt::Sink File;
    cachefmt::frameArtifact(File, Payload);
    File.Bytes.insert(File.Bytes.end(), Payload.begin(), Payload.end());
    ASSERT_TRUE(writeFile(Path, File.Bytes));
  }

  IncBuild Stale = buildWithCache(GP, Dir, Opts);
  ASSERT_TRUE(Stale.Build.Ok) << Stale.Build.Error;
  EXPECT_EQ(stat(Stale.Build, "cache.hits"), 0u);
  EXPECT_EQ(stat(Stale.Build, "cache.misses"), Units.size());
  EXPECT_EQ(stat(Stale.Build, "cache.stores"), Units.size());
  EXPECT_TRUE(exesIdentical(Plain.Build.Exe, Stale.Build.Exe));
  for (const std::string &Path : unitEntries()) {
    std::vector<uint8_t> Bytes;
    ASSERT_TRUE(readFile(Path, Bytes));
    EXPECT_EQ(payloadVersion(Bytes), 2u) << Path;
  }

  IncBuild Warm = buildWithCache(GP, Dir, Opts);
  ASSERT_TRUE(Warm.Build.Ok) << Warm.Build.Error;
  EXPECT_EQ(stat(Warm.Build, "cache.hits"), Units.size());
  EXPECT_EQ(stat(Warm.Build, "cache.misses"), 0u);
  EXPECT_TRUE(exesIdentical(Plain.Build.Exe, Warm.Build.Exe));
}

TEST(Incremental, StoreFailureDegradesGracefully) {
  // A cache that cannot write (full disk) must not fail the build — it
  // just stays cold.
  GeneratedProgram GP = testProgram(38);
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.Naim.Mode = NaimMode::Off;
  Opts.Jobs = 1;
  Opts.FaultInject = "cache-store:fail-nth=1";
  std::string Dir = freshCacheDir();
  IncBuild Cold = buildWithCache(GP, Dir, Opts);
  ASSERT_TRUE(Cold.Build.Ok) << Cold.Build.Error;
  EXPECT_GT(stat(Cold.Build, "cache.store_failures"), 0u);
  IncBuild Plain = buildWithCache(GP, "", Opts);
  ASSERT_TRUE(Plain.Build.Ok);
  EXPECT_TRUE(exesIdentical(Plain.Build.Exe, Cold.Build.Exe));
}

//===----------------------------------------------------------------------===//
// Shared call graph (the HLO passes reuse one Program-cached graph)
//===----------------------------------------------------------------------===//

TEST(Incremental, SharedCallGraphReusesUntilInvalidated) {
  // The mechanism itself: same routine set and no intervening mutation is
  // a reuse; a different set or an invalidation is a rebuild.
  GeneratedProgram GP = testProgram(39);
  CompileOptions Opts;
  CompilerSession Session(Opts);
  ASSERT_TRUE(Session.addGenerated(GP)) << Session.firstError();
  Program &P = Session.program();
  Loader &L = Session.loader();
  std::vector<RoutineId> Set;
  for (RoutineId R = 0; R != P.numRoutines(); ++R)
    if (P.routine(R).IsDefined)
      Set.push_back(R);
  ASSERT_GT(Set.size(), 2u);
  auto Acquire = [&](RoutineId R) -> const RoutineBody * {
    return L.acquireIfDefined(R);
  };
  auto Release = [&](RoutineId R) { L.release(R); };

  const CallGraph &G1 = CallGraph::shared(P, Set, Acquire, Release);
  EXPECT_TRUE(P.callGraphValid());
  EXPECT_EQ(P.callGraphReuses(), 0u);
  const CallGraph &G2 = CallGraph::shared(P, Set, Acquire, Release);
  EXPECT_EQ(&G1, &G2);
  EXPECT_EQ(P.callGraphReuses(), 1u);

  // A different routine set is a different graph: no cross-set reuse.
  std::vector<RoutineId> Partial(Set.begin(), Set.begin() + Set.size() / 2);
  CallGraph::shared(P, Partial, Acquire, Release);
  EXPECT_EQ(P.callGraphReuses(), 1u);

  // Invalidation (what every body-mutating pass calls) forces a rebuild.
  P.invalidateCallGraph();
  EXPECT_FALSE(P.callGraphValid());
  CallGraph::shared(P, Set, Acquire, Release);
  EXPECT_EQ(P.callGraphReuses(), 1u);
  EXPECT_TRUE(P.callGraphValid());
}

TEST(Incremental, HloPlanningNeverInvalidatesTheSharedCallGraph) {
  // End-to-end under the WPA/LTRANS split: planning reads only summaries,
  // so a graph built before HLO survives the whole planning phase — the
  // invalidations all come from LTRANS actually rewriting bodies. The
  // cross-module inline below guarantees at least one rewrite, so the build
  // must end with the shared graph invalidated, and the plan must have
  // found the inline without ever expanding a body through the graph.
  std::vector<std::pair<std::string, std::string>> Sources = {
      {"util", "func helper(x, k) {\n"
               "  var y = x * 2 + k;\n"
               "  return y % 1013;\n"
               "}\n"},
      {"app", "func main() {\n"
              "  var i = 0;\n"
              "  var acc = 0;\n"
              "  while (i < 50) {\n"
              "    acc = acc + helper(i, acc);\n"
              "    i = i + 1;\n"
              "  }\n"
              "  return acc;\n"
              "}\n"}};
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  CompilerSession Session(Opts);
  for (const auto &[Name, Src] : Sources)
    ASSERT_TRUE(Session.addSource(Name, Src)) << Session.firstError();
  BuildResult Build = Session.build();
  ASSERT_TRUE(Build.Ok) << Build.Error;
  EXPECT_GT(Build.Stats.get("inline.sites"), 0u);
  // LTRANS rewrote bodies, so the last shared graph (if any) is stale.
  EXPECT_FALSE(Session.program().callGraphValid());
}

//===----------------------------------------------------------------------===//
// Source-keyed module objects (the frontend's half of the edit loop)
//===----------------------------------------------------------------------===//

TEST(Incremental, EditedModuleAmongReplayedObjectsMatchesAColdBuild) {
  // Every module but the edited one is replayed from its cached IL object
  // instead of being parsed. The edit shifts the ids of every later module,
  // so the replay must redo name resolution against the current program —
  // and still reproduce a from-scratch build of the edited sources exactly.
  GeneratedProgram GP = testProgram(40);
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.Pbo = true;
  Opts.SelectivityPercent = 50; // A CMO unit plus default-set units.
  GeneratedProgram Edited = editModule(GP, 1);
  IncBuild Fresh = buildWithCache(Edited, "", Opts, &Db);
  ASSERT_TRUE(Fresh.Build.Ok) << Fresh.Build.Error;
  uint64_t Modules = GP.Modules.size();
  for (unsigned Jobs : {1u, 4u}) {
    CompileOptions JOpts = Opts;
    JOpts.Jobs = Jobs;
    std::string Dir = freshCacheDir();
    IncBuild Cold = buildWithCache(GP, Dir, JOpts, &Db);
    ASSERT_TRUE(Cold.Build.Ok) << Cold.Build.Error;
    EXPECT_EQ(stat(Cold.Build, "cache.source_misses"), Modules);
    EXPECT_EQ(stat(Cold.Build, "cache.source_stores"), Modules);
    EXPECT_EQ(stat(Cold.Build, "cache.source_hits"), 0u);

    IncBuild Warm = buildWithCache(Edited, Dir, JOpts, &Db);
    ASSERT_TRUE(Warm.Build.Ok) << Warm.Build.Error;
    EXPECT_EQ(stat(Warm.Build, "cache.source_hits"), Modules - 1);
    EXPECT_EQ(stat(Warm.Build, "cache.source_misses"), 1u);
    EXPECT_EQ(stat(Warm.Build, "cache.source_stores"), 1u);
    EXPECT_TRUE(exesIdentical(Fresh.Build.Exe, Warm.Build.Exe))
        << "jobs=" << Jobs;
  }
}

namespace {

using Sources = std::vector<std::pair<std::string, std::string>>;

/// An O2 build of \p Srcs, in order, against \p Dir (empty = caching off).
BuildResult buildSources(const Sources &Srcs, const std::string &Dir) {
  CompileOptions Opts;
  Opts.Level = OptLevel::O2;
  if (!Dir.empty()) {
    Opts.Incremental = true;
    Opts.CacheDir = Dir;
  }
  CompilerSession Session(Opts);
  for (const auto &[Name, Src] : Srcs)
    Session.addSource(Name, Src);
  return Session.build();
}

} // namespace

TEST(Incremental, EntryThatNoLongerLinksIsAMissAndTheFrontendReports) {
  // app's source is unchanged, but lib's edit changed the arity app calls.
  // Replaying app's object would have to bind the call anyway; instead the
  // entry is a miss, app is parsed, and the build fails exactly as a cold
  // build of the same sources does.
  Sources Before = {{"lib", "func f(a) { return a + 1; }\n"},
                    {"app", "func main() { return f(41); }\n"}};
  Sources After = Before;
  After[0].second = "func f(a, b) { return a + b; }\n";
  std::string Dir = freshCacheDir();
  BuildResult Cold = buildSources(Before, Dir);
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  BuildResult Plain = buildSources(After, "");
  ASSERT_FALSE(Plain.Ok);
  BuildResult Warm = buildSources(After, Dir);
  ASSERT_FALSE(Warm.Ok);
  EXPECT_EQ(Warm.Error, Plain.Error);
  // Back to the original sources: both entries replay again.
  BuildResult Back = buildSources(Before, Dir);
  ASSERT_TRUE(Back.Ok) << Back.Error;
  EXPECT_EQ(Back.Stats.get("cache.source_hits"), 2u);
  EXPECT_TRUE(exesIdentical(Cold.Exe, Back.Exe));
}

TEST(Incremental, CalleeArityEditFailsVerificationWarmAsCold) {
  // app calls f before lib declares it, so app's IL and both of its cache
  // entries name f only by name; app's source entry still replays. lib's
  // edit changes f's arity, so app's call no longer verifies: the warm
  // build must fail as the cold one does, not link app's stored code.
  Sources Before = {{"app", "func main() { print(f(1)); return 0; }\n"},
                    {"lib", "func f(x) { return x + 1; }\n"}};
  Sources After = Before;
  After[1].second = "func f(x, y) { return x + y; }\n";
  std::string Dir = freshCacheDir();
  BuildResult Cold = buildSources(Before, Dir);
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  BuildResult Plain = buildSources(After, "");
  ASSERT_FALSE(Plain.Ok);
  EXPECT_EQ(Plain.Error, "error[scmo-verify] main bb0 #0 line 1: (call) call "
                         "argument count mismatch");
  BuildResult Warm = buildSources(After, Dir);
  ASSERT_FALSE(Warm.Ok);
  EXPECT_EQ(Warm.Stats.get("cache.source_hits"), 1u);
  EXPECT_EQ(Warm.Error, Plain.Error);
}

TEST(Incremental, CorruptSourceEntryFallsBackToParsing) {
  GeneratedProgram GP = testProgram(41);
  CompileOptions Opts;
  Opts.Level = OptLevel::O2;
  Opts.Jobs = 1;
  IncBuild Plain = buildWithCache(GP, "", Opts);
  ASSERT_TRUE(Plain.Build.Ok) << Plain.Build.Error;
  uint64_t Modules = GP.Modules.size();
  std::string Dir = freshCacheDir();
  IncBuild Cold = buildWithCache(GP, Dir, Opts);
  ASSERT_TRUE(Cold.Build.Ok) << Cold.Build.Error;

  // Transient corruption of the first entry read (fault site cache-load,
  // which source entries are read through before any unit artifact): the
  // frame checksum rejects it, the module is parsed, the bytes are equal.
  CompileOptions Flip = Opts;
  Flip.FaultInject = "cache-load:flip-nth=1";
  IncBuild Warm = buildWithCache(GP, Dir, Flip);
  ASSERT_TRUE(Warm.Build.Ok) << Warm.Build.Error;
  EXPECT_EQ(stat(Warm.Build, "cache.source_misses"), 1u);
  EXPECT_EQ(stat(Warm.Build, "cache.source_hits"), Modules - 1);
  EXPECT_TRUE(exesIdentical(Plain.Build.Exe, Warm.Build.Exe));

  // Persistent corruption: one payload byte of every entry flipped on
  // disk. Each is a plain miss that parses its module and overwrites the
  // entry, so the following build replays everything again.
  unsigned Damaged = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    std::string Name = E.path().filename().string();
    if (Name.rfind("src-", 0) != 0)
      continue;
    std::vector<uint8_t> Bytes;
    ASSERT_TRUE(readFile(E.path().string(), Bytes));
    Bytes[Bytes.size() / 2] ^= 0x10;
    ASSERT_TRUE(writeFile(E.path().string(), Bytes));
    ++Damaged;
  }
  ASSERT_EQ(Damaged, Modules);
  IncBuild Broken = buildWithCache(GP, Dir, Opts);
  ASSERT_TRUE(Broken.Build.Ok) << Broken.Build.Error;
  EXPECT_EQ(stat(Broken.Build, "cache.source_misses"), Modules);
  EXPECT_EQ(stat(Broken.Build, "cache.source_stores"), Modules);
  EXPECT_TRUE(exesIdentical(Plain.Build.Exe, Broken.Build.Exe));
  IncBuild Healed = buildWithCache(GP, Dir, Opts);
  ASSERT_TRUE(Healed.Build.Ok) << Healed.Build.Error;
  EXPECT_EQ(stat(Healed.Build, "cache.source_hits"), Modules);
  EXPECT_TRUE(exesIdentical(Plain.Build.Exe, Healed.Build.Exe));
}

TEST(Incremental, StoredContentHashesMatchRecomputedOnes) {
  // The cache plan trusts the hashes a source entry carries instead of
  // re-hashing the IL; they must be exactly what contentHash computes —
  // when the module was just parsed (cold) and when it was replayed (warm).
  // Every module's entry is stored cold and replayed warm, and the replayed
  // build links the executable of a build without a cache.
  GeneratedProgram GP = testProgram(42);
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  IncBuild Plain = buildWithCache(GP, "", Opts);
  ASSERT_TRUE(Plain.Build.Ok) << Plain.Build.Error;
  Opts.Incremental = true;
  Opts.CacheDir = freshCacheDir();
  for (const char *Pass : {"cold", "warm"}) {
    CompilerSession Session(Opts);
    ASSERT_TRUE(Session.addGenerated(GP)) << Session.firstError();
    Program &P = Session.program();
    Loader &L = Session.loader();
    unsigned Checked = 0;
    for (RoutineId R = 0; R != P.numRoutines(); ++R) {
      if (!P.routine(R).IsDefined)
        continue;
      uint64_t Stored = 0;
      ASSERT_TRUE(Session.storedContentHash(R, Stored)) << Pass << " " << R;
      EXPECT_EQ(Stored, contentHash(P, L.acquireRead(R))) << Pass << " " << R;
      L.release(R);
      ++Checked;
    }
    EXPECT_GT(Checked, 0u);
    BuildResult Build = Session.build();
    ASSERT_TRUE(Build.Ok) << Build.Error;
    if (std::string(Pass) == "cold") {
      EXPECT_EQ(Build.Stats.get("cache.source_stores"), GP.Modules.size());
    } else {
      EXPECT_EQ(Build.Stats.get("cache.source_hits"), GP.Modules.size());
      EXPECT_TRUE(exesIdentical(Plain.Build.Exe, Build.Exe));
    }
  }
}
