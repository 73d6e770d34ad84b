//===- tests/TortureTests.cpp ---------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash/contention torture for the multi-process cache discipline
/// (cache/CacheDir.h): real builder processes forked against one shared
/// cache directory are SIGKILLed at injector-chosen points mid-store, and
/// the cache must stay consistent — no torn entries, no leaked locks, no
/// tmp litter after a GC sweep — with the next cold+warm build
/// byte-identical to an uncached one at any worker count. The in-process
/// half covers the protocol primitives (contended stores, concurrent
/// writers, GC under a live reader) and runs under TSan; the fork/SIGKILL
/// half is skipped there because TSan does not support fork-heavy tests.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "cache/CacheDir.h"
#include "cache/CacheFormat.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace scmo;
using namespace scmo::test;

// TSan has no real fork support; the fork/SIGKILL tests skip themselves
// there (clang spells the detection __has_feature, GCC __SANITIZE_THREAD__).
#if defined(__SANITIZE_THREAD__)
#define SCMO_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SCMO_UNDER_TSAN 1
#endif
#endif
#ifndef SCMO_UNDER_TSAN
#define SCMO_UNDER_TSAN 0
#endif

namespace {

GeneratedProgram testProgram(uint64_t Seed = 47) {
  WorkloadParams Params;
  Params.Seed = Seed;
  Params.NumModules = 6;
  Params.ColdRoutinesPerModule = 5;
  Params.HotRoutines = 6;
  Params.OuterIterations = 200;
  return generateProgram(Params);
}

std::string freshDir() {
  char Dir[] = "/tmp/scmo-torture-XXXXXX";
  EXPECT_NE(mkdtemp(Dir), nullptr);
  return Dir;
}

std::vector<std::string> listDir(const std::string &Dir) {
  std::vector<std::string> Names;
  DIR *D = opendir(Dir.c_str());
  if (!D)
    return Names;
  while (struct dirent *E = readdir(D)) {
    std::string Name = E->d_name;
    if (Name != "." && Name != "..")
      Names.push_back(Name);
  }
  closedir(D);
  return Names;
}

bool endsWith(const std::string &S, const std::string &Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

/// Consistency invariant after a GC sweep: no lock files, no tmp litter,
/// every entry frame-valid. Returns "" or a description of the violation.
std::string cacheInconsistency(const std::string &Dir) {
  for (const std::string &Name : listDir(Dir)) {
    if (endsWith(Name, ".lock"))
      return "leaked lock file: " + Name;
    if (Name.find(".tmp.") != std::string::npos)
      return "tmp litter: " + Name;
    if (!endsWith(Name, ".art"))
      return "unexpected file: " + Name;
    std::vector<uint8_t> Bytes;
    if (!readFile(Dir + "/" + Name, Bytes))
      return "unreadable entry: " + Name;
    if (!cachefmt::checkArtifactFrame(Bytes))
      return "torn entry: " + Name;
  }
  return "";
}

size_t countEntries(const std::string &Dir) {
  size_t N = 0;
  for (const std::string &Name : listDir(Dir))
    if (endsWith(Name, ".art"))
      ++N;
  return N;
}

/// A frame-valid artifact body of \p PayloadBytes bytes (what a torn store
/// must never leave behind under its final name).
std::vector<uint8_t> framedEntry(size_t PayloadBytes, uint8_t Fill) {
  std::vector<uint8_t> Payload(PayloadBytes, Fill);
  cachefmt::Sink File;
  cachefmt::frameArtifact(File, Payload);
  File.Bytes.insert(File.Bytes.end(), Payload.begin(), Payload.end());
  return File.Bytes;
}

/// Pins \p Path's mtime to an explicit epoch so GC eviction order is
/// deterministic in tests.
void setMtime(const std::string &Path, time_t Sec) {
  struct timespec Times[2];
  Times[0].tv_sec = Sec;
  Times[0].tv_nsec = 0;
  Times[1] = Times[0];
  ASSERT_EQ(utimensat(AT_FDCWD, Path.c_str(), Times, 0), 0);
}

uint64_t totalEntryBytes(const std::string &Dir) {
  uint64_t Total = 0;
  for (const std::string &Name : listDir(Dir)) {
    if (!endsWith(Name, ".art"))
      continue;
    struct stat St;
    if (::stat((Dir + "/" + Name).c_str(), &St) == 0)
      Total += uint64_t(St.st_size);
  }
  return Total;
}

/// Byte-level equality of two executables (mirrors IncrementalTests).
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

bool hasWarning(const BuildResult &B, CheckCode Code) {
  for (const Diagnostic &D : B.Warnings)
    if (D.Code == Code)
      return true;
  return false;
}

CompileOptions cachedOpts(const std::string &CacheDir, unsigned Jobs = 1) {
  CompileOptions Opts;
  Opts.Level = OptLevel::O2;
  Opts.Jobs = Jobs;
  Opts.Incremental = true;
  Opts.CacheDir = CacheDir;
  return Opts;
}

BuildResult buildGP(const GeneratedProgram &GP, const CompileOptions &Opts) {
  CompilerSession Session(Opts);
  EXPECT_TRUE(Session.addGenerated(GP)) << Session.firstError();
  return Session.build();
}

/// Forks a real builder process against \p CacheDir. The child never runs
/// gtest assertions: it communicates through its exit status (0 = built ok,
/// 3/4/5 = addGenerated / build / hash-write failure) and, when \p HashFile
/// is non-empty, writes the executable hash there for the parent to compare.
/// Under a crash spec the child SIGKILLs itself mid-store instead.
pid_t forkBuilder(const GeneratedProgram &GP, const std::string &CacheDir,
                  const std::string &Inject, unsigned Jobs,
                  const std::string &HashFile) {
  pid_t Pid = ::fork();
  if (Pid != 0)
    return Pid;
  CompileOptions Opts = cachedOpts(CacheDir, Jobs);
  Opts.FaultInject = Inject;
  CompilerSession Session(Opts);
  if (!Session.addGenerated(GP))
    ::_exit(3);
  BuildResult B = Session.build();
  if (!B.Ok)
    ::_exit(4);
  if (!HashFile.empty()) {
    uint64_t H = hashExecutable(B.Exe);
    std::vector<uint8_t> Bytes(sizeof H);
    std::memcpy(Bytes.data(), &H, sizeof H);
    if (!writeFile(HashFile, Bytes))
      ::_exit(5);
  }
  ::_exit(0);
}

bool readHashFile(const std::string &Path, uint64_t &H) {
  std::vector<uint8_t> Bytes;
  if (!readFile(Path, Bytes) || Bytes.size() != sizeof H)
    return false;
  std::memcpy(&H, Bytes.data(), sizeof H);
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Fault-site registry
//===----------------------------------------------------------------------===//

TEST(FaultRegistry, EverySiteParsesWithItsActions) {
  std::string Error;
  // One clause per site, each with an action legal there.
  auto FI = FaultInjector::fromSpec(
      "store:enospc-nth=1,read:flip-nth=1,cache-store:crash-nth=1,"
      "cache-load:fail-nth=1,cache-gc:eintr-nth=1,object-emit:short-nth=1,"
      "profile-write:corrupt-nth=1",
      Error);
  ASSERT_NE(FI, nullptr) << Error;
}

TEST(FaultRegistry, PerSiteCountersAreIndependent) {
  std::string Error;
  auto FI = FaultInjector::fromSpec(
      "cache-store:fail-nth=2,cache-load:flip-nth=1", Error);
  ASSERT_NE(FI, nullptr) << Error;
  // First cache-load op fires even though no cache-store op has happened.
  EXPECT_EQ(FI->next(FaultInjector::Site::CacheLoad),
            FaultInjector::Action::Corrupt);
  // cache-store fires on its own 2nd op, unaffected by the load op above.
  EXPECT_EQ(FI->next(FaultInjector::Site::CacheStore),
            FaultInjector::Action::None);
  EXPECT_EQ(FI->next(FaultInjector::Site::CacheStore),
            FaultInjector::Action::FailIo);
  EXPECT_EQ(FI->opCount(FaultInjector::Site::CacheStore), 2u);
  EXPECT_EQ(FI->opCount(FaultInjector::Site::CacheLoad), 1u);
  EXPECT_EQ(FI->opCount(FaultInjector::Site::CacheGc), 0u);
}

TEST(FaultRegistry, MalformedSpecsNameTheVocabulary) {
  std::string Error;
  EXPECT_EQ(FaultInjector::fromSpec("bogus-site:fail-nth=1", Error), nullptr);
  // The error must teach the full site vocabulary.
  EXPECT_NE(Error.find("cache-store"), std::string::npos) << Error;
  EXPECT_NE(Error.find("profile-write"), std::string::npos) << Error;

  // 'short' is a write-side action; read sites must reject it and list the
  // legal actions.
  Error.clear();
  EXPECT_EQ(FaultInjector::fromSpec("cache-load:short-nth=1", Error), nullptr);
  EXPECT_NE(Error.find("flip"), std::string::npos) << Error;

  // 'flip' is read-side; write sites reject it.
  Error.clear();
  EXPECT_EQ(FaultInjector::fromSpec("cache-store:flip-nth=1", Error), nullptr);
  EXPECT_FALSE(Error.empty());
}

//===----------------------------------------------------------------------===//
// CacheDir protocol primitives (in-process; TSan-clean)
//===----------------------------------------------------------------------===//

TEST(CacheDirProtocol, StoreLoadRoundTrip) {
  std::string Dir = freshDir();
  std::string Path = Dir + "/e1.art";
  std::vector<uint8_t> Bytes = framedEntry(256, 0xAB);

  EXPECT_EQ(cachedir::storeEntry(Path, Bytes, nullptr),
            cachedir::StoreOutcome::Stored);
  // Same key again: content-addressed, so the second writer skips.
  EXPECT_EQ(cachedir::storeEntry(Path, Bytes, nullptr),
            cachedir::StoreOutcome::AlreadyPresent);
  // Overwrite is the self-heal path: it must actually rewrite.
  EXPECT_EQ(cachedir::storeEntry(Path, Bytes, nullptr, 0, 2000,
                                 /*Overwrite=*/true),
            cachedir::StoreOutcome::Stored);

  std::vector<uint8_t> Loaded;
  EXPECT_TRUE(cachedir::loadEntry(Path, Loaded, nullptr));
  EXPECT_EQ(Loaded, Bytes);
  // The store protocol must leave no lock or tmp litter behind.
  EXPECT_EQ(cacheInconsistency(Dir), "");
}

TEST(CacheDirProtocol, ContendedStoreSkipsAfterBoundedWait) {
  std::string Dir = freshDir();
  std::string Path = Dir + "/e1.art";
  std::vector<uint8_t> Bytes = framedEntry(64, 0x11);

  // Hold the entry's lock the way a mid-store writer would.
  int LockFd = ::open((Path + ".lock").c_str(),
                      O_CREAT | O_RDWR | O_CLOEXEC, 0666);
  ASSERT_GE(LockFd, 0);
  ASSERT_EQ(::flock(LockFd, LOCK_EX), 0);

  // A second writer gives up within the bounded wait and skips its store:
  // the holder is installing the same content-addressed bytes.
  EXPECT_EQ(cachedir::storeEntry(Path, Bytes, nullptr, 0, /*LockWaitMs=*/50),
            cachedir::StoreOutcome::Contended);
  std::vector<uint8_t> Loaded;
  EXPECT_FALSE(cachedir::loadEntry(Path, Loaded, nullptr));

  // Release (as process death would) and the next store succeeds.
  ::flock(LockFd, LOCK_UN);
  ::close(LockFd);
  EXPECT_EQ(cachedir::storeEntry(Path, Bytes, nullptr),
            cachedir::StoreOutcome::Stored);
  EXPECT_TRUE(cachedir::loadEntry(Path, Loaded, nullptr));
  EXPECT_EQ(Loaded, Bytes);
}

TEST(CacheDirProtocol, ConcurrentStoresNeverTearAnEntry) {
  std::string Dir = freshDir();
  std::string Path = Dir + "/e1.art";
  std::vector<uint8_t> Bytes = framedEntry(4096, 0x5C);

  constexpr int Writers = 8;
  std::vector<cachedir::StoreOutcome> Outcomes(Writers);
  std::vector<std::thread> Threads;
  for (int W = 0; W != Writers; ++W)
    Threads.emplace_back([&, W] {
      Outcomes[W] = cachedir::storeEntry(Path, Bytes, nullptr);
    });
  for (std::thread &T : Threads)
    T.join();

  int Stored = 0;
  for (cachedir::StoreOutcome O : Outcomes) {
    EXPECT_NE(O, cachedir::StoreOutcome::Failed);
    if (O == cachedir::StoreOutcome::Stored)
      ++Stored;
  }
  EXPECT_GE(Stored, 1);
  std::vector<uint8_t> Loaded;
  EXPECT_TRUE(cachedir::loadEntry(Path, Loaded, nullptr));
  EXPECT_EQ(Loaded, Bytes);
  EXPECT_EQ(cacheInconsistency(Dir), "");
}

TEST(CacheDirProtocol, GcSweepsStaleLocksAndDeadPidTmps) {
  std::string Dir = freshDir();
  // Three live entries with pinned epochs.
  for (int I = 0; I != 3; ++I) {
    std::string Path = Dir + "/e" + std::to_string(I) + ".art";
    ASSERT_EQ(cachedir::storeEntry(Path, framedEntry(100, uint8_t(I)),
                                   nullptr),
              cachedir::StoreOutcome::Stored);
    setMtime(Path, 1000 + I);
  }
  // An orphaned lock file (its flock is acquirable => owner is gone).
  ASSERT_TRUE(writeFile(Dir + "/dead.art.lock", {}));
  // Tmp litter from a provably dead pid: fork a child that exits
  // immediately and reap it, so kill(pid, 0) yields ESRCH.
  pid_t Dead = ::fork();
  if (Dead == 0)
    ::_exit(0);
  ASSERT_GT(Dead, 0);
  int Status = 0;
  ASSERT_EQ(::waitpid(Dead, &Status, 0), Dead);
  ASSERT_TRUE(writeFile(Dir + "/torn.art.tmp." + std::to_string(Dead),
                        {1, 2, 3}));

  cachedir::GcResult Gc =
      cachedir::collectGarbage(Dir, cachedir::NoBudget, nullptr);
  EXPECT_EQ(Gc.StaleLocks, 1u);
  EXPECT_EQ(Gc.StaleTmps, 1u);
  EXPECT_EQ(Gc.Entries, 3u);
  EXPECT_EQ(Gc.Evicted, 0u);
  EXPECT_EQ(cacheInconsistency(Dir), "");
}

TEST(CacheDirProtocol, GcDoesNotSweepTmpOfLivePid) {
  std::string Dir = freshDir();
  // Our own pid is alive, so this "mid-store" tmp must survive the sweep.
  std::string Tmp = Dir + "/busy.art.tmp." + std::to_string(::getpid());
  ASSERT_TRUE(writeFile(Tmp, {9, 9, 9}));
  cachedir::GcResult Gc =
      cachedir::collectGarbage(Dir, cachedir::NoBudget, nullptr);
  EXPECT_EQ(Gc.StaleTmps, 0u);
  struct stat St;
  EXPECT_EQ(::stat(Tmp.c_str(), &St), 0);
}

TEST(CacheDirProtocol, GcEvictsLeastRecentlyUsedFirst) {
  std::string Dir = freshDir();
  // Five 116-byte entries (100 payload + 16 frame), epochs 1000..1004.
  for (int I = 0; I != 5; ++I) {
    std::string Path = Dir + "/e" + std::to_string(I) + ".art";
    ASSERT_EQ(cachedir::storeEntry(Path, framedEntry(100, uint8_t(I)),
                                   nullptr),
              cachedir::StoreOutcome::Stored);
    setMtime(Path, 1000 + I);
  }
  // A hit on the oldest entry refreshes its epoch, so it must now survive.
  std::vector<uint8_t> Loaded;
  ASSERT_TRUE(cachedir::loadEntry(Dir + "/e0.art", Loaded, nullptr));

  // Budget for exactly two entries: e1 (epoch 1001) and e2 (1002) and e3
  // (1003) are now the coldest three and must go; e4 and the freshly
  // touched e0 survive.
  cachedir::GcResult Gc = cachedir::collectGarbage(Dir, 2 * 116, nullptr);
  EXPECT_EQ(Gc.Evicted, 3u);
  EXPECT_EQ(Gc.Entries, 2u);
  EXPECT_LE(Gc.Bytes, 2 * 116u);
  struct stat St;
  EXPECT_EQ(::stat((Dir + "/e0.art").c_str(), &St), 0);
  EXPECT_EQ(::stat((Dir + "/e4.art").c_str(), &St), 0);
  EXPECT_NE(::stat((Dir + "/e1.art").c_str(), &St), 0);
}

TEST(CacheDirProtocol, GcBudgetEnforcedUnderConcurrentReader) {
  std::string Dir = freshDir();
  constexpr int N = 12;
  std::vector<std::string> Paths;
  for (int I = 0; I != N; ++I) {
    Paths.push_back(Dir + "/e" + std::to_string(I) + ".art");
    ASSERT_EQ(cachedir::storeEntry(Paths.back(), framedEntry(500, uint8_t(I)),
                                   nullptr),
              cachedir::StoreOutcome::Stored);
    setMtime(Paths.back(), 1000 + I);
  }

  // A reader hammers loadEntry across all keys while GC evicts. Every
  // successful load must be frame-valid — an eviction can make a reader
  // miss, never hand it torn bytes.
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> TornReads{0};
  std::atomic<uint64_t> GoodReads{0};
  std::thread Reader([&] {
    std::vector<uint8_t> Bytes;
    while (!Stop.load()) {
      for (const std::string &P : Paths) {
        if (!cachedir::loadEntry(P, Bytes, nullptr))
          continue;
        if (cachefmt::checkArtifactFrame(Bytes))
          GoodReads.fetch_add(1);
        else
          TornReads.fetch_add(1);
      }
    }
  });

  // Start the GC only once the reader is demonstrably running: on a loaded
  // host the whole GC can otherwise finish before the reader's first load.
  for (int I = 0; I != 5000 && GoodReads.load() == 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const uint64_t Budget = 4 * 516; // four 500+16-byte entries
  cachedir::GcResult Gc = cachedir::collectGarbage(Dir, Budget, nullptr);
  Stop.store(true);
  Reader.join();

  EXPECT_EQ(TornReads.load(), 0u);
  EXPECT_GT(GoodReads.load(), 0u);
  // The budget holds. (Reader hits refresh epochs concurrently, which can
  // only change *which* entries go, never how many bytes remain.)
  EXPECT_LE(totalEntryBytes(Dir), Budget);
  EXPECT_LE(Gc.Bytes, Budget);
  EXPECT_EQ(cacheInconsistency(Dir), "");
}

TEST(CacheDirProtocol, InjectedGcFaultSkipsEvictionWithoutAborting) {
  std::string Dir = freshDir();
  for (int I = 0; I != 4; ++I) {
    std::string Path = Dir + "/e" + std::to_string(I) + ".art";
    ASSERT_EQ(cachedir::storeEntry(Path, framedEntry(100, uint8_t(I)),
                                   nullptr),
              cachedir::StoreOutcome::Stored);
    setMtime(Path, 1000 + I);
  }
  std::string Error;
  auto FI = FaultInjector::fromSpec("cache-gc:fail-nth=1", Error);
  ASSERT_NE(FI, nullptr) << Error;
  // Budget of one entry wants three evictions. The first unlink faults and
  // is skipped — its bytes still count, so GC walks on and evicts the next
  // three. The budget holds even under the fault; the survivor set merely
  // shifts.
  cachedir::GcResult Gc = cachedir::collectGarbage(Dir, 116, FI.get());
  EXPECT_EQ(Gc.Evicted, 3u);
  EXPECT_EQ(countEntries(Dir), 1u);
  EXPECT_LE(totalEntryBytes(Dir), 116u);
}

//===----------------------------------------------------------------------===//
// Degradation: unusable cache dir is never an error
//===----------------------------------------------------------------------===//

TEST(CacheDegraded, UncreatableCacheDirBuildsUncached) {
  GeneratedProgram GP = testProgram();
  CompileOptions Plain;
  Plain.Level = OptLevel::O2;
  BuildResult Uncached = buildGP(GP, Plain);
  ASSERT_TRUE(Uncached.Ok) << Uncached.Error;

  // mkdir under a non-directory fails, so the cache can never be writable.
  // (A chmod-based read-only dir is bypassed by root, which CI runs as.)
  BuildResult Degraded = buildGP(GP, cachedOpts("/dev/null/scmo-cache"));
  ASSERT_TRUE(Degraded.Ok) << Degraded.Error;
  EXPECT_TRUE(hasWarning(Degraded, CheckCode::CacheDegraded))
      << Degraded.WarningsText;
  EXPECT_TRUE(exesIdentical(Uncached.Exe, Degraded.Exe));
  EXPECT_GT(Degraded.Stats.get("cache.store_skips"), 0u);
  EXPECT_EQ(Degraded.Stats.get("cache.stores"), 0u);
  // Source entries go through the same store path: skipped and counted.
  EXPECT_EQ(Degraded.Stats.get("cache.source_store_skips"), GP.Modules.size());
  EXPECT_EQ(Degraded.Stats.get("cache.source_stores"), 0u);
}

TEST(CacheDegraded, SummaryCacheSkipsStoresOnUnusableDir) {
  GeneratedProgram GP = testProgram();
  CompileOptions Opts;
  AnalysisOptions AOpts;

  CompilerSession Cold(Opts);
  ASSERT_TRUE(Cold.addGenerated(GP));
  AnalysisResult ColdRes = Cold.runAnalysis(AOpts);
  ASSERT_TRUE(ColdRes.Ok) << ColdRes.Error;

  AOpts.Incremental = true;
  AOpts.CacheDir = "/dev/null/scmo-ana-cache";
  CompilerSession Degraded(Opts);
  ASSERT_TRUE(Degraded.addGenerated(GP));
  AnalysisResult DegRes = Degraded.runAnalysis(AOpts);
  ASSERT_TRUE(DegRes.Ok) << DegRes.Error;
  EXPECT_EQ(DegRes.Report, ColdRes.Report);
  EXPECT_EQ(DegRes.CacheStores, 0u);
  EXPECT_EQ(DegRes.CacheHits, 0u);
}

//===----------------------------------------------------------------------===//
// Fork/SIGKILL torture (the acceptance gate; skipped under TSan)
//===----------------------------------------------------------------------===//

TEST(CacheTorture, SigkillSweepLeavesCacheConsistentAndWarmBuildsIdentical) {
#if SCMO_UNDER_TSAN
  GTEST_SKIP() << "TSan does not support fork-based torture";
#else
  GeneratedProgram GP = testProgram();
  CompileOptions Plain;
  Plain.Level = OptLevel::O2;
  BuildResult Baseline = buildGP(GP, Plain);
  ASSERT_TRUE(Baseline.Ok) << Baseline.Error;
  const uint64_t BaselineHash = hashExecutable(Baseline.Exe);

  std::string Cache = freshDir();

  // Phase 1: SIGKILL sweep. Each child is a real builder told to tear
  // itself down mid-store at the Kth durable cache write; skipped stores
  // (entries installed by earlier children) charge no op, so every child
  // crashes at a genuinely new point until the cache fills up.
  int Crashes = 0;
  for (unsigned K = 1; K <= 4; ++K) {
    std::string Spec = "cache-store:crash-nth=" + std::to_string(K);
    pid_t Pid = forkBuilder(GP, Cache, Spec, /*Jobs=*/2, "");
    ASSERT_GT(Pid, 0);
    int Status = 0;
    ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
    if (WIFSIGNALED(Status)) {
      EXPECT_EQ(WTERMSIG(Status), SIGKILL);
      ++Crashes;
    } else {
      // The cache had fewer than K missing entries left, so the build
      // finished before the Nth write.
      EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
          << "child exit status " << Status;
    }
  }
  EXPECT_GE(Crashes, 2) << "sweep never actually tore a store";

  // Phase 2: one GC pass sweeps the crash litter (torn tmps, orphaned
  // locks); after it the invariant is clean — no torn entries under final
  // names, ever, because a crash dies before the rename.
  cachedir::GcResult Gc =
      cachedir::collectGarbage(Cache, cachedir::NoBudget, nullptr);
  EXPECT_GT(Gc.StaleLocks + Gc.StaleTmps, 0u)
      << "the sweep should have found crash litter";
  EXPECT_EQ(cacheInconsistency(Cache), "");

  // Phase 3: K concurrent warm builders against the survivor cache must
  // all produce the uncached executable, bit for bit.
  constexpr int Builders = 4;
  std::vector<pid_t> Pids;
  std::vector<std::string> HashFiles;
  for (int B = 0; B != Builders; ++B) {
    HashFiles.push_back(Cache + "/../scmo-hash-" + std::to_string(B) +
                        "-" + std::to_string(::getpid()));
    pid_t Pid = forkBuilder(GP, Cache, "", /*Jobs=*/2, HashFiles.back());
    ASSERT_GT(Pid, 0);
    Pids.push_back(Pid);
  }
  for (int B = 0; B != Builders; ++B) {
    int Status = 0;
    ASSERT_EQ(::waitpid(Pids[B], &Status, 0), Pids[B]);
    EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
        << "builder " << B << " exit status " << Status;
    uint64_t H = 0;
    ASSERT_TRUE(readHashFile(HashFiles[B], H));
    EXPECT_EQ(H, BaselineHash) << "builder " << B << " diverged";
    ::unlink(HashFiles[B].c_str());
  }
  EXPECT_EQ(cacheInconsistency(Cache), "");

  // Phase 4: warm rebuilds in-process, serial and wide, byte-identical.
  BuildResult Warm1 = buildGP(GP, cachedOpts(Cache, /*Jobs=*/1));
  ASSERT_TRUE(Warm1.Ok) << Warm1.Error;
  EXPECT_TRUE(exesIdentical(Baseline.Exe, Warm1.Exe));
  EXPECT_GT(Warm1.Stats.get("cache.hits"), 0u);
  BuildResult Warm8 = buildGP(GP, cachedOpts(Cache, /*Jobs=*/8));
  ASSERT_TRUE(Warm8.Ok) << Warm8.Error;
  EXPECT_TRUE(exesIdentical(Baseline.Exe, Warm8.Exe));
#endif
}

TEST(CacheTorture, SummaryCacheSigkillMidStoreThenWarmMatchesCold) {
#if SCMO_UNDER_TSAN
  GTEST_SKIP() << "TSan does not support fork-based torture";
#else
  GeneratedProgram GP = testProgram(53);
  CompileOptions Opts;
  AnalysisOptions AOpts;

  CompilerSession Cold(Opts);
  ASSERT_TRUE(Cold.addGenerated(GP));
  AnalysisResult ColdRes = Cold.runAnalysis(AOpts);
  ASSERT_TRUE(ColdRes.Ok) << ColdRes.Error;

  std::string Cache = freshDir();
  AOpts.Incremental = true;
  AOpts.CacheDir = Cache;

  // Child: analysis with its first summary store torn by SIGKILL.
  pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    CompileOptions ChildOpts;
    ChildOpts.FaultInject = "cache-store:crash-nth=1";
    CompilerSession Session(ChildOpts);
    if (!Session.addGenerated(GP))
      ::_exit(3);
    Session.runAnalysis(AOpts);
    ::_exit(0); // Unreachable when the crash fires.
  }
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFSIGNALED(Status)) << "child was expected to tear mid-store";
  EXPECT_EQ(WTERMSIG(Status), SIGKILL);

  // The torn write is tmp litter only; after the sweep the cache holds no
  // entry that is not frame-valid.
  cachedir::collectGarbage(Cache, cachedir::NoBudget, nullptr);
  EXPECT_EQ(cacheInconsistency(Cache), "");

  // A warm analysis over the survivor cache reproduces the cold report.
  CompilerSession Warm(Opts);
  ASSERT_TRUE(Warm.addGenerated(GP));
  AnalysisResult WarmRes = Warm.runAnalysis(AOpts);
  ASSERT_TRUE(WarmRes.Ok) << WarmRes.Error;
  EXPECT_EQ(WarmRes.Report, ColdRes.Report);
#endif
}

//===----------------------------------------------------------------------===//
// NAIM repository torture
//===----------------------------------------------------------------------===//

/// A builder SIGKILLed mid-spill must leave no repository file behind: the
/// backing storage is anonymous (O_TMPFILE, or a pid-unique name unlinked
/// at creation), so the kernel reclaims it the instant the process dies —
/// there is nothing for a sweeper to find.
TEST(NaimTorture, SigkilledBuilderLeavesNoRepositoryLitter) {
#if SCMO_UNDER_TSAN
  GTEST_SKIP() << "fork-based torture is not TSan-compatible";
#else
  GeneratedProgram GP = testProgram(59);

  pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    // Offload-everything configuration: zero budgets force every release
    // through compact + store, so the third store tears a half-frame and
    // SIGKILLs the process.
    CompileOptions Opts;
    Opts.Level = OptLevel::O2;
    Opts.Jobs = 2;
    Opts.Naim.Mode = NaimMode::Offload;
    Opts.Naim.ExpandedCacheBytes = 0;
    Opts.Naim.CompactResidentBytes = 0;
    Opts.FaultInject = "store:crash-nth=3";
    CompilerSession Session(Opts);
    if (!Session.addGenerated(GP))
      ::_exit(3);
    Session.build();
    ::_exit(0); // Unreachable when the crash fires.
  }
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFSIGNALED(Status))
      << "child was expected to die mid-spill, not exit("
      << (WIFEXITED(Status) ? WEXITSTATUS(Status) : -1) << ")";
  EXPECT_EQ(WTERMSIG(Status), SIGKILL);

  // Post-mortem sweep of /tmp: no repository file of the dead child
  // may remain. The O_TMPFILE path never had a name; the fallback path
  // ("scmo-repo-<pid>-<n>.bin") unlinked its name before the first byte
  // was written. Either way the litter check is the same.
  std::string Litter;
  std::string ChildPrefix = "scmo-repo-" + std::to_string(uint64_t(Pid)) + "-";
  for (const std::string &Name : listDir("/tmp"))
    if (Name.compare(0, ChildPrefix.size(), ChildPrefix) == 0)
      Litter += Name + " ";
  EXPECT_EQ(Litter, "") << "dead builder leaked repository files";
#endif
}
