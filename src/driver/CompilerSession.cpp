//===- driver/CompilerSession.cpp -----------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "driver/CompilerSession.h"

#include "bytecode/ObjectFile.h"
#include "cache/ArtifactCache.h"
#include "frontend/Frontend.h"
#include "hlo/Hlo.h"
#include "ir/CallGraph.h"
#include "ir/Checksum.h"
#include "ir/Verifier.h"
#include "profile/Probes.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <unistd.h>

using namespace scmo;

CompilerSession::CompilerSession(CompileOptions Opts) : Opts(std::move(Opts)) {
  if (!this->Opts.FaultInject.empty()) {
    std::string Err;
    this->Opts.Naim.Injector =
        FaultInjector::fromSpec(this->Opts.FaultInject, Err);
    if (!this->Opts.Naim.Injector)
      FirstError = "invalid --fault-inject spec '" + this->Opts.FaultInject +
                   "': " + Err;
  }
  Tracker = std::make_unique<MemoryTracker>();
  Tracker->setHeapCap(this->Opts.HeapCapBytes);
  Prog = std::make_unique<Program>(Tracker.get());
  Ldr = std::make_unique<Loader>(*Prog, this->Opts.Naim);
  if (this->Opts.Incremental && !this->Opts.CacheDir.empty())
    Cache = std::make_unique<ArtifactCache>(this->Opts.CacheDir,
                                            Ldr->faultInjector(), Stats);
}

CompilerSession::~CompilerSession() = default;

bool CompilerSession::addSource(const std::string &ModuleName,
                                const std::string &Source) {
  // Frontend work happens per-module before the pipeline exists; scope it
  // under the same name the pipeline's frontend stage uses so all frontend
  // allocation lands in one profile row.
  StageScope Scope(Tracker.get(), "frontend");
  Timer T;
  // Incremental builds first look for the module's IL object under its
  // source key; a hit replays it instead of running the frontend.
  ArtifactCache::EntryKey Key;
  std::vector<uint64_t> Hashes;
  ModuleId M = InvalidId;
  if (Cache) {
    Key = ArtifactCache::sourceKey(ModuleName, Source);
    M = Cache->loadSource(*Prog, Key, Hashes);
  }
  if (M == InvalidId) {
    FrontendResult FR = compileSource(*Prog, ModuleName, Source);
    if (!FR.Ok) {
      FrontendSeconds += T.seconds();
      if (FirstError.empty())
        FirstError = FR.Error;
      return false;
    }
    M = FR.Module;
    if (Cache) {
      // Encode before any body is released to the loader or annotated by
      // correlation: the entry must hold the frontend's IL.
      for (const SymbolTouch &Touch : Prog->module(M).Touches)
        if (Touch.K == SymbolTouch::Kind::Define)
          Hashes.push_back(contentHash(*Prog, Prog->body(Touch.Id)));
      Cache->storeSource(Key, writeObject(*Prog, M), Hashes);
    }
  }
  FrontendSeconds += T.seconds();
  if (Cache) {
    KnownContentHash.resize(Prog->numRoutines(), 0);
    HasContentHash.resize(Prog->numRoutines(), 0);
    size_t Next = 0;
    for (const SymbolTouch &Touch : Prog->module(M).Touches)
      if (Touch.K == SymbolTouch::Kind::Define) {
        KnownContentHash[Touch.Id] = Hashes[Next++];
        HasContentHash[Touch.Id] = 1;
      }
  }
  // Hand the freshly lowered bodies to the loader so NAIM thresholds apply
  // while the program is still being read in — this is what keeps memory
  // sub-linear during multi-hundred-module compiles (Figure 4).
  for (RoutineId R : Prog->module(M).Routines)
    if (Prog->routine(R).IsDefined && Prog->routine(R).Owner == M) {
      Prog->routine(R).Checksum = computeChecksum(*Prog->routine(R).Slot.Body);
      Ldr->release(R);
    }
  Ldr->maybeCompactSymtabs();
  if (Tracker)
    Tracker->takeHloSample();
  return true;
}

bool CompilerSession::storedContentHash(RoutineId R, uint64_t &Hash) const {
  if (R >= HasContentHash.size() || !HasContentHash[R])
    return false;
  Hash = KnownContentHash[R];
  return true;
}

bool CompilerSession::addGenerated(const GeneratedProgram &GP) {
  for (const GeneratedModule &GM : GP.Modules)
    if (!addSource(GM.Name, GM.Source))
      return false;
  return true;
}

void CompilerSession::attachProfile(ProfileDb Db) {
  Profile = std::move(Db);
  HasProfile = true;
}

void CompilerSession::computeChecksums(ThreadPool &Pool) {
  std::vector<RoutineId> Ids;
  for (RoutineId R = 0; R != Prog->numRoutines(); ++R)
    if (Prog->routine(R).IsDefined)
      Ids.push_back(R);
  Pool.parallelFor(Ids.size(), [&](size_t I) {
    RoutineId R = Ids[I];
    const RoutineBody &Body = Ldr->acquireRead(R);
    Prog->routine(R).Checksum = computeChecksum(Body);
    Ldr->release(R);
  });
}

std::string CompilerSession::verifyRoutines(ThreadPool &Pool,
                                            const std::vector<bool> *SkipOwner) {
  std::vector<RoutineId> Ids;
  for (RoutineId R = 0; R != Prog->numRoutines(); ++R) {
    const RoutineInfo &RI = Prog->routine(R);
    if (!RI.IsDefined)
      continue;
    if (SkipOwner && RI.Owner != InvalidId && (*SkipOwner)[RI.Owner])
      continue;
    Ids.push_back(R);
  }
  // Each task writes its own slot; the first failure (by routine id, not by
  // completion order) is reported, so diagnostics match the serial compiler.
  std::vector<DiagnosticEngine> Diags(Ids.size());
  std::atomic<bool> SawError{false};
  Pool.parallelFor(Ids.size(), [&](size_t I) {
    if (SawError.load(std::memory_order_relaxed))
      return;
    RoutineId R = Ids[I];
    bool Ok = verifyRoutine(*Prog, R, Ldr->acquireRead(R), Diags[I]);
    Ldr->release(R);
    if (!Ok)
      SawError.store(true, std::memory_order_relaxed);
  });
  for (const DiagnosticEngine &D : Diags)
    if (D.size())
      return DiagnosticEngine::render(*Prog, D.diagnostics()[0]);
  return "";
}

AnalysisResult CompilerSession::runAnalysis(const AnalysisOptions &AOpts) {
  if (!FirstError.empty()) {
    AnalysisResult Result;
    Result.Error = FirstError;
    return Result;
  }
  Prog->chargeGlobalTables();
  return scmo::runAnalysis(*Prog, *Ldr, Tracker.get(), AOpts);
}

bool CompilerSession::checkHeap(BuildResult &Result, const char *Phase) {
  if (!Tracker->heapExhausted())
    return true;
  Result.Ok = false;
  Result.Error = std::string("compiler heap exhausted during ") + Phase +
                 " (cap " + std::to_string(Opts.HeapCapBytes) + " bytes)";
  return false;
}

bool CompilerSession::checkLoader(BuildResult &Result, const char *Phase) {
  for (const LoaderEvent &E : Ldr->takeEvents()) {
    Diagnostic D;
    D.Routine = E.Routine;
    D.Message = E.Detail;
    switch (E.K) {
    case LoaderEvent::Kind::SpillDegraded:
      D.Code = CheckCode::SpillDegraded;
      D.Sev = Severity::Warning;
      break;
    case LoaderEvent::Kind::FetchRetried:
    case LoaderEvent::Kind::Recovered:
      // The corruption was survived; the code remains suspect enough to
      // mention but the compiled output is trustworthy.
      D.Code = CheckCode::RepoCorruption;
      D.Sev = Severity::Warning;
      break;
    case LoaderEvent::Kind::PoolPoisoned:
      D.Code = CheckCode::RepoCorruption;
      D.Sev = Severity::Error;
      break;
    }
    Result.WarningsText += DiagnosticEngine::render(*Prog, D);
    Result.WarningsText += '\n';
    Result.Warnings.push_back(std::move(D));
  }
  Status Err = Ldr->firstError();
  if (Err.ok())
    return true;
  // Some acquired bodies were stubs: every downstream result is invalid.
  // Fail the build with the structured cause — an error exit, not an abort.
  Result.Ok = false;
  Result.Loader = Ldr->stats(); // Failure diagnostics want the counters.
  Result.Error = std::string("repository failure during ") + Phase + ": " +
                 Err.toString();
  return false;
}

void CompilerSession::invalidateRecovery() {
  if (RecoveryObjects.empty() && RecoveryBody.empty())
    return;
  RecoveryObjects.clear();
  RecoveryBody.clear();
  Ldr->setRecoveryHandler(nullptr);
}

void CompilerSession::rebuildFromObjects(BuildResult &Result) {
  // Dump every module to an IL object file, then re-read them into a fresh
  // program, the way the production pipeline hands IL objects from the
  // frontends to the linker (paper Section 3).
  //
  // Each object replays its module's frontend symbol operations in their
  // original order, so the re-read program has the same ids, names and
  // module lists as this one and compiles to the identical executable
  // (Driver.ObjectFileFlowMatchesDirectFlow checks the bytes). Emission
  // failure is therefore a degradation, not a build failure: the build only
  // loses the object-file corruption-recovery rung. One structured
  // scmo-object-degraded warning records the loss.
  FaultInjector *FI = Ldr->faultInjector().get();
  std::vector<std::string> Written;
  for (ModuleId M = 0; M != Prog->numModules(); ++M) {
    for (RoutineId R : Prog->module(M).Routines)
      if (Prog->routine(R).IsDefined && Prog->routine(R).Owner == M)
        Ldr->acquire(R);
    std::vector<uint8_t> Bytes = writeObject(*Prog, M);
    // Process-unique names: concurrent sessions (parallel test runners,
    // several scmoc invocations) must not clobber each other's objects in a
    // shared ObjectDir.
    std::string Path = Opts.ObjectDir + "/scmo-" +
                       std::to_string(uint64_t(::getpid())) + "-" +
                       Prog->Strings.text(Prog->module(M).Name) + ".o";
    bool Ok = writeFileWithFaults(Path, Bytes, FI,
                                  FaultInjector::Site::ObjectEmit);
    if (Ok)
      Written.push_back(Path);
    // Mirror the acquire loop's Owner filter exactly: a module's routine
    // list can carry routines it merely references (declared here, defined
    // elsewhere), and releasing one of those without a matching acquire
    // would underflow its pin count.
    for (RoutineId R : Prog->module(M).Routines)
      if (Prog->routine(R).IsDefined && Prog->routine(R).Owner == M)
        Ldr->release(R);
    if (!Ok) {
      for (const std::string &P : Written)
        std::remove(P.c_str());
      RecoveryObjects.clear();
      RecoveryBody.clear();
      Diagnostic D;
      D.Code = CheckCode::ObjectDegraded;
      D.Sev = Severity::Warning;
      D.Message = "cannot write object file " + Path +
                  "; continuing in-memory, object-file corruption recovery "
                  "is disabled";
      Result.WarningsText += DiagnosticEngine::render(*Prog, D);
      Result.WarningsText += '\n';
      Result.Warnings.push_back(std::move(D));
      return;
    }
  }
  std::vector<std::string> Paths = std::move(Written);
  auto NewProg = std::make_unique<Program>(Tracker.get());
  auto NewLdr = std::make_unique<Loader>(*NewProg, Opts.Naim);
  RecoveryObjects.clear();
  RecoveryBody.clear();
  // Read-back failures degrade the same way: discard the half-built
  // replacement program and keep compiling the original in-memory IL.
  auto DegradeReadback = [&](const std::string &Why) {
    RecoveryObjects.clear();
    RecoveryBody.clear();
    Diagnostic D;
    D.Code = CheckCode::ObjectDegraded;
    D.Sev = Severity::Warning;
    D.Message = Why + "; continuing in-memory, object-file corruption "
                      "recovery is disabled";
    Result.WarningsText += DiagnosticEngine::render(*Prog, D);
    Result.WarningsText += '\n';
    Result.Warnings.push_back(std::move(D));
  };
  for (const std::string &Path : Paths) {
    std::vector<uint8_t> Bytes;
    if (!readFile(Path, Bytes))
      return DegradeReadback("cannot read object file " + Path);
    std::string Err;
    ObjectIndex Index;
    ModuleId M = readObject(*NewProg, Bytes, Err, &Index);
    if (M == InvalidId)
      return DegradeReadback("object file " + Path + " unreadable: " + Err);
    for (RoutineId R : NewProg->module(M).Routines)
      if (NewProg->routine(R).IsDefined)
        NewLdr->release(R);
    // Record where each body lives on disk: until the IL is first mutated,
    // a pool that comes back from the repository corrupt can be re-expanded
    // from its object file instead of failing the build.
    size_t ObjIdx = RecoveryObjects.size();
    for (size_t B = 0; B != Index.DefinedHere.size(); ++B)
      RecoveryBody[Index.DefinedHere[B]] = {ObjIdx, B};
    RecoveryObjects.push_back({Path, std::move(Index)});
  }
  // Swap in the re-read program. Order matters: the old loader references
  // the old program.
  Ldr = std::move(NewLdr);
  Prog = std::move(NewProg);
  Ldr->setRecoveryHandler(
      [this](RoutineId R) -> std::unique_ptr<RoutineBody> {
        auto It = RecoveryBody.find(R);
        if (It == RecoveryBody.end())
          return nullptr;
        const RecoverySource &Src = RecoveryObjects[It->second.first];
        std::vector<uint8_t> Bytes;
        if (!readFile(Src.Path, Bytes))
          return nullptr;
        return expandBodyFromObject(Bytes, Src.Index, It->second.second,
                                    Tracker.get());
      });
}

//===----------------------------------------------------------------------===//
// The staged pipeline
//===----------------------------------------------------------------------===//

/// Everything one build() invocation owns: the result under construction,
/// the worker pool, the incremental-cache plan, and the stage objects
/// themselves. Each stage closes over this state; the Pipeline runner owns
/// timing, memory sampling and stop-on-failure.
struct CompilerSession::BuildState {
  CompilerSession &S;
  BuildResult Result;
  Timer Total;
  /// The worker pool for the per-routine backend phases (verification,
  /// checksums, content hashes, the LTRANS visit with its lowering). Only
  /// WPA planning stays serial: it is the interprocedural sequential
  /// section of the pipeline.
  ThreadPool Pool;

  bool UsableProfile = false;
  bool CmoMode = false;

  // The incremental-cache plan (cache-plan stage; absent when caching is
  // off). Units[0] is the CMO set when one exists; the rest are one unit
  // per default-set module.
  ArtifactCache *Cache = nullptr; ///< The session's cache, when planned.
  std::vector<CacheUnit> Units;
  std::vector<ArtifactCache::EntryKey> Keys;
  std::vector<CachedUnit> Loaded;   ///< Parallel to Units; empty on miss.
  std::vector<char> UnitHit;        ///< Parallel to Units.
  std::vector<bool> ModuleCached;   ///< Per ModuleId: covered by a hit.
  std::vector<std::vector<CallEdgeWeight>> UnitEdges; ///< Store slices.
  RoutineId CloneBase = 0; ///< Routine count before HLO; clones are >= this.

  // The WPA → LTRANS handoff: the CMO routine set (clones included once
  // planning appends them) and the finished plan. Absent when the build has
  // no CMO work or the CMO unit came out of the incremental cache.
  std::vector<RoutineId> CmoSet;
  std::unique_ptr<HloPlan> Plan;

  LinkOptions LinkOpts;
  std::vector<MachineRoutine> Machines; ///< Merged, ascending RoutineId.
  uint64_t MachineBytes = 0;

  explicit BuildState(CompilerSession &Session)
      : S(Session), Pool(Session.Opts.Jobs) {}

  bool cacheOn() const { return Cache != nullptr; }
  bool moduleCached(ModuleId M) const {
    return Cache != nullptr && M != InvalidId && ModuleCached[M];
  }
  bool cmoUnitCached() const {
    return Cache != nullptr && !Units.empty() && Units[0].IsCmoUnit &&
           UnitHit[0];
  }

  /// Object round-trip (when enabled), global-table accounting, heap check.
  struct FrontendStage final : PipelineStage {
    BuildState &B;
    explicit FrontendStage(BuildState &B)
        : PipelineStage("frontend", "source modules",
                        "IL program, object files, checksums"),
          B(B) {}
    bool run(bool &) override {
      CompilerSession &S = B.S;
      if (S.Opts.WriteObjects) {
        S.rebuildFromObjects(B.Result);
        if (!B.Result.Error.empty())
          return false;
        S.computeChecksums(B.Pool);
        if (!S.checkLoader(B.Result, "object rebuild"))
          return false;
      }
      S.Prog->chargeGlobalTables();
      return S.checkHeap(B.Result, "frontend");
    }
  };

  /// Verify the IL. Runs after the cache plan so warm builds never pay for
  /// verifying modules whose machine code was loaded from the cache — their
  /// IL is dead weight past this point. With caching off the verified set
  /// is exactly the monolithic compiler's.
  struct VerifyStage final : PipelineStage {
    BuildState &B;
    explicit VerifyStage(BuildState &B)
        : PipelineStage("verify", "IL program, cache plan", "verified IL"),
          B(B) {}
    bool run(bool &Skipped) override {
      CompilerSession &S = B.S;
      if (!S.Opts.VerifyIl) {
        Skipped = true;
        return true;
      }
      B.Result.Error =
          S.verifyRoutines(B.Pool, B.Cache ? &B.ModuleCached : nullptr);
      if (!B.Result.Error.empty())
        return false;
      return S.checkLoader(B.Result, "verification");
    }
  };

  /// Instrumentation (+I) — on raw IL, before any optimization, so counters
  /// correlate with the structural checksums.
  struct InstrumentStage final : PipelineStage {
    BuildState &B;
    explicit InstrumentStage(BuildState &B)
        : PipelineStage("instrument", "IL program", "probes, probe table"),
          B(B) {}
    bool run(bool &Skipped) override {
      CompilerSession &S = B.S;
      if (!S.Opts.Instrument) {
        Skipped = true;
        return true;
      }
      S.invalidateRecovery();
      for (RoutineId R = 0; R != S.Prog->numRoutines(); ++R) {
        if (!S.Prog->routine(R).IsDefined)
          continue;
        instrumentRoutine(R, S.Ldr->acquire(R), B.Result.Probes);
        S.Ldr->release(R);
      }
      // Probe insertion rewrote every body: a shared call graph's site
      // (block, instruction) coordinates are stale.
      S.Prog->invalidateCallGraph();
      return true;
    }
  };

  /// Profile correlation (+P).
  struct CorrelateStage final : PipelineStage {
    BuildState &B;
    explicit CorrelateStage(BuildState &B)
        : PipelineStage("correlate", "IL program, profile db",
                        "block frequencies"),
          B(B) {}
    bool run(bool &Skipped) override {
      CompilerSession &S = B.S;
      B.UsableProfile = S.Opts.Pbo && S.HasProfile;
      if (!B.UsableProfile) {
        Skipped = true;
        return true;
      }
      S.invalidateRecovery(); // Correlation annotates bodies with counts.
      for (RoutineId R = 0; R != S.Prog->numRoutines(); ++R) {
        if (!S.Prog->routine(R).IsDefined)
          continue;
        S.Profile.correlate(*S.Prog, R, S.Ldr->acquire(R),
                            B.Result.Correlation);
        S.Ldr->release(R);
      }
      // Correlation changed block frequencies, which a shared call graph
      // carries as per-site counts.
      S.Prog->invalidateCallGraph();
      return true;
    }
  };

  /// Coarse-grained selectivity decides the CMO / default split.
  struct SelectivityStage final : PipelineStage {
    BuildState &B;
    explicit SelectivityStage(BuildState &B)
        : PipelineStage("selectivity", "block frequencies",
                        "CMO/default module split, tiers"),
          B(B) {}
    bool run(bool &) override {
      CompilerSession &S = B.S;
      B.CmoMode = S.Opts.Level == OptLevel::O4 && !S.Opts.Instrument;
      if (B.CmoMode) {
        if (B.UsableProfile && S.Opts.SelectivityPercent < 100.0)
          B.Result.Selectivity = applySelectivity(
              *S.Prog, *S.Ldr, S.Opts.SelectivityPercent,
              S.Opts.FineHotThreshold, S.Opts.MultiLayered);
        else
          B.Result.Selectivity = selectEverything(*S.Prog);
      } else {
        for (ModuleId M = 0; M != S.Prog->numModules(); ++M) {
          S.Prog->module(M).InCmoSet = false;
          B.Result.Selectivity.DefaultModules.push_back(M);
        }
      }
      return true;
    }
  };

  /// Incremental mode: hash content, compute unit keys (before HLO can grow
  /// the routine tables — see ArtifactCache::keys), and load what hits.
  struct CachePlanStage final : PipelineStage {
    BuildState &B;
    explicit CachePlanStage(BuildState &B)
        : PipelineStage("cache-plan", "IL program, selectivity, options",
                        "unit keys, loaded artifacts, replayed clones"),
          B(B) {}
    bool run(bool &Skipped) override {
      CompilerSession &S = B.S;
      B.CloneBase = static_cast<RoutineId>(S.Prog->numRoutines());
      // HloOpLimit truncates HLO non-deterministically relative to content;
      // instrumented builds never reach HLO/LLO with cacheable output.
      if (!S.Opts.Incremental || S.Opts.CacheDir.empty() ||
          S.Opts.Instrument || S.Opts.HloOpLimit != UINT64_MAX) {
        Skipped = true;
        return true;
      }
      B.Cache = S.Cache.get();
      if (!B.Cache->writable()) {
        // Load-only (shared read-only cache) or fully degraded (dir not
        // even creatable): either way the build continues and says so once.
        Diagnostic D;
        D.Code = CheckCode::CacheDegraded;
        D.Sev = Severity::Warning;
        D.Message = "cache dir '" + S.Opts.CacheDir +
                    "' is not writable; stores are skipped, compilation "
                    "continues uncached on miss";
        B.Result.WarningsText += DiagnosticEngine::render(*S.Prog, D);
        B.Result.WarningsText += '\n';
        B.Result.Warnings.push_back(std::move(D));
      }
      uint64_t Fp = S.Opts.fingerprint();
      uint64_t Epoch = B.UsableProfile ? S.Profile.fingerprint() : 0;
      // Content hashes of every defined routine: stored with the module's
      // source entry when it has one (nothing has rewritten a body since
      // addSource — instrumented builds skip this stage, correlation only
      // adds counts, which the hash ignores), else fanned out like
      // checksums.
      std::vector<uint64_t> ContentHashes(S.Prog->numRoutines(), 0);
      std::vector<RoutineId> Ids;
      for (RoutineId R = 0; R != S.Prog->numRoutines(); ++R)
        if (S.Prog->routine(R).IsDefined &&
            !S.storedContentHash(R, ContentHashes[R]))
          Ids.push_back(R);
      B.Pool.parallelFor(Ids.size(), [&](size_t I) {
        RoutineId R = Ids[I];
        ContentHashes[R] = contentHash(*S.Prog, S.Ldr->acquireRead(R));
        S.Ldr->release(R);
      });
      // The unit plan: CMO set first — its clone replay must precede
      // anything that looks at routine ids — then one unit per default
      // module, ascending.
      if (B.CmoMode && !B.Result.Selectivity.CmoModules.empty()) {
        CacheUnit U;
        U.Modules = B.Result.Selectivity.CmoModules;
        std::sort(U.Modules.begin(), U.Modules.end());
        U.IsCmoUnit = true;
        U.WholeProgram = B.Result.Selectivity.DefaultModules.empty();
        B.Units.push_back(std::move(U));
      }
      std::vector<ModuleId> Defaults = B.Result.Selectivity.DefaultModules;
      std::sort(Defaults.begin(), Defaults.end());
      for (ModuleId M : Defaults) {
        CacheUnit U;
        U.Modules.push_back(M);
        B.Units.push_back(std::move(U));
      }
      B.Keys.resize(B.Units.size());
      B.Loaded.resize(B.Units.size());
      B.UnitHit.assign(B.Units.size(), 0);
      B.UnitEdges.resize(B.Units.size());
      B.ModuleCached.assign(S.Prog->numModules(), false);
      for (size_t I = 0; I != B.Units.size(); ++I) {
        B.Keys[I] =
            B.Cache->keys(*S.Prog, B.Units[I], ContentHashes, Fp, Epoch);
        if (B.Cache->load(*S.Prog, B.Units[I], B.Keys[I], B.Loaded[I])) {
          B.UnitHit[I] = 1;
          for (ModuleId M : B.Units[I].Modules)
            B.ModuleCached[M] = true;
        }
      }
      return S.checkLoader(B.Result, "cache plan");
    }
  };

  /// WPA: serial whole-program planning over the CMO set's summaries.
  /// Instrumented builds skip IL transformation entirely so that every
  /// probe survives with its raw-IL meaning; a cached CMO unit skips it
  /// because its machine code was already loaded. No routine body is
  /// mutated here — only the plan, clone declarations and Emit flags.
  struct WpaStage final : PipelineStage {
    BuildState &B;
    explicit WpaStage(BuildState &B)
        : PipelineStage("wpa", "CMO set summaries, profile",
                        "HLO plan, clone declarations"),
          B(B) {}
    bool run(bool &Skipped) override {
      CompilerSession &S = B.S;
      if (S.Opts.Instrument || S.Opts.Level == OptLevel::O1) {
        Skipped = true;
        return true;
      }
      S.invalidateRecovery(); // HLO/cleanup rewrite bodies past their objects.
      if (!B.CmoMode || B.Result.Selectivity.CmoModules.empty()) {
        Skipped = true;
        return true;
      }
      if (B.cmoUnitCached()) {
        S.Stats.add("cache.skip.hlo");
        Skipped = true;
        return true;
      }
      for (ModuleId M : B.Result.Selectivity.CmoModules)
        for (RoutineId R : S.Prog->module(M).Routines)
          if (S.Prog->routine(R).IsDefined && S.Prog->routine(R).Owner == M)
            B.CmoSet.push_back(R);
      HloOptions HOpts;
      HOpts.WholeProgram = B.Result.Selectivity.DefaultModules.empty();
      HOpts.Pbo = B.UsableProfile && S.Opts.PboInlining;
      HOpts.EnableIpcp = S.Opts.EnableIpcp;
      HOpts.EnableCloning = S.Opts.EnableCloning;
      HOpts.Inline = S.Opts.Inline;
      HOpts.Clone = S.Opts.Clone;
      HloContext Ctx(*S.Prog, *S.Ldr, S.Stats);
      Ctx.OpLimit = S.Opts.HloOpLimit;
      B.Plan = std::make_unique<HloPlan>(planHlo(Ctx, B.CmoSet, HOpts));
      return S.checkHeap(B.Result, "WPA");
    }
  };

  /// The backend visit: one LTRANS task per routine on the worker pool.
  /// CMO-set routines get the WPA plan, default-set routines the O2 cleanup
  /// (graded by tier when multi-layered selectivity is active; none at all
  /// under +O1 and +I), and with VerifyIl each emitted routine is verified
  /// under the same acquire. Then the task lowers the routine and retires
  /// its IL (releases it under KeepIl). Routines whose module came out of
  /// the cache are left alone: their IL is never lowered. The executable is
  /// byte-identical at any job count.
  struct LtransStage final : PipelineStage {
    BuildState &B;
    explicit LtransStage(BuildState &B)
        : PipelineStage("ltrans", "HLO plan, IL program",
                        "clone bodies, lowered machine routines"),
          B(B) {}
    bool run(bool &Skipped) override {
      CompilerSession &S = B.S;
      // The raw-IL builds: instrumented ones keep every probe with its
      // raw-IL meaning, +O1 does basic-block-local codegen only.
      const bool RawIl = S.Opts.Instrument || S.Opts.Level == OptLevel::O1;
      for (ModuleId M : B.Result.Selectivity.DefaultModules)
        if (!RawIl && B.moduleCached(M))
          S.Stats.add("cache.skip.cleanup");
      // Every defined routine (and every clone the plan declared) whose
      // owner is compiled cold this build.
      std::vector<RoutineId> Ids;
      for (RoutineId R = 0; R != S.Prog->numRoutines(); ++R) {
        const RoutineInfo &RI = S.Prog->routine(R);
        if (RI.Owner == InvalidId || B.moduleCached(RI.Owner))
          continue;
        if (RI.IsDefined || (B.Plan && B.Plan->cloneFor(R)))
          Ids.push_back(R);
      }
      LloOptions LOpts;
      LOpts.RegAlloc = LOpts.Schedule = S.Opts.Level != OptLevel::O1;
      LOpts.ProfileLayout = S.Opts.Level != OptLevel::O1 && B.UsableProfile &&
                            S.Opts.PboLayout;
      // Each task lowers into its own slot and accumulates into its own
      // LloStats; slots keep the link order (ascending routine id) and the
      // merged stats identical at any --jobs width.
      std::vector<MachineRoutine> Lowered(Ids.size());
      std::vector<LloStats> TaskStats(Ids.size());
      std::atomic<uint64_t> LoweredBytes{0};
      LtransOptions TOpts;
      TOpts.Plan = B.Plan.get();
      TOpts.Cleanup = !RawIl;
      TOpts.Verify = S.Opts.VerifyIl && !RawIl;
      TOpts.Finish = [&](size_t I, RoutineId R, const RoutineBody &Body) {
        LloOptions RoutineOpts = LOpts;
        if (S.Prog->routine(R).Tier == OptTier::None) {
          // Never-executed code under multi-layered selectivity: quick,
          // cheap codegen (no allocation, scheduling or layout work).
          RoutineOpts.RegAlloc = false;
          RoutineOpts.Schedule = false;
          RoutineOpts.ProfileLayout = false;
        }
        Lowered[I] = lowerRoutine(*S.Prog, R, Body, RoutineOpts, &TaskStats[I]);
        // The generated machine code accumulates until link time, in its
        // dense encoding: the linear component of "overall compiler"
        // memory in Figure 4.
        uint64_t Bytes = Lowered[I].Code.size();
        LoweredBytes.fetch_add(Bytes, std::memory_order_relaxed);
        S.Tracker->allocate(MemCategory::Other, Bytes);
      };
      TOpts.Retire = !S.Opts.KeepIl;
      HloContext Ctx(*S.Prog, *S.Ldr, S.Stats);
      std::string Err = runLtrans(Ctx, Ids, TOpts, &B.Pool);
      B.Plan.reset(); // Snapshots are dead weight past this point.
      for (const LloStats &St : TaskStats)
        B.Result.Llo.merge(St);
      if (!S.checkHeap(B.Result, "LTRANS"))
        return false;
      if (!Err.empty()) {
        B.Result.Error = "after HLO: " + Err;
        return false;
      }
      if (!S.checkLoader(B.Result, "LTRANS"))
        return false;
      B.MachineBytes = LoweredBytes.load(std::memory_order_relaxed);
      for (MachineRoutine &MR : Lowered)
        if (MR.Routine != InvalidId) // Emitted routines only.
          B.Machines.push_back(std::move(MR));
      Skipped = B.cacheOn() && Ids.empty();
      return true;
    }
  };

  /// Gather call-edge weights for the linker's routine clustering from the
  /// optimized IL's summaries (the IL is the last place the counts are
  /// visible): the backend visit retired the bodies, but the loader kept a
  /// summary of each, so nothing is acquired here. Cached units contribute
  /// their stored caller-side slices; the merge happens in one id-ordered
  /// map, so the linker sees the same edges in the same order a cold build
  /// produces.
  struct EdgeWeightsStage final : PipelineStage {
    BuildState &B;
    explicit EdgeWeightsStage(BuildState &B)
        : PipelineStage("edge-weights", "optimized IL, profile",
                        "linker edge weights"),
          B(B) {}
    bool run(bool &Skipped) override {
      CompilerSession &S = B.S;
      B.LinkOpts.NumProbes = static_cast<uint32_t>(B.Result.Probes.size());
      if (!B.UsableProfile || !S.Opts.PboClustering) {
        Skipped = true;
        return true;
      }
      B.LinkOpts.ClusterByProfile = true;
      // The fresh slice: emitted routines whose owner was recompiled this
      // build.
      std::vector<RoutineId> EmitSet;
      for (RoutineId R = 0; R != S.Prog->numRoutines(); ++R) {
        const RoutineInfo &RI = S.Prog->routine(R);
        if (RI.IsDefined && RI.Emit && !B.moduleCached(RI.Owner))
          EmitSet.push_back(R);
      }
      // From the loader's summaries: their site scan mirrors a body scan,
      // and parked pools need not be expanded just to be read.
      CallGraph Graph = CallGraph::build(
          *S.Prog, EmitSet, [&S](RoutineId R) -> const RoutineIlSummary * {
            return S.Ldr->routineSummary(R);
          });
      std::map<std::pair<RoutineId, RoutineId>, uint64_t> EdgeSum;
      for (size_t I = 0; I != B.Units.size(); ++I)
        if (B.UnitHit[I])
          for (const CallEdgeWeight &E : B.Loaded[I].Edges)
            EdgeSum[{E.From, E.To}] += E.Weight;
      for (const CallSite &CS : Graph.sites())
        EdgeSum[{CS.Caller, CS.Callee}] += CS.Count;
      for (const auto &[Edge, Weight] : EdgeSum)
        if (Weight)
          B.LinkOpts.EdgeWeights.push_back({Edge.first, Edge.second, Weight});
      // Caller-side slices for the units this build will store.
      if (B.cacheOn()) {
        std::vector<size_t> OwnerUnit(S.Prog->numModules(), SIZE_MAX);
        for (size_t I = 0; I != B.Units.size(); ++I)
          for (ModuleId M : B.Units[I].Modules)
            OwnerUnit[M] = I;
        std::vector<std::map<std::pair<RoutineId, RoutineId>, uint64_t>>
            PerUnit(B.Units.size());
        for (const CallSite &CS : Graph.sites()) {
          ModuleId Owner = S.Prog->routine(CS.Caller).Owner;
          if (Owner == InvalidId || OwnerUnit[Owner] == SIZE_MAX)
            continue;
          PerUnit[OwnerUnit[Owner]][{CS.Caller, CS.Callee}] += CS.Count;
        }
        for (size_t I = 0; I != B.Units.size(); ++I)
          for (const auto &[Edge, Weight] : PerUnit[I])
            if (Weight)
              B.UnitEdges[I].push_back({Edge.first, Edge.second, Weight});
      }
      return true;
    }
  };

  /// LLO: the backend visit lowered every emitted routine that isn't
  /// covered by a cache hit; merge that code with the cached machine code in
  /// ascending RoutineId order — identical to a cold build's emit order, so
  /// the executable bytes cannot depend on what was cached.
  struct LloStage final : PipelineStage {
    BuildState &B;
    explicit LloStage(BuildState &B)
        : PipelineStage("llo", "lowered and cached machine routines",
                        "machine routines in link order"),
          B(B) {}
    bool run(bool &Skipped) override {
      CompilerSession &S = B.S;
      Skipped = B.cacheOn() && B.Machines.empty();
      for (size_t I = 0; I != B.Units.size(); ++I) {
        if (!B.UnitHit[I])
          continue;
        for (MachineRoutine &MR : B.Loaded[I].Machines) {
          uint64_t Bytes = MR.Code.size();
          B.MachineBytes += Bytes;
          S.Tracker->allocate(MemCategory::Other, Bytes);
          S.Stats.add("cache.skip.llo");
          B.Machines.push_back(std::move(MR));
        }
      }
      std::sort(B.Machines.begin(), B.Machines.end(),
                [](const MachineRoutine &A, const MachineRoutine &C) {
                  return A.Routine < C.Routine;
                });
      S.Tracker->takeHloSample();
      return true;
    }
  };

  /// Store an artifact for every unit this build compiled cold.
  struct CacheStoreStage final : PipelineStage {
    BuildState &B;
    explicit CacheStoreStage(BuildState &B)
        : PipelineStage("cache-store", "machine routines, unit keys",
                        "artifacts on disk"),
          B(B) {}
    bool run(bool &Skipped) override {
      CompilerSession &S = B.S;
      if (!B.cacheOn()) {
        Skipped = true;
        return true;
      }
      bool AnyMiss = false;
      for (size_t I = 0; I != B.Units.size(); ++I) {
        if (B.UnitHit[I])
          continue;
        AnyMiss = true;
        std::vector<bool> InUnit(S.Prog->numModules(), false);
        for (ModuleId M : B.Units[I].Modules)
          InUnit[M] = true;
        // The unit's slice of the merged machine code, order preserved
        // (clones belong to the CMO unit: their owner is a CMO module).
        std::vector<MachineRoutine> Slice;
        for (const MachineRoutine &MR : B.Machines) {
          ModuleId Owner = S.Prog->routine(MR.Routine).Owner;
          if (Owner != InvalidId && InUnit[Owner])
            Slice.push_back(MR);
        }
        B.Cache->store(*S.Prog, B.Units[I], B.Keys[I], Slice, B.CloneBase,
                       B.UnitEdges[I]);
      }
      if (uint64_t Failures = S.Stats.get("cache.store_failures")) {
        // Structured degradation notice: the executable is complete and
        // byte-identical, only warm-rebuild value was lost.
        Diagnostic D;
        D.Code = CheckCode::CacheDegraded;
        D.Sev = Severity::Warning;
        D.Message = std::to_string(Failures) +
                    " artifact store(s) failed; affected units recompile "
                    "on the next build";
        B.Result.WarningsText += DiagnosticEngine::render(*S.Prog, D);
        B.Result.WarningsText += '\n';
        B.Result.Warnings.push_back(std::move(D));
      }
      Skipped = !AnyMiss;
      return true;
    }
  };

  /// Link, then close out the result: memory peaks, loader stats, totals.
  struct LinkStage final : PipelineStage {
    BuildState &B;
    explicit LinkStage(BuildState &B)
        : PipelineStage("link", "machine routines, edge weights",
                        "executable"),
          B(B) {}
    bool run(bool &) override {
      CompilerSession &S = B.S;
      std::string LinkError;
      B.Result.Exe =
          linkProgram(*S.Prog, std::move(B.Machines), B.LinkOpts, LinkError);
      if (!LinkError.empty()) {
        B.Result.Error = LinkError;
        return false;
      }
      if (B.MachineBytes)
        S.Tracker->release(MemCategory::Other, B.MachineBytes);
      B.Result.HloPeakBytes = S.Tracker->hloPeakBytes();
      B.Result.TotalPeakBytes = S.Tracker->totalPeakBytes();
      B.Result.Loader = S.Ldr->stats();
      B.Result.TotalSeconds = B.Total.seconds() + B.Result.FrontendSeconds;
      // Final fault-path checkpoint: collects any warnings the last phases
      // produced and fails the build if a poisoned pool slipped past them.
      if (!S.checkLoader(B.Result, "link"))
        return false;
      B.Result.Ok = true;
      return true;
    }
  };

  FrontendStage Frontend{*this};
  VerifyStage Verify{*this};
  InstrumentStage Instrument{*this};
  CorrelateStage Correlate{*this};
  SelectivityStage Select{*this};
  CachePlanStage CachePlan{*this};
  WpaStage Wpa{*this};
  LtransStage Ltrans{*this};
  EdgeWeightsStage Edges{*this};
  LloStage Llo{*this};
  CacheStoreStage CacheStore{*this};
  LinkStage Link{*this};
};

BuildResult CompilerSession::build() {
  BuildState B(*this);
  B.Result.FrontendSeconds = FrontendSeconds;
  if (!FirstError.empty()) {
    B.Result.Error = FirstError;
    return std::move(B.Result);
  }
  B.Result.SourceLines = Prog->totalSourceLines();

  Pipeline P(Tracker.get());
  P.add(B.Frontend)
      .add(B.Instrument)
      .add(B.Correlate)
      .add(B.Select)
      .add(B.CachePlan)
      .add(B.Verify)
      .add(B.Wpa)
      .add(B.Ltrans)
      .add(B.Edges)
      .add(B.Llo)
      .add(B.CacheStore)
      .add(B.Link);
  P.run(B.Result.Stages);
  B.Result.Memory = Tracker->snapshot();
  for (const StageMetrics &M : B.Result.Stages) {
    if (M.Name == "wpa" || M.Name == "ltrans")
      B.Result.HloSeconds += M.Seconds;
    else if (M.Name == "llo")
      B.Result.LloSeconds = M.Seconds;
    else if (M.Name == "link")
      B.Result.LinkSeconds = M.Seconds;
  }
  B.Result.Stats = Stats;
  return std::move(B.Result);
}

ProfileDb scmo::trainProfile(const GeneratedProgram &GP, std::string &Error,
                             const VmConfig &Vm) {
  std::vector<std::pair<std::string, std::string>> Sources;
  for (const GeneratedModule &GM : GP.Modules)
    Sources.emplace_back(GM.Name, GM.Source);
  return trainProfileOnSources(Sources, Error, Vm);
}

ProfileDb scmo::trainProfileOnSources(
    const std::vector<std::pair<std::string, std::string>> &Sources,
    std::string &Error, const VmConfig &Vm) {
  Error.clear();
  CompileOptions Opts;
  Opts.Level = OptLevel::O2;
  Opts.Instrument = true;
  CompilerSession Session(Opts);
  for (const auto &[Name, Source] : Sources)
    Session.addSource(Name, Source);
  BuildResult Build = Session.build();
  if (!Build.Ok) {
    Error = "instrumented build failed: " + Build.Error;
    return ProfileDb();
  }
  RunResult Run = runExecutable(Build.Exe, Vm);
  if (!Run.Ok) {
    Error = "training run failed: " + Run.Error;
    return ProfileDb();
  }
  return ProfileDb::fromRun(Session.program(), Build.Probes, Run.Probes);
}

bool scmo::saveProfileDb(const ProfileDb &Db, const std::string &Path,
                         FaultInjector *FI) {
  std::string Text = Db.serialize();
  std::vector<uint8_t> Bytes(Text.begin(), Text.end());
  return writeFileWithFaults(Path, Bytes, FI,
                             FaultInjector::Site::ProfileWrite);
}

bool scmo::loadProfileDb(const std::string &Path, ProfileDb &Out) {
  std::vector<uint8_t> Bytes;
  if (!readFile(Path, Bytes))
    return false;
  return ProfileDb::parse(std::string(Bytes.begin(), Bytes.end()), Out);
}
