//===- driver/CompilerSession.h ---------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level compilation driver: one CompilerSession is one build of one
/// program, mirroring the paper's Figure 2 pipeline — frontends lower source
/// modules to IL; in CMO mode the linker routes IL objects through HLO and
/// then LLO; profile data (+P) guides HLO heuristics, LLO layout and the
/// linker's routine clustering; instrumented builds (+I) carry counting
/// probes into the executable.
///
/// This is the primary public entry point of the SCMO library:
/// \code
///   CompileOptions Opts;
///   Opts.Level = OptLevel::O4;
///   Opts.Pbo = true;
///   CompilerSession Session(Opts);
///   Session.addSource("util", UtilSrc);
///   Session.addSource("app", AppSrc);
///   Session.attachProfile(TrainedDb);
///   BuildResult Build = Session.build();
///   RunResult Run = runExecutable(Build.Exe);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_DRIVER_COMPILERSESSION_H
#define SCMO_DRIVER_COMPILERSESSION_H

#include "analysis/Analysis.h"
#include "bytecode/ObjectFile.h"
#include "driver/Options.h"
#include "driver/Pipeline.h"
#include "hlo/Selectivity.h"
#include "link/Linker.h"
#include "llo/Codegen.h"
#include "profile/ProfileDb.h"
#include "support/Statistics.h"
#include "support/Timer.h"
#include "vm/Vm.h"
#include "workload/Generator.h"

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace scmo {

class ArtifactCache;
class ThreadPool;

/// Outcome of one build().
struct BuildResult {
  bool Ok = false;
  std::string Error;
  Executable Exe;
  ProbeTable Probes; ///< Valid for instrumented builds.

  /// Structured fault-path diagnostics (scmo-spill-degraded,
  /// scmo-repo-corruption). Warning-severity entries describe survivable
  /// degradation or successful recovery — the build is still Ok, possibly
  /// slower or fatter; an Error-severity entry accompanies a failed build.
  /// WarningsText is the rendered one-per-line report.
  std::vector<Diagnostic> Warnings;
  std::string WarningsText;

  // Compile-time metrics (the y-axes of Figures 4/5/6). HloSeconds covers
  // the wpa and ltrans stages, and LTRANS lowers each routine it finishes,
  // so lowering time is in it; LloSeconds is the llo stage, the merge with
  // cached code (Llo.PhaseNanos splits the lowering time itself).
  double FrontendSeconds = 0;
  double HloSeconds = 0;
  double LloSeconds = 0;
  double LinkSeconds = 0;
  double TotalSeconds = 0;
  uint64_t HloPeakBytes = 0;
  uint64_t TotalPeakBytes = 0;

  // What was compiled.
  uint64_t SourceLines = 0;
  SelectivityResult Selectivity;
  CorrelationStats Correlation;
  LoaderStats Loader;
  LloStats Llo;
  Statistics Stats;

  /// Per-stage timing, memory and skip accounting, in pipeline order
  /// (scmoc --stats prints the table). A skipped entry means the stage ran
  /// and declared itself not applicable — e.g. HLO under --incremental when
  /// every unit was cached.
  std::vector<StageMetrics> Stages;

  /// The tracker's per-stage/per-category allocation profile, snapshotted
  /// when the pipeline finishes (scmoc --stats / --stats-format=json).
  MemoryProfile Memory;
};

/// One compilation session over one program.
class CompilerSession {
public:
  explicit CompilerSession(CompileOptions Opts);
  ~CompilerSession();

  CompilerSession(const CompilerSession &) = delete;
  CompilerSession &operator=(const CompilerSession &) = delete;

  /// Runs the frontend on one module. Returns false (and records the error)
  /// on a source error; build() will then fail.
  bool addSource(const std::string &ModuleName, const std::string &Source);

  /// Adds every module of a generated program.
  bool addGenerated(const GeneratedProgram &GP);

  /// Attaches a training profile database (used when Opts.Pbo).
  void attachProfile(ProfileDb Db);

  /// Compiles and links everything added so far.
  BuildResult build();

  /// Runs the static-analysis engine (instead of a build) over everything
  /// added so far: streams every routine through the NAIM loader, runs the
  /// verifier plus the lint pass roster, and returns the deterministic
  /// diagnostic report. Does not modify the IL.
  AnalysisResult runAnalysis(const AnalysisOptions &AOpts);

  /// The program being compiled (valid after addSource calls).
  Program &program() { return *Prog; }
  MemoryTracker &tracker() { return *Tracker; }
  Loader &loader() { return *Ldr; }
  const CompileOptions &options() const { return Opts; }
  const std::string &firstError() const { return FirstError; }

  /// The content hash stored with (or computed for) \p R's module source
  /// entry when addSource went through the source cache; false otherwise.
  bool storedContentHash(RoutineId R, uint64_t &Hash) const;

private:
  void rebuildFromObjects(BuildResult &Result);
  /// Recomputes structural checksums of every defined routine, fanned out
  /// over \p Pool; each worker writes only its own routine's field.
  void computeChecksums(ThreadPool &Pool);
  /// Verifies every defined routine in parallel. Returns the rendered
  /// scmo-verify diagnostic of the failing routine with the lowest id, or
  /// "" — so a single IL bug reports identically at any thread count. When
  /// \p SkipOwner is non-null, routines owned by a flagged module are
  /// exempt (incremental rebuilds: a cached module's machine code is
  /// already loaded, so its IL is never compiled). The post-HLO verify runs
  /// inside LTRANS.
  std::string verifyRoutines(ThreadPool &Pool,
                             const std::vector<bool> *SkipOwner = nullptr);

  /// Everything one build() invocation owns, including the stage objects;
  /// defined in CompilerSession.cpp (stages are implementation detail).
  struct BuildState;
  bool checkHeap(BuildResult &Result, const char *Phase);
  /// Driver checkpoint for the loader's fault path: drains accumulated
  /// loader events into Result.Warnings and, if a pool was poisoned, fails
  /// the build with the latched error. Called after every phase that
  /// acquires routine bodies.
  bool checkLoader(BuildResult &Result, const char *Phase);
  /// Drops the object-file recovery map and handler. Must run before any
  /// phase that mutates IL bodies: recovery re-expands the on-disk object
  /// bytes, which is only sound while the in-memory bodies still match them.
  void invalidateRecovery();

  CompileOptions Opts;
  std::unique_ptr<MemoryTracker> Tracker;
  std::unique_ptr<Program> Prog;
  std::unique_ptr<Loader> Ldr;
  Statistics Stats;
  ProfileDb Profile;
  bool HasProfile = false;
  std::string FirstError;
  double FrontendSeconds = 0;

  /// The incremental cache directory (`Incremental` + `CacheDir` only):
  /// source-keyed module objects in addSource, unit artifacts in build().
  std::unique_ptr<ArtifactCache> Cache;
  /// Per RoutineId: the contentHash of each routine added through the
  /// source cache, valid while its body is unmodified since addSource.
  std::vector<uint64_t> KnownContentHash;
  std::vector<char> HasContentHash;

  /// Object-file recovery sources, populated by rebuildFromObjects and
  /// valid until the first IL mutation (invalidateRecovery). RecoveryBody
  /// maps a routine to (object index, body index) within RecoveryObjects.
  struct RecoverySource {
    std::string Path;
    ObjectIndex Index;
  };
  std::vector<RecoverySource> RecoveryObjects;
  std::map<RoutineId, std::pair<size_t, size_t>> RecoveryBody;
};

/// Convenience used everywhere in tests, benches and examples: builds the
/// program instrumented at O2, runs it on the VM, and returns the profile
/// database the run produces. \p Error is set on failure.
ProfileDb trainProfile(const GeneratedProgram &GP, std::string &Error,
                       const VmConfig &Vm = {});

/// As above for explicit module (name, source) pairs.
ProfileDb trainProfileOnSources(
    const std::vector<std::pair<std::string, std::string>> &Sources,
    std::string &Error, const VmConfig &Vm = {});

/// Persists \p Db at \p Path (the paper's on-disk profile database — the
/// one piece of state kept outside object files, Section 6.1). Returns
/// false on I/O failure. \p FI (may be null) is consulted at the
/// profile-write fault site; callers degrade a failed write to a warning —
/// the training run's data is lost, the process never aborts.
bool saveProfileDb(const ProfileDb &Db, const std::string &Path,
                   FaultInjector *FI = nullptr);

/// Loads a profile database from \p Path into \p Out. To accumulate
/// repeat training runs ("generated, or added to, if data from an earlier
/// run already exists", Section 3), load and then ProfileDb::merge().
/// Returns false on I/O or parse failure.
bool loadProfileDb(const std::string &Path, ProfileDb &Out);

} // namespace scmo

#endif // SCMO_DRIVER_COMPILERSESSION_H
