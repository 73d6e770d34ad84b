//===- analysis/SummaryCache.h ----------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content-addressed per-module cache for `scmoc --analyze --incremental`,
/// built on the same envelope and rebinding rules as the PR-4 artifact
/// cache (cache/CacheFormat.h). The unit of caching matches the unit of
/// recomputation: the streaming phase's per-routine work (verify, dataflow
/// solves, summary extraction) is intraprocedural, so one
/// module's record set rises and falls with that module's IL alone. The
/// interprocedural phase is NOT cached — it is a cheap fixpoint over the
/// summaries and re-runs every time, which is exactly what makes a warm
/// re-analysis after a one-module edit recompute only the edited module
/// (plus hashing) yet stay byte-identical to a cold run.
///
/// An artifact stores, per owned defined routine in declaration order: the
/// local diagnostics and the full AnalysisSummary — every routine and
/// global reference recorded by name so a cached module replays correctly
/// after other modules' ids shifted. Keys hash the module's routine content
/// hashes, the declared arity of every routine it calls (the verifier
/// checks each call's argument count against it) and the analysis option
/// fingerprint. No global's shape is key material: the zero-read checks
/// read it from the program when they run. A second-seed check hash inside
/// the artifact turns key collisions into misses; a failed frame, version,
/// count or name resolution likewise degrades to recomputation, never to a
/// wrong report.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_ANALYSIS_SUMMARYCACHE_H
#define SCMO_ANALYSIS_SUMMARYCACHE_H

#include "analysis/Passes.h"
#include "ir/Program.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace scmo {

class FaultInjector;

/// Directory-backed store for per-module analysis records. One instance per
/// analysis run; not thread-safe (load/store run on the coordinating
/// thread — only hashing and recomputation fan out). Stores follow the
/// cachedir multi-process protocol (per-entry advisory flock, tmp+fsync+
/// rename, epoch touch on hit); a read-only shared cache dir runs load-only
/// (stores — including the decode-failure re-store — are skipped, counted
/// in StoreSkips) so `--analyze --incremental` works against a cache
/// published read-only.
class AnalysisSummaryCache {
public:
  explicit AnalysisSummaryCache(std::string Dir,
                                std::shared_ptr<FaultInjector> Injector =
                                    nullptr);

  struct ModuleKey {
    uint64_t Key = 0;
    uint64_t Check = 0;
  };

  /// Computes module \p M's cache identity from its owned routines' content
  /// hashes (indexed by RoutineId) and the analysis options that change
  /// what the streaming phase produces. Filter and output format are
  /// deliberately absent: they post-process the diagnostic set.
  ModuleKey keys(const Program &P, ModuleId M,
                 const std::vector<uint64_t> &ContentHashes, bool Verify,
                 uint32_t NumProbes) const;

  /// Attempts to load module \p M's records. On a hit fills \p Out with one
  /// (routine, facts) entry per owned defined routine, in declaration
  /// order, every id rebound against \p P, and returns true. Any failure is
  /// a miss and leaves \p Out untouched.
  bool load(const Program &P, ModuleId M, const ModuleKey &K,
            std::vector<std::pair<RoutineId, RoutineFacts>> &Out);

  /// Stores a module's records after a cold scan. \p Records must be the
  /// module's owned defined routines in declaration order. A store failure
  /// only bumps StoreFailures — the analysis carries on.
  void store(const Program &P, const ModuleKey &K,
             const std::vector<std::pair<RoutineId, const RoutineFacts *>>
                 &Records);

  /// False when the cache directory cannot be written: stores are skipped.
  bool writable() const { return Writable; }

  size_t Hits = 0;
  size_t Misses = 0;
  size_t Stores = 0;
  size_t StoreFailures = 0;
  size_t StoreSkips = 0; ///< Stores not attempted (read-only cache dir).

private:
  std::string pathFor(uint64_t Key) const;

  std::string Dir;
  std::shared_ptr<FaultInjector> Injector;
  bool Writable = true;
  /// Keys that were present on disk but failed validation this run: their
  /// store overwrites (self-heal) instead of skipping as already-present.
  std::vector<uint64_t> InvalidOnDisk;
};

/// The framed entry bytes for one module's \p Records (owned defined
/// routines in declaration order) under \p K.
std::vector<uint8_t> encodeAnalysisEntry(
    const Program &P, const AnalysisSummaryCache::ModuleKey &K,
    const std::vector<std::pair<RoutineId, const RoutineFacts *>> &Records);

/// The in-memory half of AnalysisSummaryCache::load: validates \p Entry's
/// frame, version, check hash, reference tables and records against module
/// \p M of \p P and only then fills \p Out. Accepts only the bytes
/// encodeAnalysisEntry writes for what it decodes; false with \p Out
/// untouched otherwise.
bool readAnalysisEntry(const Program &P, ModuleId M,
                       const std::vector<uint8_t> &Entry,
                       const AnalysisSummaryCache::ModuleKey &K,
                       std::vector<std::pair<RoutineId, RoutineFacts>> &Out);

} // namespace scmo

#endif // SCMO_ANALYSIS_SUMMARYCACHE_H
