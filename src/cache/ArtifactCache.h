//===- cache/ArtifactCache.h ------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content-addressed artifact cache for incremental CMO rebuilds (the scmoc
/// --incremental / --cache-dir knobs). The unit of caching matches the unit
/// of optimization:
///
///  - the whole CMO module set is ONE cache unit — HLO is interprocedural
///    across exactly that set, so any member edit invalidates the set's
///    artifact but nothing else;
///  - every default-set (module-at-a-time) module is its own unit — its
///    cleanup and lowering read nothing outside the module.
///
/// An artifact stores the unit's pre-link machine code: exactly what a cold
/// build's HLO+LLO would produce for those modules, in the dense encoding
/// LLO hands the linker (llo/MachineCode.h), with every cross-unit symbol
/// reference (call targets, global loads/stores) recorded by *name* — the
/// code's Sym fields index by-name reference tables — so a cached unit
/// relinks correctly after other modules' ids shifted. The
/// CMO unit artifact additionally records the cloner's declarations in
/// creation order — replaying them gives warm clones the same RoutineIds a
/// cold build assigns, which keeps the link order and therefore the final
/// executable byte-identical — and the unit's profiled call-edge weights for
/// the linker's clustering.
///
/// Keys are content hashes over everything that can influence the unit's
/// machine code: the member modules' full IL content (contentHash() below —
/// NOT the structural profile-correlation checksum, which deliberately
/// ignores immediates and symbols), their symbol surfaces and selectivity
/// decisions, the option fingerprint (CompileOptions::fingerprint()), the
/// profile-database epoch, and the whole-program flag. A second hash of the
/// same material under a different seed is stored *inside* the artifact and
/// checked on load, so a key collision degrades to a miss, never to wrong
/// code. Artifacts are framed like NAIM repository records (magic, size,
/// XXH64) and written crash-safely; any validation failure — torn frame,
/// checksum mismatch, unresolvable symbol — is a miss that falls back to
/// recompilation.
///
/// The same directory and protocol also hold source-keyed IL objects for the
/// edit-compile loop. In the paper's Figure 2 flow a frontend runs once per
/// changed source file and everything downstream reads its IL object; these
/// entries give CompilerSession::addSource the same shape. Each module's
/// entry is keyed by an XXH64 over the object format version, the module
/// name and the source bytes, and holds the module's IL object (see
/// bytecode/ObjectFile.h) plus the contentHash() of every routine it
/// defines, so the cache plan need not re-hash unchanged IL. On a hit the
/// object is replayed instead of lexing, parsing and lowering the source;
/// the replay repeats the frontend's symbol operations, so ids — and the
/// executable — match a cold build exactly. What invalidates a source
/// entry: any byte of the source, the module's name, or ObjectFormatVersion
/// (bumped whenever the object layout or the frontend's lowering changes;
/// a golden in BytecodeTests catches a lowering change without a bump).
/// What does not: the other modules. A module's IL depends on them only
/// through name resolution, which the replay redoes against the current
/// program; when that would fail or bind differently (an unknown variable,
/// a changed arity or linkage, a redefinition) the entry is a miss and the
/// frontend reports the error. Source loads consult the fault injector at
/// cache-load; source stores do not consult cache-store, so nth-addressed
/// store faults keep addressing the unit artifacts.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_CACHE_ARTIFACTCACHE_H
#define SCMO_CACHE_ARTIFACTCACHE_H

#include "ir/Program.h"
#include "link/Linker.h"
#include "llo/MachineCode.h"
#include "support/FaultInjector.h"
#include "support/Statistics.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace scmo {

/// Content-grade hash of one routine body: opcodes, operands, immediates,
/// branch shape, and every symbol reference *by name* (ids shift when other
/// modules are edited; names don't). Insensitive to profile annotations —
/// the profile epoch is separate key material. This is the cache's notion
/// of "the IL didn't change"; contrast computeChecksum(), which only sees
/// structure and would alias e.g. a changed constant.
uint64_t contentHash(const Program &P, const RoutineBody &Body);

/// One cache unit: a set of modules whose machine code rises and falls
/// together. Either the whole CMO set or a single default-set module.
struct CacheUnit {
  std::vector<ModuleId> Modules; ///< Members, ascending module id.
  bool IsCmoUnit = false;        ///< True for the CMO module set.
  bool WholeProgram = false;     ///< HLO had whole-program visibility
                                 ///< (key material; CMO unit only).
};

/// A successfully loaded artifact, resolved against the current program.
struct CachedUnit {
  /// The unit's machine routines, ascending RoutineId. Routine is rebound
  /// to the current program id; the code stays as stored, its Sym fields
  /// indexing the unit's shared Refs table (validated in range).
  std::vector<MachineRoutine> Machines;
  /// The unit's contribution to the linker's profiled call-edge weights
  /// (caller-side slice), rebound to current ids.
  std::vector<CallEdgeWeight> Edges;
  /// Number of clone declarations replayed into the program.
  uint32_t ClonesReplayed = 0;
};

/// Directory-backed artifact store. One instance per session; not
/// thread-safe (modules are added serially and the driver's cache stages
/// are serial). Stores follow the cachedir protocol (per-entry advisory
/// flock, tmp+fsync+rename, epoch touch on hit) so one cache directory is
/// safe under N concurrent builder processes; reads stay lock-free. An
/// unwritable directory degrades to load-only operation (cache.store_skips
/// and cache.source_store_skips count what was left unstored) rather than
/// failing the build.
class ArtifactCache {
public:
  /// \p Dir must exist or be creatable; \p Injector (may be null) drives
  /// the fault-injection hooks on every artifact read and write (sites
  /// cache-load / cache-store); \p Stats receives the cache.* counters.
  ArtifactCache(std::string Dir, std::shared_ptr<FaultInjector> Injector,
                Statistics &Stats);

  /// False when the cache directory cannot be written: stores will be
  /// skipped and the driver should surface a scmo-cache-degraded warning.
  bool writable() const { return Writable; }

  /// An entry's cache identity: the key names the file, the check (same
  /// material, different hash seed) is stored inside it and verified on load
  /// so a key collision reads as a miss.
  struct EntryKey {
    uint64_t Key = 0;
    uint64_t Check = 0;
  };

  /// The key of module \p ModuleName's IL object built from \p Source.
  static EntryKey sourceKey(std::string_view ModuleName,
                            std::string_view Source);

  /// On a source-entry hit, installs the module into \p P, fills \p Hashes
  /// with the content hash of each routine it defines (in the order of its
  /// Define touches) and returns the module id. Frame, check hash and object
  /// are all validated before the program is touched, so every miss returns
  /// InvalidId with \p P unchanged.
  ModuleId loadSource(Program &P, const EntryKey &K,
                      std::vector<uint64_t> &Hashes);

  /// Stores the source entry for a module the frontend just compiled;
  /// counted under cache.source_* like store() counts under cache.*.
  void storeSource(const EntryKey &K, const std::vector<uint8_t> &Object,
                   const std::vector<uint64_t> &Hashes);

  /// Computes \p U's key under the given option fingerprint and profile
  /// epoch. \p ContentHashes is indexed by RoutineId (contentHash() per
  /// defined routine; 0 otherwise). MUST be called before HLO runs: the key
  /// material includes each member module's routine list, which the cloner
  /// grows — the driver computes keys at cache-planning time and passes the
  /// same EntryKey to load() and store().
  EntryKey keys(const Program &P, const CacheUnit &U,
                const std::vector<uint64_t> &ContentHashes,
                uint64_t OptFingerprint, uint64_t ProfileEpoch) const;

  /// Attempts to load the artifact for \p U. On a hit, resolves every
  /// symbol reference against \p P, replays clone declarations (CMO unit),
  /// fills \p Out, and returns true. Any failure — absent file, bad frame,
  /// checksum or key-check mismatch, unresolvable name — is a miss; the
  /// program is left untouched on every miss path.
  bool load(Program &P, const CacheUnit &U, const EntryKey &K,
            CachedUnit &Out);

  /// Stores \p U's artifact after a cold compile. \p Machines is the unit's
  /// slice of lowered routines (ascending RoutineId, clones included);
  /// \p CloneBase is the first clone RoutineId (== the routine count before
  /// HLO; clones are every routine id >= CloneBase, in creation order);
  /// \p Edges is the unit's caller-side slice of profiled call-edge
  /// weights. A store failure only counts against cache.store_failures —
  /// the build carries on.
  void store(const Program &P, const CacheUnit &U, const EntryKey &K,
             const std::vector<MachineRoutine> &Machines, RoutineId CloneBase,
             const std::vector<CallEdgeWeight> &Edges);

private:
  std::string pathFor(const CacheUnit &U, uint64_t Key) const;
  std::string sourcePathFor(uint64_t Key) const;
  /// The cachedir store shared by every entry kind: skip (read-only dir),
  /// lock or not, overwrite an entry that failed validation, and count the
  /// outcome as <Prefix>stores, <Prefix>store_present, ... .
  void storeEntry(const std::string &Path, uint64_t Key,
                  const std::vector<uint8_t> &File, FaultInjector *FI,
                  std::string_view Prefix);

  std::string Dir;
  std::shared_ptr<FaultInjector> Injector;
  Statistics &Stats;
  bool Writable = true;
  /// Keys whose entry file existed but failed validation on load this
  /// session: their store overwrites in place of the usual skip-if-present,
  /// so a corrupt entry self-heals (content addressing makes the overwrite
  /// always-safe: same key => same intended bytes).
  std::vector<uint64_t> InvalidOnDisk;
};

/// The framed unit-artifact bytes ArtifactCache::store writes: \p Machines'
/// code in the dense MachineCode encoding, every routine and global operand
/// rewritten to an index into the artifact's by-name reference tables.
/// Accepts loaded code too (Refs set): re-encoding a loaded entry
/// reproduces its bytes.
std::vector<uint8_t> encodeUnitEntry(const Program &P,
                                     const ArtifactCache::EntryKey &K,
                                     const std::vector<MachineRoutine> &Machines,
                                     RoutineId CloneBase,
                                     const std::vector<CallEdgeWeight> &Edges);

/// The in-memory half of ArtifactCache::load: validates \p Entry's frame,
/// version, check hash, reference tables and code (one validating walk per
/// routine, which bounds-checks every reference index against the tables),
/// and only then replays the clone declarations into \p P and fills \p Out.
/// The code is handed on as stored, with the resolved tables as its Refs.
/// Returns false with \p P unchanged if anything is off.
bool readUnitEntry(Program &P, const std::vector<uint8_t> &Entry,
                   const ArtifactCache::EntryKey &K, CachedUnit &Out);

/// The framed source-entry bytes for an object and its per-definition
/// content hashes.
std::vector<uint8_t> encodeSourceEntry(const ArtifactCache::EntryKey &K,
                                       const std::vector<uint8_t> &Object,
                                       const std::vector<uint64_t> &Hashes);

/// The in-memory half of ArtifactCache::loadSource: validates \p Entry's
/// frame, version and check hash against \p K, then its object against
/// \p P, and only then installs the module and fills \p Hashes. Returns
/// InvalidId with \p P unchanged if anything is off.
ModuleId readSourceEntry(Program &P, const std::vector<uint8_t> &Entry,
                         const ArtifactCache::EntryKey &K,
                         std::vector<uint64_t> &Hashes);

} // namespace scmo

#endif // SCMO_CACHE_ARTIFACTCACHE_H
