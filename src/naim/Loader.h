//===- naim/Loader.h --------------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The NAIM loader: "the process that manages the movement of data in and
/// out of the repository" (paper Section 4.2). Optimizer phases acquire the
/// pools they need and release them when done; whether a released pool is
/// actually compacted or offloaded "is determined internally by the loader"
/// — clients never see the state machine (Section 4.3).
///
/// State machine per routine body (paper Figure 3):
///
///   Expanded (pinned) --release--> Expanded (unload-pending, in LRU cache)
///        ^                                  |
///        |acquire (cache hit: cheap)        | cache over soft budget:
///        |                                  v compact (swizzle to PIDs)
///   Expanded <--uncompact+swizzle-- Compact (in memory)
///        ^                                  | compact pool over budget:
///        |                                  v offload
///        +------fetch+uncompact----- Offloaded (in disk repository)
///
/// Thresholding (Section 4.3): NAIM functionality turns on in stages tied to
/// the configured "machine memory" so small compilations pay nothing.
///
/// The spill path (DESIGN.md §5f) is synchronous and runs on the calling
/// thread:
///
///  - An offload stores its compact bytes as one repository record in the
///    releasing call, under the shard mutex; an acquire fetches and expands
///    on the acquiring thread.
///  - Store elision: a pool whose compact bytes hash-match its most recent
///    repository record reuses that record instead of storing a duplicate;
///    a pool that was never mutably acquired since it was expanded from its
///    record ("clean") is dropped straight back to that record with no
///    re-encode and no store at all. Both checks are content-/history-based
///    and therefore deterministic.
///  - Compaction encode and expansion decode (and the fetch's read) run
///    *outside* the loader mutex on per-pool transition states; the mutex
///    keeps guarding metadata, the LRU cache, budgets and the store.
///
/// Sharding (the PR-10 overhaul, DESIGN.md §5k): the loader is a facade over
/// N LoaderShards (`--naim-shards=N`, 0 = one shard per worker). Every
/// routine belongs to exactly one shard — placement is a stable hash of the
/// RoutineId, independent of jobs and schedule — and each shard owns
/// its own mutex, LRU clock and Repository file, so acquire/release traffic
/// from different workers only collides when two workers touch routines
/// that genuinely hash together.
/// The memory budget stays the paper's one soft cap: a shard evicts its own
/// LRU pools while the shards' summed cache bytes (relaxed atomics, read
/// without any other shard's mutex) exceed it. Since placement is
/// schedule-independent and residency never feeds codegen, executables are
/// byte-identical at every shards x jobs combination.
///
/// Failure model: the spill path is fallible by design and the loader never
/// aborts the process. The degradation ladder, from cheapest to last resort:
///
///   1. transient store/fetch faults (EINTR/EAGAIN, short transfers) are
///      retried inside the Repository and never surface;
///   2. a failed spill (ENOSPC, EIO) permanently disables offloading for
///      the affected *shard* — its pools stay compact-resident, its compact
///      budget is lifted, and a warning event records the slower-but-alive
///      outcome; the other shards keep offloading to their own healthy
///      files. The failing store happens inside the releasing call, so the
///      event and the degraded state are visible when that call returns;
///   3. a corrupt fetch (checksum/magic/bounds mismatch) is re-read once —
///      transient corruption between disk and memory heals, bit-rot does
///      not — then falls back to re-expanding the routine from its source
///      object file when the driver has installed a recovery handler;
///   4. an unrecoverable pool is "poisoned": acquire() returns a trivial
///      stub body (so in-flight phases finish safely), the first such error
///      is latched, and the driver fails the build with a structured
///      diagnostic at its next checkpoint — an exit code, not an abort. A
///      snapshot record that stays corrupt after its re-read ends the same
///      way (expandSnapshot), without the object-file rung.
///
/// Concurrency: the loader is safe to call from the parallel backend's
/// worker threads. Each shard's mutex M guards its pool metadata,
/// transitions and repository stores; it is the only loader lock on the
/// acquire/release path, and no thread ever holds two shard mutexes at
/// once. The loader starts no threads of its own. The returned
/// RoutineBody references are NOT guarded — the backend's fan-out gives
/// each routine to exactly one worker, which is what makes unsynchronized
/// body access safe.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_NAIM_LOADER_H
#define SCMO_NAIM_LOADER_H

#include "ir/Program.h"
#include "naim/Repository.h"
#include "support/Status.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace scmo {

class LoaderShard;

/// How much NAIM machinery is enabled (the x-axis of paper Figure 5).
enum class NaimMode : uint8_t {
  Off,          ///< Everything stays expanded forever.
  CompactIr,    ///< Routine IR compacts when evicted; symtabs stay expanded.
  CompactIrSt,  ///< IR and module symbol tables compact.
  Offload,      ///< Compact pools additionally spill to the disk repository.
  Auto          ///< Thresholds tied to MachineMemoryBytes enable the stages.
};

/// Loader configuration.
struct NaimConfig {
  NaimMode Mode = NaimMode::Auto;

  /// Soft cap on expanded-but-unpinned (cache-resident) IR bytes, summed
  /// over every shard. While the total exceeds it, the shard enforcing the
  /// budget compacts its least-recently-used pools.
  uint64_t ExpandedCacheBytes = 64ull << 20;

  /// Cap on in-memory compact bytes; beyond it, compact pools are offloaded
  /// to the repository (only in Offload / Auto modes).
  uint64_t CompactResidentBytes = 64ull << 20;

  /// For Auto mode: the machine's memory size from which thresholds derive.
  uint64_t MachineMemoryBytes = 512ull << 20;

  /// Repository path ("" = a private anonymous temp file per shard). With
  /// more than one shard, shard S stores to "<path>.<S>.naim".
  std::string RepositoryPath;

  /// Loader shard count (the scmoc --naim-shards knob). 0 = auto: the
  /// driver resolves it to the worker-pool width before constructing the
  /// loader; a bare Loader treats 0 as 1 (the monolithic pre-shard
  /// behavior, which every exact-count test relies on). Placement is a
  /// stable hash of RoutineId, so the executable is byte-identical at any
  /// shard count; the knob is resource-only and fingerprint-excluded.
  unsigned Shards = 0;

  /// Fault injector for the repositories (tests / --fault-inject). When
  /// null, the loader arms one from SCMO_FAULT_INJECT if that is set, so
  /// whole test suites can run under injection without code changes. All
  /// shards share one injector; `site@N` clauses address shard N's file.
  std::shared_ptr<FaultInjector> Injector;

  /// Derives staged thresholds from MachineMemoryBytes (Auto mode).
  static NaimConfig autoFor(uint64_t MachineMemoryBytes) {
    NaimConfig C;
    C.Mode = NaimMode::Auto;
    C.MachineMemoryBytes = MachineMemoryBytes;
    C.ExpandedCacheBytes = MachineMemoryBytes / 2;
    C.CompactResidentBytes = MachineMemoryBytes / 4;
    return C;
  }
};

/// Loader activity counters (reported by the driver's diagnostics). stats()
/// returns a snapshot of the loader's internal relaxed-atomic counters,
/// summed over every shard: safe to read while workers are active, exact
/// once they have joined.
struct LoaderStats {
  uint64_t Acquires = 0;
  uint64_t CacheHits = 0;     ///< Acquire found the pool still expanded.
  uint64_t Expansions = 0;    ///< Compact/offloaded -> expanded.
  uint64_t Compactions = 0;   ///< Expanded -> compact.
  uint64_t Offloads = 0;      ///< Compact -> repository (stored or elided).
  uint64_t Fetches = 0;       ///< Repository -> compact (read back).
  uint64_t SymtabCompactions = 0;

  // I/O-path activity (DESIGN.md §5f).
  uint64_t SpillElisions = 0; ///< Offloads that reused an existing record.
  // The loader has no spill queue, readahead or compression; these three
  // are always zero and stay only for record formats that name them.
  uint64_t SpillQueueHits = 0;
  uint64_t PrefetchHits = 0;
  uint64_t PrefetchWasted = 0;
  // Payload bytes stored in the repositories. Records are never compressed,
  // so both fields equal Repository::bytesStored() summed over shards.
  uint64_t RawBytes = 0;
  uint64_t CompressedBytes = 0;

  // Contention telemetry (DESIGN.md §5k): time workers spent blocked on
  // shard mutexes, sampled try_lock-then-lock on the acquire/release hot
  // paths. This pair is the before/after axis of the sharding win.
  uint64_t LockWaitNanos = 0; ///< Nanoseconds spent in contended locks.
  uint64_t Contentions = 0;   ///< Hot-path lock attempts that had to wait.
  uint64_t Shards = 0;        ///< Shard count the counters are summed over.

  // Fault-path activity (all zero on a healthy disk).
  uint64_t SpillFailures = 0; ///< Failed offload stores (degraded shards).
  uint64_t FetchRetries = 0;  ///< Corrupt fetches re-read.
  uint64_t Recoveries = 0;    ///< Pools rebuilt from their object file.
  uint64_t PoisonedPools = 0; ///< Unrecoverable pools or snapshots replaced
                              ///< by stubs.
};

/// A routine body captured without expanding its pool (Loader::snapshotPool),
/// in one of two kinds:
///
///  - a record reference (RecordSize != 0; records are never empty): the
///    pool's repository record in its own shard's file. Records are
///    immutable and the file is append-only for the session's life, so the
///    bytes at RecordOffset stay the body captured here even after the pool
///    is mutated and re-offloaded to a new record;
///  - resident bytes: the compact encoding, charged to MemCategory::HloIr.
struct PoolSnapshot {
  TrackedBuffer Bytes;
  uint64_t RecordOffset = 0;
  uint64_t RecordSize = 0;

  bool isRecord() const { return RecordSize != 0; }
};

/// One notable fault-path occurrence, for the driver to surface as a
/// structured diagnostic (warnings for degradation/recovery, an error for a
/// poisoned pool).
struct LoaderEvent {
  enum class Kind : uint8_t {
    SpillDegraded, ///< Offloading disabled for a shard; its pools stay
                   ///< resident.
    FetchRetried,  ///< A corrupt fetch healed on immediate re-read.
    Recovered,     ///< A corrupt pool was re-expanded from its object file.
    PoolPoisoned,  ///< Unrecoverable; the build must fail structurally.
  };
  Kind K = Kind::SpillDegraded;
  RoutineId Routine = InvalidId;
  std::string Detail;
};

/// Manages residency for every transitory pool in a Program. A facade over
/// NaimConfig::Shards independent LoaderShards; the public surface is
/// unchanged from the monolithic loader, and with one shard the behavior is
/// bit-for-bit the monolith's.
class Loader {
public:
  /// Re-materializes the compact/expanded body of a routine from outside
  /// the repository (in practice: from its IL object file). Returns null
  /// when the routine has no recoverable source.
  using RecoverFn = std::function<std::unique_ptr<RoutineBody>(RoutineId)>;

  Loader(Program &P, const NaimConfig &Config);
  ~Loader();

  /// Pins and returns the expanded body of \p R (must be defined). A pinned
  /// pool is never evicted until released. Acquires nest: each acquire
  /// increments the pool's pin count and must be matched by one release.
  /// A mutable acquire marks the pool dirty: its repository record (if any)
  /// no longer matches and eviction must re-encode.
  RoutineBody &acquire(RoutineId R);

  /// As acquire(), but the caller promises not to mutate the body: the pool
  /// stays "clean", so eviction can drop it straight back to its existing
  /// repository record without re-encoding or re-storing. Read-only phases
  /// (verification, checksums, lowering) use this.
  const RoutineBody &acquireRead(RoutineId R);

  /// As acquire(), but returns null for undefined routines.
  RoutineBody *acquireIfDefined(RoutineId R);

  /// Drops one pin from \p R. When the last pin drops, the pool becomes
  /// unload-pending and joins its shard's cache; while the summed cache is
  /// over budget the shard then lazily compacts (and offloads) its own LRU
  /// pools.
  void release(RoutineId R);

  /// Releases every pinned routine (phase boundaries).
  void releaseAll();

  /// Derived IL facts for \p R (call sites, stored globals, size, hottest
  /// block), computed at most once per body version: a cached summary is
  /// served without touching the pool; a missing one costs a single read
  /// acquire. Mutable acquires invalidate, and the matching release
  /// recomputes from the still-resident body, so the interprocedural phases'
  /// repeated whole-set scans (call-graph builds, global summaries, inliner
  /// size queries) stop forcing parked pools back through decode. Returns
  /// null for undefined routines. The pointer stays valid until the next
  /// mutable acquire of \p R; single-threaded phases only.
  const RoutineIlSummary *routineSummary(RoutineId R);

  /// Captures \p R's current body (must be defined and not mutably pinned)
  /// without expanding a parked pool: an offloaded pool yields a reference
  /// to its repository record, and so does an expanded pool still clean
  /// since the record it was expanded from; a compact pool yields a copy of
  /// its resident bytes. Only a dirty expanded pool is encoded, under a
  /// read acquire. Resident bytes are charged to MemCategory::HloIr: they
  /// are optimizer state the NAIM budget cannot evict.
  PoolSnapshot snapshotPool(RoutineId R);

  /// Decodes \p Snap (taken of \p R) into a fresh body charged to the
  /// program's tracker. A record is read with the fetch path's one re-read
  /// on corruption, counts as a fetch, and its buffer is charged to
  /// MemCategory::HloIr while it lives. Snapshot bytes that cannot be read
  /// or decoded latch the first error with a PoolPoisoned event and yield a
  /// stub body, as an unrecoverable pool does; R's own pool is untouched.
  /// Safe to call from concurrent workers.
  std::unique_ptr<RoutineBody> expandSnapshot(RoutineId R,
                                              const PoolSnapshot &Snap);

  /// Enforces budgets immediately; with \p Everything, compacts all
  /// unpinned pools regardless of budget (end-of-phase cleanup in tests).
  void enforceBudget(bool Everything = false);

  /// Compacts module symbol tables if the mode/thresholds call for it.
  void maybeCompactSymtabs();

  /// Bytes of expanded IR currently sitting unpinned in the caches (summed
  /// over shards).
  uint64_t cacheBytes() const;

  /// Number of unpinned expanded pools resident (paper: "cache fullness is
  /// based on the number of expanded pools resident in memory").
  size_t cachedPoolCount() const;

  /// Activity counters, summed over every shard. Returns a snapshot: safe
  /// to call while workers are active, exact once they have joined.
  LoaderStats stats() const;

  /// One shard's counters (tests, the per-shard --stats breakdown).
  LoaderStats shardStats(unsigned Shard) const;

  /// The number of shards (>= 1).
  unsigned shardCount() const { return NumShards; }

  /// The shard owning \p R: a stable hash of the id alone, so placement is
  /// identical at every jobs count.
  unsigned shardOf(RoutineId R) const {
    // splitmix64: id bits are sequential, and a weak mix would put every
    // routine of a module on one shard.
    uint64_t X = uint64_t(R) + 0x9e3779b97f4a7c15ull;
    X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
    X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
    X ^= X >> 31;
    return static_cast<unsigned>(X % NumShards);
  }

  /// Shard \p Shard's repository file.
  Repository &repository(unsigned Shard = 0);

  /// The session's effective fault injector (Config.Injector or the one
  /// armed from SCMO_FAULT_INJECT at construction; may be null). Every
  /// durable-I/O path in the session — and every shard repository — reuses
  /// this instance so per-site op counters stay deterministic across the
  /// whole build.
  std::shared_ptr<FaultInjector> faultInjector() { return Faults; }

  /// Installs the corruption fallback (degradation rung 3) on every shard.
  /// The handler is invoked under a shard mutex and must not call back into
  /// the loader.
  void setRecoveryHandler(RecoverFn F);

  /// True once a spill failure has switched any shard to resident mode.
  bool degraded() const;

  /// How many shards have degraded to resident mode (0 = fully healthy).
  /// One failing repository file degrades only its own shard.
  unsigned degradedShardCount() const;

  /// The first unrecoverable spill-path error (Ok while the loader is
  /// healthy), scanned in shard order. Once set, some acquired bodies are
  /// stubs: the compilation's results are invalid and the driver must fail
  /// the build with this.
  Status firstError() const;

  /// Drains the accumulated fault-path events (per shard oldest first, in
  /// shard order).
  std::vector<LoaderEvent> takeEvents();

  /// True if the effective mode compacts IR at all.
  bool irCompactionEnabled() const;
  /// True if the effective mode compacts symbol tables.
  bool stCompactionEnabled() const;
  /// True if the effective mode offloads to disk.
  bool offloadEnabled() const;

private:
  friend class LoaderShard;

  Program &P;
  NaimConfig Config;
  unsigned NumShards;
  std::shared_ptr<FaultInjector> Faults;
  std::vector<std::unique_ptr<LoaderShard>> ShardList;

  /// Symtabs are program-wide, not per-routine, so they stay facade state.
  std::mutex SymtabM;
  std::atomic<uint64_t> SymtabCompactions{0};
};

} // namespace scmo

#endif // SCMO_NAIM_LOADER_H
