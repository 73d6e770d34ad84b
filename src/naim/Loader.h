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
///    releasing call, under the loader mutex; an acquire fetches and expands
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
/// Failure model: the spill path is fallible by design and the loader never
/// aborts the process. The degradation ladder, from cheapest to last resort:
///
///   1. transient store/fetch faults (EINTR/EAGAIN, short transfers) are
///      retried inside the Repository and never surface;
///   2. a failed spill (ENOSPC, EIO) permanently disables offloading — pools
///      stay compact-resident, the compact budget is lifted, and a warning
///      event records the slower-but-alive outcome. The failing store
///      happens inside the releasing call, so the event and the degraded
///      state are visible when that call returns;
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
/// Concurrency (DESIGN.md §5k): the loader is safe to call from the parallel
/// backend's worker threads. One mutex guards pool metadata, transitions,
/// the LRU cache, symbol-table compaction and repository stores; it is the
/// only loader lock. The loader starts no threads of its own. The returned
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
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace scmo {

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

  /// Soft cap on expanded-but-unpinned (cache-resident) IR bytes. While the
  /// cache exceeds it, the loader compacts its least-recently-used pools.
  uint64_t ExpandedCacheBytes = 64ull << 20;

  /// Cap on in-memory compact bytes; beyond it, compact pools are offloaded
  /// to the repository (only in Offload / Auto modes).
  uint64_t CompactResidentBytes = 64ull << 20;

  /// For Auto mode: the machine's memory size from which thresholds derive.
  uint64_t MachineMemoryBytes = 512ull << 20;

  /// Repository path ("" = a private anonymous temp file).
  std::string RepositoryPath;

  /// Ignored. The loader has one lock and one repository; the field stays
  /// only because scmobench/scmobench.cpp still assigns it, and goes with
  /// the benchmark change that drops cmo-mem4's pin of it.
  unsigned Shards = 0;

  /// Fault injector for the repository (tests / --fault-inject). When null,
  /// the loader arms one from SCMO_FAULT_INJECT if that is set, so whole
  /// test suites can run under injection without code changes.
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
/// returns a snapshot of the loader's internal relaxed-atomic counters:
/// safe to read while workers are active, exact once they have joined.
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
  // Payload bytes stored in the repository. Records are never compressed,
  // so both fields equal Repository::bytesStored().
  uint64_t RawBytes = 0;
  uint64_t CompressedBytes = 0;

  // Contention telemetry (DESIGN.md §5k): time workers spent blocked on
  // the loader mutex, sampled try_lock-then-lock on the acquire/release
  // hot paths.
  uint64_t LockWaitNanos = 0; ///< Nanoseconds spent in contended locks.
  uint64_t Contentions = 0;   ///< Hot-path lock attempts that had to wait.

  // Fault-path activity (all zero on a healthy disk).
  uint64_t SpillFailures = 0; ///< Failed offload stores (at most 1).
  uint64_t FetchRetries = 0;  ///< Corrupt fetches re-read.
  uint64_t Recoveries = 0;    ///< Pools rebuilt from their object file.
  uint64_t PoisonedPools = 0; ///< Unrecoverable pools or snapshots replaced
                              ///< by stubs.
};

/// A routine body captured without expanding its pool (Loader::snapshotPool),
/// in one of two kinds:
///
///  - a record reference (RecordSize != 0; records are never empty): the
///    pool's repository record. Records are
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
    SpillDegraded, ///< Offloading disabled; pools stay resident.
    FetchRetried,  ///< A corrupt fetch healed on immediate re-read.
    Recovered,     ///< A corrupt pool was re-expanded from its object file.
    PoolPoisoned,  ///< Unrecoverable; the build must fail structurally.
  };
  Kind K = Kind::SpillDegraded;
  RoutineId Routine = InvalidId;
  std::string Detail;
};

/// Manages residency for every transitory pool in a Program.
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
  /// unload-pending and joins the cache; while the cache is over budget the
  /// loader then lazily compacts (and offloads) its LRU pools.
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

  /// Bytes of expanded IR currently sitting unpinned in the cache.
  uint64_t cacheBytes() const;

  /// Number of unpinned expanded pools resident (paper: "cache fullness is
  /// based on the number of expanded pools resident in memory").
  size_t cachedPoolCount() const;

  /// Activity counters. Returns a snapshot: safe to call while workers are
  /// active, exact once they have joined.
  LoaderStats stats() const;

  /// The repository file offloaded pools are stored to.
  Repository &repository() { return Repo; }

  /// The session's effective fault injector (Config.Injector or the one
  /// armed from SCMO_FAULT_INJECT at construction; may be null). Every
  /// durable-I/O path in the session reuses this instance so per-site op
  /// counters stay deterministic across the whole build.
  std::shared_ptr<FaultInjector> faultInjector() { return Faults; }

  /// Installs the corruption fallback (degradation rung 3). The handler is
  /// invoked under the loader mutex and must not call back into the loader.
  void setRecoveryHandler(RecoverFn F);

  /// True once a spill failure has switched the loader to resident mode.
  bool degraded() const;

  /// The first unrecoverable spill-path error (Ok while the loader is
  /// healthy). Once set, some acquired bodies are stubs: the compilation's
  /// results are invalid and the driver must fail the build with this.
  Status firstError() const;

  /// Drains the accumulated fault-path events, oldest first.
  std::vector<LoaderEvent> takeEvents();

  /// True if the effective mode compacts IR at all.
  bool irCompactionEnabled() const;
  /// True if the effective mode compacts symbol tables.
  bool stCompactionEnabled() const;
  /// True if the effective mode offloads to disk.
  bool offloadEnabled() const;

private:
  /// Counter block. Relaxed atomics: the counters are statistics, not
  /// synchronization, and the workers must not serialize on them.
  struct AtomicStats {
    std::atomic<uint64_t> Acquires{0};
    std::atomic<uint64_t> CacheHits{0};
    std::atomic<uint64_t> Expansions{0};
    std::atomic<uint64_t> Compactions{0};
    std::atomic<uint64_t> Offloads{0};
    std::atomic<uint64_t> Fetches{0};
    std::atomic<uint64_t> SymtabCompactions{0};
    std::atomic<uint64_t> SpillElisions{0};
    std::atomic<uint64_t> LockWaitNanos{0};
    std::atomic<uint64_t> Contentions{0};
    std::atomic<uint64_t> SpillFailures{0};
    std::atomic<uint64_t> FetchRetries{0};
    std::atomic<uint64_t> Recoveries{0};
    std::atomic<uint64_t> PoisonedPools{0};
  };

  /// Locks M, sampling contention: a failed try_lock counts once and the
  /// blocked wait is timed. Sampled on the hot paths (acquire/release)
  /// only — slow paths would just add noise.
  std::unique_lock<std::mutex> lockM();

  RoutineBody &acquireImpl(RoutineId R, bool Mutable);
  /// The last pin on R dropped: summarize its body, then park it.
  void unpinLocked(RoutineId R);
  /// Places the unpinned expanded pool R at the MRU end of the cache.
  void parkLocked(RoutineId R);
  void unlinkLruLocked(RoutineId R);
  void enforceBudgetLocked(std::unique_lock<std::mutex> &L, bool Everything);
  void evictOneLocked(std::unique_lock<std::mutex> &L);
  void offloadOverBudgetLocked();

  void compactPool(RoutineId R, std::unique_lock<std::mutex> &L);
  void setCompactLocked(RoutineId R, std::vector<uint8_t> Bytes,
                        uint64_t Hash);
  void offloadPool(RoutineId R);
  void storeSyncLocked(RoutineId R, std::vector<uint8_t> Bytes, uint64_t Hash);
  void degradeSpillsLocked(RoutineId R, const Status &Cause);
  /// Decodes a parked (compact or offloaded) pool and installs its body,
  /// walking the full degradation ladder; returns the unrecoverable error.
  Status expandPool(RoutineId R, std::unique_lock<std::mutex> &L);
  Status fetchRecord(uint64_t Offset, uint64_t Size,
                     std::vector<uint8_t> &Bytes, std::string &RetryDetail);
  Status recoverPoolLocked(RoutineId R, Status Cause);
  void installBodyLocked(RoutineId R, std::unique_ptr<RoutineBody> Body);
  void poisonPoolLocked(RoutineId R, Status Cause);
  /// Counts an unrecoverable body, records its PoolPoisoned event and
  /// latches the first error.
  void latchPoisonLocked(RoutineId R, Status Cause);

  Program &P;
  NaimConfig Config;
  std::shared_ptr<FaultInjector> Faults;
  Repository Repo;

  AtomicStats Stats;

  /// Guards pool metadata, the cache, symbol-table compaction, fault state
  /// and repository stores.
  mutable std::mutex M;
  std::condition_variable TransitionCv;

  /// Unpinned expanded pools in park order, least recently used at the
  /// head: a doubly-linked list threaded through RoutineSlot::LruPrev /
  /// LruNext, so parking and unparking allocate nothing.
  RoutineId LruHead = InvalidId;
  RoutineId LruTail = InvalidId;
  size_t LruCount = 0;
  /// Sum of irBytes over the LRU list.
  uint64_t CachedBytes = 0;
  /// Compact pools in id order: the offload victims, so the budget check
  /// need not rescan every routine id.
  std::set<RoutineId> CompactIds;

  bool SpillDisabled = false;
  std::vector<LoaderEvent> Events;
  Status FirstErr;
  RecoverFn Recover;
};

} // namespace scmo

#endif // SCMO_NAIM_LOADER_H
