//===- naim/Loader.cpp ----------------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "naim/Loader.h"

#include "bytecode/Compact.h"
#include "support/Debug.h"
#include "support/Hash.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <iterator>
#include <set>

using namespace scmo;

namespace {
constexpr std::memory_order Relaxed = std::memory_order_relaxed;

/// One pass over a resident body collecting the facts routineSummary()
/// serves. Must mirror exactly what the consumers used to read off the body
/// themselves: CallGraph::build's site scan (Count = block frequency under a
/// profile, else 0), computeGlobalSummaries' store scan, the inliner's
/// instrCount() and selectivity's hottest-block search.
std::unique_ptr<RoutineIlSummary> summarizeBody(const RoutineBody &Body) {
  auto Sum = std::make_unique<RoutineIlSummary>();
  Sum->HasProfile = Body.HasProfile;
  for (BlockId B = 0; B != Body.Blocks.size(); ++B) {
    const BasicBlock &BB = Body.Blocks[B];
    Sum->InstrCount += static_cast<uint32_t>(BB.Instrs.size());
    if (Body.HasProfile)
      Sum->MaxBlockFreq = std::max(Sum->MaxBlockFreq, BB.Freq);
    for (uint32_t Idx = 0; Idx != BB.Instrs.size(); ++Idx) {
      const Instr *I = BB.Instrs[Idx];
      if (I->Op == Opcode::Call) {
        RoutineIlSummary::Site S;
        S.Block = B;
        S.InstrIdx = Idx;
        S.Callee = I->Sym;
        S.Count = Body.HasProfile ? BB.Freq : 0;
        S.NumArgs = I->NumArgs;
        S.HasDst = I->Dst != NoReg;
        for (uint32_t A = 0; A != I->NumArgs; ++A)
          if (I->Args[A].isImm())
            S.ConstArgs.emplace_back(A, I->Args[A].asImm());
        Sum->Sites.push_back(std::move(S));
      } else if (I->Op == Opcode::Ret) {
        ++Sum->RetCount;
      } else if (I->Op == Opcode::StoreG || I->Op == Opcode::StoreIdx) {
        Sum->StoredGlobals.push_back(I->Sym);
      }
    }
  }
  if (!Body.Blocks.empty())
    Sum->EntryFreq = Body.Blocks[0].Freq;
  std::sort(Sum->StoredGlobals.begin(), Sum->StoredGlobals.end());
  Sum->StoredGlobals.erase(
      std::unique(Sum->StoredGlobals.begin(), Sum->StoredGlobals.end()),
      Sum->StoredGlobals.end());
  return Sum;
}

/// Shard S of a multi-shard session stores to "<base>.<S>.naim"; one shard
/// keeps the exact configured path (the pre-shard contract), and an empty
/// base stays empty (anonymous per-shard temp files).
std::string shardRepoPath(const std::string &Base, unsigned NumShards,
                          unsigned Idx) {
  if (Base.empty() || NumShards == 1)
    return Base;
  return Base + "." + std::to_string(Idx) + ".naim";
}

/// A minimal valid body for \p R (one Ret), handed out in place of bytes
/// that cannot be read back, so the phase holding it runs to completion.
std::unique_ptr<RoutineBody> stubBody(Program &P, RoutineId R) {
  auto Stub = std::make_unique<RoutineBody>(P.tracker());
  Stub->NumParams = P.routine(R).NumParams;
  Stub->NextReg = Stub->NumParams + 1;
  Stub->newBlock();
  Instr *Ret = Stub->newInstr(Opcode::Ret);
  Ret->A = Operand::imm(0);
  Stub->Blocks[0].Instrs.push_back(Ret);
  return Stub;
}
} // namespace

namespace scmo {

//===----------------------------------------------------------------------===//
// LoaderShard
//===----------------------------------------------------------------------===//

/// One shard of the loader: the complete pre-shard loader state machine —
/// mutex, LRU cache, repository file — scoped to the subset of routines
/// whose id hashes here (Loader::shardOf). Shards never touch each other's
/// slots or locks; everything cross-shard (the budget total, symtabs) lives
/// on the facade.
class LoaderShard {
public:
  LoaderShard(Loader &F, unsigned Idx)
      : F(F), P(F.P), Config(F.Config), Idx(Idx),
        Repo(shardRepoPath(Config.RepositoryPath, F.NumShards, Idx), F.Faults,
             Idx) {}

  RoutineBody &acquireImpl(RoutineId R, bool Mutable);
  void release(RoutineId R);
  void releaseAllShard();
  void enforceBudgetShard(bool Everything);
  const RoutineIlSummary *routineSummary(RoutineId R);
  PoolSnapshot snapshotPool(RoutineId R);
  std::unique_ptr<RoutineBody> expandSnapshot(RoutineId R,
                                              const PoolSnapshot &Snap);

  uint64_t cacheBytes() const { return CachedBytes.load(Relaxed); }
  size_t cachedPoolCount() const {
    std::lock_guard<std::mutex> L(M);
    return LruCount;
  }
  bool degraded() const { return SpillDisabled.load(Relaxed); }
  Status firstError() const {
    std::lock_guard<std::mutex> L(M);
    return FirstErr;
  }
  std::vector<LoaderEvent> takeEvents() {
    std::lock_guard<std::mutex> L(M);
    return std::move(Events);
  }
  void setRecoveryHandler(Loader::RecoverFn Fn) {
    std::lock_guard<std::mutex> L(M);
    Recover = std::move(Fn);
  }
  Repository &repository() { return Repo; }
  LoaderStats snapshot() const;

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
    std::atomic<uint64_t> SpillElisions{0};
    std::atomic<uint64_t> LockWaitNanos{0};
    std::atomic<uint64_t> Contentions{0};
    std::atomic<uint64_t> SpillFailures{0};
    std::atomic<uint64_t> FetchRetries{0};
    std::atomic<uint64_t> Recoveries{0};
    std::atomic<uint64_t> PoisonedPools{0};
  };

  /// Locks M, sampling contention: a failed try_lock counts once and the
  /// blocked wait is timed. The LockWaitNanos/Contentions pair is the
  /// measurable axis of the sharding win (ISSUE 10), so it is sampled on
  /// the hot paths (acquire/release) only — slow paths would just add
  /// noise.
  std::unique_lock<std::mutex> lockM() {
    std::unique_lock<std::mutex> L(M, std::try_to_lock);
    if (!L.owns_lock()) {
      Stats.Contentions.fetch_add(1, Relaxed);
      auto T0 = std::chrono::steady_clock::now();
      L.lock();
      Stats.LockWaitNanos.fetch_add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - T0)
              .count(),
          Relaxed);
    }
    return L;
  }

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
  /// latches the shard's first error.
  void latchPoisonLocked(RoutineId R, Status Cause);

  Loader &F;
  Program &P;
  const NaimConfig &Config;
  const unsigned Idx;
  Repository Repo;

  AtomicStats Stats;

  /// Guards this shard's pool metadata, cache, fault state and repository
  /// stores. Never held together with another shard's M.
  mutable std::mutex M;
  std::condition_variable TransitionCv;

  /// Unpinned expanded pools in park order, least recently used at the
  /// head: a doubly-linked list threaded through RoutineSlot::LruPrev /
  /// LruNext, so parking and unparking allocate nothing.
  RoutineId LruHead = InvalidId;
  RoutineId LruTail = InvalidId;
  size_t LruCount = 0;
  /// Sum of irBytes over the LRU list. Atomic so every shard's budget check
  /// can sum it without taking M; mutations stay under M.
  std::atomic<uint64_t> CachedBytes{0};
  /// This shard's Compact pools in id order: the offload victims, so the
  /// budget check need not rescan every routine id.
  std::set<RoutineId> CompactIds;

  std::atomic<bool> SpillDisabled{false};
  std::vector<LoaderEvent> Events;
  Status FirstErr;
  Loader::RecoverFn Recover;
};

} // namespace scmo

//===----------------------------------------------------------------------===//
// Shard: acquire / release / budget
//===----------------------------------------------------------------------===//

RoutineBody &LoaderShard::acquireImpl(RoutineId R, bool Mutable) {
  Stats.Acquires.fetch_add(1, Relaxed);
  std::unique_lock<std::mutex> L = lockM();
  RoutineInfo &RI = P.routine(R);
  RoutineSlot &S = RI.Slot;
  assert(RI.IsDefined && "acquiring an undefined routine");
  // A transition (decode/encode outside the mutex) owns the slot; wait for
  // it to land rather than observing a half-moved state.
  while (S.InTransition)
    TransitionCv.wait(L);
  switch (S.State) {
  case PoolState::Expanded:
    if (S.UnloadPending) {
      // Cache hit: just flip the state back; no loading work at all — the
      // payoff of the lazy unloader (paper Section 4.3).
      Stats.CacheHits.fetch_add(1, Relaxed);
      unlinkLruLocked(R);
      CachedBytes.fetch_sub(S.Body->irBytes(), Relaxed);
      S.UnloadPending = false;
    }
    break;
  case PoolState::Compact:
  case PoolState::Offloaded: {
    Status St = expandPool(R, L);
    // An unrecoverable pool is poisoned, never fatal: the caller gets a
    // stub body so in-flight phases complete safely, and the driver fails
    // the build with the latched error at its next checkpoint.
    if (!St.ok())
      poisonPoolLocked(R, std::move(St));
    break;
  }
  case PoolState::None:
    scmo_unreachable("defined routine with no pool");
  }
  if (Mutable) {
    S.CleanSinceRepo = false;
    // The body may change under this pin: the cached summary is stale. The
    // matching release recomputes it while the body is still resident.
    if (S.Summary) {
      S.Summary.reset();
      S.ResummarizeOnRelease = true;
    }
  }
  ++S.Pins;
  return *S.Body;
}

void LoaderShard::release(RoutineId R) {
  std::unique_lock<std::mutex> L = lockM();
  RoutineSlot &S = P.routine(R).Slot;
  if (S.State != PoolState::Expanded || S.UnloadPending || S.InTransition)
    return;
  // Drop one pin; the pool stays resident while any worker still holds
  // it. (Pins == 0 here means a "born pinned" body the frontend installed
  // and nobody ever acquired: its first release unpins it.)
  if (S.Pins > 0 && --S.Pins > 0)
    return;
  unpinLocked(R);
  enforceBudgetLocked(L, /*Everything=*/false);
}

void LoaderShard::unpinLocked(RoutineId R) {
  RoutineSlot &S = P.routine(R).Slot;
  // Summarize while the body is still resident (a scan, not a decode): a
  // mutable pin-cycle just ended and discarded the summary, or — when
  // pools can park at all — this body has never been summarized and the
  // next whole-set consumer would otherwise have to re-expand it.
  if (S.ResummarizeOnRelease || (!S.Summary && F.irCompactionEnabled())) {
    S.Summary = summarizeBody(*S.Body);
    S.ResummarizeOnRelease = false;
  }
  parkLocked(R);
}

void LoaderShard::parkLocked(RoutineId R) {
  // Mark unload-pending and place at the MRU end of the cache; actual
  // compaction happens only if the budget demands it.
  RoutineSlot &S = P.routine(R).Slot;
  S.UnloadPending = true;
  S.LruPrev = LruTail;
  S.LruNext = InvalidId;
  if (LruTail != InvalidId)
    P.routine(LruTail).Slot.LruNext = R;
  else
    LruHead = R;
  LruTail = R;
  ++LruCount;
  CachedBytes.fetch_add(S.Body->irBytes(), Relaxed);
}

void LoaderShard::unlinkLruLocked(RoutineId R) {
  RoutineSlot &S = P.routine(R).Slot;
  if (S.LruPrev != InvalidId)
    P.routine(S.LruPrev).Slot.LruNext = S.LruNext;
  else
    LruHead = S.LruNext;
  if (S.LruNext != InvalidId)
    P.routine(S.LruNext).Slot.LruPrev = S.LruPrev;
  else
    LruTail = S.LruPrev;
  S.LruPrev = S.LruNext = InvalidId;
  --LruCount;
}

void LoaderShard::releaseAllShard() {
  std::unique_lock<std::mutex> L(M);
  for (RoutineId R = 0; R != P.numRoutines(); ++R) {
    if (F.shardOf(R) != Idx)
      continue;
    RoutineSlot &S = P.routine(R).Slot;
    if (S.State == PoolState::Expanded && !S.UnloadPending &&
        !S.InTransition) {
      // Phase boundary: forcibly forget any outstanding pins — no worker
      // may hold a body across a phase.
      S.Pins = 0;
      unpinLocked(R);
    }
  }
  enforceBudgetLocked(L, /*Everything=*/false);
}

void LoaderShard::enforceBudgetShard(bool Everything) {
  std::unique_lock<std::mutex> L(M);
  enforceBudgetLocked(L, Everything);
}

const RoutineIlSummary *LoaderShard::routineSummary(RoutineId R) {
  {
    std::lock_guard<std::mutex> Lock(M);
    const RoutineSlot &S = P.routine(R).Slot;
    if (S.Summary)
      return S.Summary.get();
  }
  if (!P.routine(R).IsDefined)
    return nullptr;
  const RoutineBody &Body = acquireImpl(R, /*Mutable=*/false);
  auto Sum = summarizeBody(Body);
  const RoutineIlSummary *Raw;
  {
    std::lock_guard<std::mutex> Lock(M);
    RoutineSlot &S = P.routine(R).Slot;
    S.Summary = std::move(Sum);
    Raw = S.Summary.get();
  }
  release(R);
  return Raw;
}

void LoaderShard::enforceBudgetLocked(std::unique_lock<std::mutex> &L,
                                      bool Everything) {
  if (!F.irCompactionEnabled())
    return;
  // One soft budget over every shard's cache: while the summed resident
  // bytes exceed it, evict this shard's least-recently-used pool. Only
  // unpinned pools live in the LRU list, so a pool another worker holds can
  // never be chosen. compactPool drops the mutex around the encode; the
  // loop re-reads the cache state afterwards, so concurrent releases and
  // evictions interleave correctly. The sum reads the other shards'
  // relaxed counters without their mutexes, so no shard ever waits on
  // another. With one shard this is the pre-shard eviction condition.
  while (LruHead != InvalidId &&
         (Everything || F.cacheBytes() > Config.ExpandedCacheBytes))
    evictOneLocked(L);
  offloadOverBudgetLocked();
}

void LoaderShard::evictOneLocked(std::unique_lock<std::mutex> &L) {
  RoutineId Victim = LruHead;
  RoutineSlot &S = P.routine(Victim).Slot;
  unlinkLruLocked(Victim);
  CachedBytes.fetch_sub(S.Body->irBytes(), Relaxed);
  // Clean fast path: a pool that was never mutably acquired since it was
  // expanded from its repository record drops straight back to that record
  // — no re-encode, no store, no compact residency. Content-equal by
  // history, so deterministic.
  if (S.CleanSinceRepo && F.offloadEnabled() && !SpillDisabled.load(Relaxed) &&
      S.LastRepoSize != 0) {
    S.Body.reset();
    S.UnloadPending = false;
    S.State = PoolState::Offloaded;
    S.RepoOffset = S.LastRepoOffset;
    S.RepoSize = S.LastRepoSize;
    Stats.Compactions.fetch_add(1, Relaxed);
    Stats.Offloads.fetch_add(1, Relaxed);
    Stats.SpillElisions.fetch_add(1, Relaxed);
    return;
  }
  compactPool(Victim, L);
}

void LoaderShard::offloadOverBudgetLocked() {
  // Second stage: offload compact pools beyond the compact-residency
  // budget. A degraded shard (earlier spill failure) keeps everything
  // resident: the budget is lifted rather than enforced against a dead
  // disk — and only for this shard; the others keep offloading to their own
  // healthy files.
  if (!F.offloadEnabled() || SpillDisabled.load(Relaxed) || !P.tracker())
    return;
  if (P.tracker()->liveBytes(MemCategory::HloCompact) <=
      Config.CompactResidentBytes)
    return;
  // Offload in deterministic id order; compact pools carry no LRU order
  // (their last-touch ordering died at compaction), and id order keeps the
  // pass reproducible. offloadPool erases R, so step past it first.
  for (auto It = CompactIds.begin(); It != CompactIds.end();) {
    if (SpillDisabled.load(Relaxed) ||
        P.tracker()->liveBytes(MemCategory::HloCompact) <=
            Config.CompactResidentBytes)
      break;
    RoutineId R = *It++;
    if (!P.routine(R).Slot.InTransition)
      offloadPool(R);
  }
}

//===----------------------------------------------------------------------===//
// Shard: compaction / offload / expansion / fault ladder
//===----------------------------------------------------------------------===//

void LoaderShard::compactPool(RoutineId R, std::unique_lock<std::mutex> &L) {
  RoutineSlot &S = P.routine(R).Slot;
  assert(S.State == PoolState::Expanded && S.UnloadPending &&
         "compacting a pinned pool");
  assert(!S.InTransition && "compacting a transitioning pool");
  // The caller already removed the pool from the cache. Detach the body and
  // encode outside the mutex: the swizzle is CPU work other workers need
  // not serialize on.
  std::unique_ptr<RoutineBody> Body = std::move(S.Body);
  S.UnloadPending = false;
  S.InTransition = true;
  L.unlock();
  std::vector<uint8_t> Bytes = compactRoutine(*Body);
  Body.reset();
  uint64_t Hash = hashBytes(Bytes.data(), Bytes.size());
  L.lock();
  S.InTransition = false;
  TransitionCv.notify_all();
  setCompactLocked(R, std::move(Bytes), Hash);
  Stats.Compactions.fetch_add(1, Relaxed);
}

void LoaderShard::setCompactLocked(RoutineId R, std::vector<uint8_t> Bytes,
                                   uint64_t Hash) {
  RoutineSlot &S = P.routine(R).Slot;
  CompactIds.insert(R);
  S.CompactBytes = TrackedBuffer(P.tracker(), MemCategory::HloCompact);
  S.CompactBytes.assign(std::move(Bytes));
  S.CompactHash = Hash;
  S.State = PoolState::Compact;
}

void LoaderShard::offloadPool(RoutineId R) {
  RoutineSlot &S = P.routine(R).Slot;
  assert(S.State == PoolState::Compact && "offloading a non-compact pool");
  CompactIds.erase(R);
  // Content-addressed store elision: if these exact compact bytes already
  // live in the repository (the pool round-tripped without changing), reuse
  // the record instead of storing a duplicate.
  if (S.LastRepoSize != 0 && S.CompactHash == S.LastRepoHash &&
      S.CompactBytes.size() == S.LastRepoSize) {
    S.CompactBytes.clear();
    S.State = PoolState::Offloaded;
    S.RepoOffset = S.LastRepoOffset;
    S.RepoSize = S.LastRepoSize;
    Stats.Offloads.fetch_add(1, Relaxed);
    Stats.SpillElisions.fetch_add(1, Relaxed);
    return;
  }
  storeSyncLocked(R, S.CompactBytes.take(), S.CompactHash);
}

void LoaderShard::storeSyncLocked(RoutineId R, std::vector<uint8_t> Bytes,
                                  uint64_t Hash) {
  RoutineSlot &S = P.routine(R).Slot;
  Expected<uint64_t> Off = Repo.store(Bytes);
  if (!Off.ok()) {
    degradeSpillsLocked(R, Off.status());
    // Degradation instead of death: the pool keeps its compact bytes, this
    // shard stops spilling for good, and the compact-residency budget is
    // lifted (offloadOverBudgetLocked checks SpillDisabled). A slower,
    // fatter compile — not a dead one.
    setCompactLocked(R, std::move(Bytes), Hash);
    return;
  }
  S.State = PoolState::Offloaded;
  S.RepoOffset = S.LastRepoOffset = *Off;
  S.RepoSize = S.LastRepoSize = Bytes.size();
  S.LastRepoHash = Hash;
  Stats.Offloads.fetch_add(1, Relaxed);
}

void LoaderShard::degradeSpillsLocked(RoutineId R, const Status &Cause) {
  if (SpillDisabled.load(Relaxed))
    return;
  SpillDisabled.store(true, Relaxed);
  Stats.SpillFailures.fetch_add(1, Relaxed);
  std::string Detail = "repository spill failed (" + Cause.toString() +
                       "); offloading disabled, pools stay memory-resident";
  if (F.NumShards > 1)
    Detail += " (shard " + std::to_string(Idx) + " of " +
              std::to_string(F.NumShards) + ")";
  Events.push_back({LoaderEvent::Kind::SpillDegraded, R, std::move(Detail)});
}

Status LoaderShard::fetchRecord(uint64_t Offset, uint64_t Size,
                                std::vector<uint8_t> &Bytes,
                                std::string &RetryDetail) {
  Status FS = Repo.fetch(Offset, Size, Bytes);
  if (!FS.ok() && FS.code() == StatusCode::Corruption) {
    // One immediate re-read: corruption introduced between the platter and
    // us (a flipped buffer, a racing cache) heals; bit-rot that made it to
    // disk does not, and falls through to object-file recovery.
    RetryDetail = FS.message();
    FS = Repo.fetch(Offset, Size, Bytes);
  }
  return FS;
}

Status LoaderShard::expandPool(RoutineId R, std::unique_lock<std::mutex> &L) {
  RoutineSlot &S = P.routine(R).Slot;
  assert(!S.InTransition && "expanding a transitioning pool");
  std::vector<uint8_t> Bytes;
  const bool FromRepo = S.State == PoolState::Offloaded;
  const uint64_t Off = S.RepoOffset, Sz = S.RepoSize;
  if (!FromRepo) {
    assert(S.State == PoolState::Compact && "expanding a non-compact pool");
    Bytes = S.CompactBytes.take();
  }
  // Fetch and decode outside the mutex; the transition flag owns the slot.
  S.InTransition = true;
  L.unlock();
  Status Err;
  std::string RetryDetail;
  if (FromRepo) {
    Err = fetchRecord(Off, Sz, Bytes, RetryDetail);
    if (Err.ok())
      Stats.Fetches.fetch_add(1, Relaxed);
  }
  std::unique_ptr<RoutineBody> Body;
  if (Err.ok()) {
    // Uncompaction: decode and eagerly swizzle PIDs back to in-memory form.
    Body = expandRoutine(Bytes, P.tracker());
    if (!Body)
      Err = Status::error(StatusCode::Corruption,
                          "corrupt compact pool for " + P.displayName(R));
  }
  uint64_t Hash = FromRepo && Body ? hashBytes(Bytes.data(), Bytes.size()) : 0;
  L.lock();
  S.InTransition = false;
  TransitionCv.notify_all();
  if (!RetryDetail.empty()) {
    Stats.FetchRetries.fetch_add(1, Relaxed);
    Events.push_back({LoaderEvent::Kind::FetchRetried, R, RetryDetail});
  }
  if (!Err.ok())
    return recoverPoolLocked(R, std::move(Err));
  installBodyLocked(R, std::move(Body));
  if (FromRepo) {
    // Remember the record: if the body round-trips unmutated, eviction can
    // reuse it (clean fast path / store elision).
    S.LastRepoOffset = Off;
    S.LastRepoSize = Sz;
    S.LastRepoHash = Hash;
    S.CleanSinceRepo = true;
  }
  Stats.Expansions.fetch_add(1, Relaxed);
  return Status();
}

Status LoaderShard::recoverPoolLocked(RoutineId R, Status Cause) {
  if (Recover) {
    if (std::unique_ptr<RoutineBody> Body = Recover(R)) {
      installBodyLocked(R, std::move(Body));
      // The object-file body is not what was summarized (the pool may have
      // been optimized since); expand installs, by contrast, decode
      // the very bytes the summary described, so they keep it.
      P.routine(R).Slot.Summary.reset();
      P.routine(R).Slot.ResummarizeOnRelease = false;
      Stats.Recoveries.fetch_add(1, Relaxed);
      Events.push_back({LoaderEvent::Kind::Recovered, R,
                        Cause.message() + "; re-expanded " + P.displayName(R) +
                            " from its object file"});
      return Status();
    }
  }
  return Cause;
}

void LoaderShard::installBodyLocked(RoutineId R,
                                    std::unique_ptr<RoutineBody> Body) {
  RoutineSlot &S = P.routine(R).Slot;
  CompactIds.erase(R);
  S.Body = std::move(Body);
  S.CompactBytes.clear();
  S.State = PoolState::Expanded;
  S.UnloadPending = false;
  // The installed body's provenance decides cleanliness; expandPool re-sets
  // the flag for record-sourced bodies. A recovered (object-file) body in
  // particular must never reuse a record that just proved corrupt.
  S.CleanSinceRepo = false;
  S.LastRepoSize = 0;
  S.LastRepoOffset = 0;
  S.LastRepoHash = 0;
}

void LoaderShard::latchPoisonLocked(RoutineId R, Status Cause) {
  Stats.PoisonedPools.fetch_add(1, Relaxed);
  Events.push_back({LoaderEvent::Kind::PoolPoisoned, R, Cause.toString()});
  if (FirstErr.ok())
    FirstErr = std::move(Cause);
}

void LoaderShard::poisonPoolLocked(RoutineId R, Status Cause) {
  latchPoisonLocked(R, std::move(Cause));
  // Install a stub so the acquiring phase can run to completion without
  // dereferencing a dead pool; the latched FirstErr guarantees the driver
  // discards the results.
  installBodyLocked(R, stubBody(P, R));
  P.routine(R).Slot.Summary.reset();
  P.routine(R).Slot.ResummarizeOnRelease = false;
}

PoolSnapshot LoaderShard::snapshotPool(RoutineId R) {
  PoolSnapshot Snap;
  Snap.Bytes = TrackedBuffer(P.tracker(), MemCategory::HloIr);
  {
    std::unique_lock<std::mutex> L(M);
    RoutineSlot &S = P.routine(R).Slot;
    while (S.InTransition)
      TransitionCv.wait(L);
    if (S.State == PoolState::Offloaded) {
      Snap.RecordOffset = S.RepoOffset;
      Snap.RecordSize = S.RepoSize;
      return Snap;
    }
    if (S.State == PoolState::Expanded && S.CleanSinceRepo &&
        S.LastRepoSize != 0) {
      Snap.RecordOffset = S.LastRepoOffset;
      Snap.RecordSize = S.LastRepoSize;
      return Snap;
    }
    if (S.State == PoolState::Compact) {
      Snap.Bytes.assign(S.CompactBytes.bytes());
      return Snap;
    }
  }
  Snap.Bytes.assign(compactRoutine(acquireImpl(R, /*Mutable=*/false)));
  release(R);
  return Snap;
}

std::unique_ptr<RoutineBody>
LoaderShard::expandSnapshot(RoutineId R, const PoolSnapshot &Snap) {
  Status Err;
  std::unique_ptr<RoutineBody> Body;
  std::string RetryDetail;
  if (Snap.isRecord()) {
    // The record is immutable and the pread runs unlocked, so workers read
    // snapshots while others append to the same file.
    std::vector<uint8_t> Raw;
    Err = fetchRecord(Snap.RecordOffset, Snap.RecordSize, Raw, RetryDetail);
    if (Err.ok()) {
      Stats.Fetches.fetch_add(1, Relaxed);
      TrackedBuffer Bytes(P.tracker(), MemCategory::HloIr);
      Bytes.assign(std::move(Raw));
      Body = expandRoutine(Bytes.bytes(), P.tracker());
    }
  } else {
    Body = expandRoutine(Snap.Bytes.bytes(), P.tracker());
  }
  if (!Err.ok())
    Err = Status::error(Err.code(), "snapshot record of " + P.displayName(R) +
                                        ": " + Err.message());
  else if (!Body)
    Err = Status::error(StatusCode::Corruption,
                        "corrupt snapshot of " + P.displayName(R));
  if (RetryDetail.empty() && Err.ok())
    return Body;
  std::lock_guard<std::mutex> L(M);
  if (!RetryDetail.empty()) {
    Stats.FetchRetries.fetch_add(1, Relaxed);
    Events.push_back({LoaderEvent::Kind::FetchRetried, R,
                      "snapshot record of " + P.displayName(R) + ": " +
                          RetryDetail});
  }
  if (Err.ok())
    return Body;
  // No object-file fallback: the snapshot is the body as WPA planned it,
  // which a rebuilt body need not match.
  latchPoisonLocked(R, std::move(Err));
  return stubBody(P, R);
}

LoaderStats LoaderShard::snapshot() const {
  LoaderStats S;
  S.Acquires = Stats.Acquires.load(Relaxed);
  S.CacheHits = Stats.CacheHits.load(Relaxed);
  S.Expansions = Stats.Expansions.load(Relaxed);
  S.Compactions = Stats.Compactions.load(Relaxed);
  S.Offloads = Stats.Offloads.load(Relaxed);
  S.Fetches = Stats.Fetches.load(Relaxed);
  S.SpillElisions = Stats.SpillElisions.load(Relaxed);
  S.RawBytes = S.CompressedBytes = Repo.bytesStored();
  S.LockWaitNanos = Stats.LockWaitNanos.load(Relaxed);
  S.Contentions = Stats.Contentions.load(Relaxed);
  S.SpillFailures = Stats.SpillFailures.load(Relaxed);
  S.FetchRetries = Stats.FetchRetries.load(Relaxed);
  S.Recoveries = Stats.Recoveries.load(Relaxed);
  S.PoisonedPools = Stats.PoisonedPools.load(Relaxed);
  return S;
}

//===----------------------------------------------------------------------===//
// Loader facade
//===----------------------------------------------------------------------===//

Loader::Loader(Program &P, const NaimConfig &Config)
    : P(P), Config(Config),
      // 0 = "auto": the driver resolves it to the pool width before
      // constructing the loader; a bare Loader (unit tests) treats 0 as 1,
      // the exact monolithic pre-shard behavior.
      NumShards(Config.Shards ? Config.Shards : 1),
      Faults(Config.Injector ? Config.Injector : FaultInjector::fromEnv()) {
  ShardList.reserve(NumShards);
  for (unsigned I = 0; I != NumShards; ++I)
    ShardList.push_back(std::make_unique<LoaderShard>(*this, I));
}

Loader::~Loader() = default;

// The threshold predicates read only the config and the (atomic) tracker
// totals, so they need no lock of their own; the callers that act on them
// (enforceBudgetLocked) already hold their shard's mutex.

bool Loader::irCompactionEnabled() const {
  switch (Config.Mode) {
  case NaimMode::Off:
    return false;
  case NaimMode::CompactIr:
  case NaimMode::CompactIrSt:
  case NaimMode::Offload:
    return true;
  case NaimMode::Auto:
    // Threshold staging: IR compaction turns on once total optimizer memory
    // crosses a fraction of machine memory.
    return !P.tracker() ||
           P.tracker()->totalLiveBytes() > Config.MachineMemoryBytes / 4;
  }
  scmo_unreachable("invalid NAIM mode");
}

bool Loader::stCompactionEnabled() const {
  switch (Config.Mode) {
  case NaimMode::Off:
  case NaimMode::CompactIr:
    return false;
  case NaimMode::CompactIrSt:
  case NaimMode::Offload:
    return true;
  case NaimMode::Auto:
    return !P.tracker() ||
           P.tracker()->totalLiveBytes() > Config.MachineMemoryBytes / 2;
  }
  scmo_unreachable("invalid NAIM mode");
}

bool Loader::offloadEnabled() const {
  switch (Config.Mode) {
  case NaimMode::Off:
  case NaimMode::CompactIr:
  case NaimMode::CompactIrSt:
    return false;
  case NaimMode::Offload:
    return true;
  case NaimMode::Auto:
    // floor(3/4 of it), spelled so that no machine size can overflow.
    return !P.tracker() || P.tracker()->totalLiveBytes() >
                               Config.MachineMemoryBytes / 4 * 3 +
                                   Config.MachineMemoryBytes % 4 * 3 / 4;
  }
  scmo_unreachable("invalid NAIM mode");
}

RoutineBody *Loader::acquireIfDefined(RoutineId R) {
  if (!P.routine(R).IsDefined)
    return nullptr;
  return &acquire(R);
}

RoutineBody &Loader::acquire(RoutineId R) {
  return ShardList[shardOf(R)]->acquireImpl(R, /*Mutable=*/true);
}

const RoutineBody &Loader::acquireRead(RoutineId R) {
  return ShardList[shardOf(R)]->acquireImpl(R, /*Mutable=*/false);
}

void Loader::release(RoutineId R) { ShardList[shardOf(R)]->release(R); }

void Loader::releaseAll() {
  for (auto &Sh : ShardList)
    Sh->releaseAllShard();
}

void Loader::enforceBudget(bool Everything) {
  for (auto &Sh : ShardList)
    Sh->enforceBudgetShard(Everything);
}

const RoutineIlSummary *Loader::routineSummary(RoutineId R) {
  return ShardList[shardOf(R)]->routineSummary(R);
}

PoolSnapshot Loader::snapshotPool(RoutineId R) {
  return ShardList[shardOf(R)]->snapshotPool(R);
}

std::unique_ptr<RoutineBody> Loader::expandSnapshot(RoutineId R,
                                                    const PoolSnapshot &Snap) {
  return ShardList[shardOf(R)]->expandSnapshot(R, Snap);
}

void Loader::maybeCompactSymtabs() {
  if (!stCompactionEnabled())
    return;
  std::lock_guard<std::mutex> Lock(SymtabM);
  for (ModuleId MI = 0; MI != P.numModules(); ++MI) {
    ModuleSymtab &St = P.module(MI).Symtab;
    if (St.state() == PoolState::Expanded && St.expandedBytes()) {
      St.compact(P.tracker());
      SymtabCompactions.fetch_add(1, Relaxed);
    }
  }
}

uint64_t Loader::cacheBytes() const {
  uint64_t Sum = 0;
  for (const auto &Sh : ShardList)
    Sum += Sh->cacheBytes();
  return Sum;
}

size_t Loader::cachedPoolCount() const {
  size_t Sum = 0;
  for (const auto &Sh : ShardList)
    Sum += Sh->cachedPoolCount();
  return Sum;
}

LoaderStats Loader::stats() const {
  LoaderStats Sum;
  for (const auto &Sh : ShardList) {
    LoaderStats S = Sh->snapshot();
    Sum.Acquires += S.Acquires;
    Sum.CacheHits += S.CacheHits;
    Sum.Expansions += S.Expansions;
    Sum.Compactions += S.Compactions;
    Sum.Offloads += S.Offloads;
    Sum.Fetches += S.Fetches;
    Sum.SpillElisions += S.SpillElisions;
    Sum.RawBytes += S.RawBytes;
    Sum.CompressedBytes += S.CompressedBytes;
    Sum.LockWaitNanos += S.LockWaitNanos;
    Sum.Contentions += S.Contentions;
    Sum.SpillFailures += S.SpillFailures;
    Sum.FetchRetries += S.FetchRetries;
    Sum.Recoveries += S.Recoveries;
    Sum.PoisonedPools += S.PoisonedPools;
  }
  Sum.SymtabCompactions = SymtabCompactions.load(Relaxed);
  Sum.Shards = NumShards;
  return Sum;
}

LoaderStats Loader::shardStats(unsigned Shard) const {
  assert(Shard < NumShards && "shard index out of range");
  LoaderStats S = ShardList[Shard]->snapshot();
  S.Shards = 1;
  return S;
}

Repository &Loader::repository(unsigned Shard) {
  assert(Shard < NumShards && "shard index out of range");
  return ShardList[Shard]->repository();
}

void Loader::setRecoveryHandler(RecoverFn F) {
  for (auto &Sh : ShardList)
    Sh->setRecoveryHandler(F);
}

bool Loader::degraded() const {
  for (const auto &Sh : ShardList)
    if (Sh->degraded())
      return true;
  return false;
}

unsigned Loader::degradedShardCount() const {
  unsigned N = 0;
  for (const auto &Sh : ShardList)
    N += Sh->degraded() ? 1 : 0;
  return N;
}

Status Loader::firstError() const {
  for (const auto &Sh : ShardList) {
    Status S = Sh->firstError();
    if (!S.ok())
      return S;
  }
  return Status();
}

std::vector<LoaderEvent> Loader::takeEvents() {
  std::vector<LoaderEvent> All;
  for (auto &Sh : ShardList) {
    std::vector<LoaderEvent> E = Sh->takeEvents();
    All.insert(All.end(), std::make_move_iterator(E.begin()),
               std::make_move_iterator(E.end()));
  }
  return All;
}
