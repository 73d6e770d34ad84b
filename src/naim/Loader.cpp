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

//===----------------------------------------------------------------------===//
// Construction and mode predicates
//===----------------------------------------------------------------------===//

Loader::Loader(Program &P, const NaimConfig &Config)
    : P(P), Config(Config),
      Faults(Config.Injector ? Config.Injector : FaultInjector::fromEnv()),
      Repo(Config.RepositoryPath, Faults) {}

Loader::~Loader() = default;

// The threshold predicates read only the config and the (atomic) tracker
// totals, so they need no lock of their own; the callers that act on them
// (enforceBudgetLocked) already hold the loader mutex.

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

std::unique_lock<std::mutex> Loader::lockM() {
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

//===----------------------------------------------------------------------===//
// Acquire / release / budget
//===----------------------------------------------------------------------===//

RoutineBody &Loader::acquireImpl(RoutineId R, bool Mutable) {
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
      CachedBytes -= S.Body->irBytes();
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
  case PoolState::Retired:
    // The IL went with the lowering; handing out a stub keeps the caller
    // alive and the latched error fails the build.
    poisonPoolLocked(R, Status::error(StatusCode::Unavailable,
                                      "IL of " + P.displayName(R) +
                                          " was retired after lowering"));
    break;
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

void Loader::release(RoutineId R) {
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

void Loader::retire(RoutineId R) {
  RoutineSlot &S = P.routine(R).Slot;
  bool NeedSummary;
  {
    std::unique_lock<std::mutex> L = lockM();
    if (S.State != PoolState::Expanded || S.UnloadPending || S.InTransition)
      return;
    NeedSummary = !S.Summary || S.ResummarizeOnRelease;
  }
  // The caller's pin keeps the body resident and unchanged, so the scan
  // runs unlocked; only one worker ever holds a routine in LTRANS.
  std::unique_ptr<RoutineIlSummary> Sum;
  if (NeedSummary)
    Sum = summarizeBody(*S.Body);
  std::unique_ptr<RoutineBody> Dead;
  {
    std::unique_lock<std::mutex> L = lockM();
    if (S.Pins > 1) {
      --S.Pins;
      return;
    }
    if (Sum) {
      S.Summary = std::move(Sum);
      S.ResummarizeOnRelease = false;
    }
    Dead = std::move(S.Body);
    S.Pins = 0;
    S.State = PoolState::Retired;
    S.CleanSinceRepo = false;
    S.RepoOffset = S.RepoSize = 0;
    S.LastRepoOffset = S.LastRepoSize = S.LastRepoHash = 0;
  }
  // Freed outside the mutex: the arena's slabs go back to the allocator
  // and the tracker (atomic) without holding up other workers.
}

void Loader::unpinLocked(RoutineId R) {
  RoutineSlot &S = P.routine(R).Slot;
  // Summarize while the body is still resident (a scan, not a decode): a
  // mutable pin-cycle just ended and discarded the summary, or — when
  // pools can park at all — this body has never been summarized and the
  // next whole-set consumer would otherwise have to re-expand it.
  if (S.ResummarizeOnRelease || (!S.Summary && irCompactionEnabled())) {
    S.Summary = summarizeBody(*S.Body);
    S.ResummarizeOnRelease = false;
  }
  parkLocked(R);
}

void Loader::parkLocked(RoutineId R) {
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
  CachedBytes += S.Body->irBytes();
}

void Loader::unlinkLruLocked(RoutineId R) {
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

void Loader::releaseAll() {
  std::unique_lock<std::mutex> L(M);
  for (RoutineId R = 0; R != P.numRoutines(); ++R) {
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

const RoutineIlSummary *Loader::routineSummary(RoutineId R) {
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

void Loader::enforceBudgetLocked(std::unique_lock<std::mutex> &L,
                                 bool Everything) {
  if (!irCompactionEnabled())
    return;
  // The paper's one soft budget: while the resident cache exceeds it, evict
  // the least-recently-used pool. Only unpinned pools live in the LRU list,
  // so a pool another worker holds can never be chosen. compactPool drops
  // the mutex around the encode; the loop re-reads the cache state
  // afterwards, so concurrent releases and evictions interleave correctly.
  while (LruHead != InvalidId &&
         (Everything || CachedBytes > Config.ExpandedCacheBytes))
    evictOneLocked(L);
  offloadOverBudgetLocked();
}

void Loader::evictOneLocked(std::unique_lock<std::mutex> &L) {
  RoutineId Victim = LruHead;
  RoutineSlot &S = P.routine(Victim).Slot;
  unlinkLruLocked(Victim);
  CachedBytes -= S.Body->irBytes();
  // Clean fast path: a pool that was never mutably acquired since it was
  // expanded from its repository record drops straight back to that record
  // — no re-encode, no store, no compact residency. Content-equal by
  // history, so deterministic.
  if (S.CleanSinceRepo && offloadEnabled() && !SpillDisabled &&
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

void Loader::offloadOverBudgetLocked() {
  // Second stage: offload compact pools beyond the compact-residency
  // budget. A degraded loader (earlier spill failure) keeps everything
  // resident: the budget is lifted rather than enforced against a dead
  // disk.
  if (!offloadEnabled() || SpillDisabled || !P.tracker())
    return;
  if (P.tracker()->liveBytes(MemCategory::HloCompact) <=
      Config.CompactResidentBytes)
    return;
  // Offload in deterministic id order; compact pools carry no LRU order
  // (their last-touch ordering died at compaction), and id order keeps the
  // pass reproducible. offloadPool erases R, so step past it first.
  for (auto It = CompactIds.begin(); It != CompactIds.end();) {
    if (SpillDisabled ||
        P.tracker()->liveBytes(MemCategory::HloCompact) <=
            Config.CompactResidentBytes)
      break;
    RoutineId R = *It++;
    if (!P.routine(R).Slot.InTransition)
      offloadPool(R);
  }
}

//===----------------------------------------------------------------------===//
// Compaction / offload / expansion / fault ladder
//===----------------------------------------------------------------------===//

void Loader::compactPool(RoutineId R, std::unique_lock<std::mutex> &L) {
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

void Loader::setCompactLocked(RoutineId R, std::vector<uint8_t> Bytes,
                              uint64_t Hash) {
  RoutineSlot &S = P.routine(R).Slot;
  CompactIds.insert(R);
  S.CompactBytes = TrackedBuffer(P.tracker(), MemCategory::HloCompact);
  S.CompactBytes.assign(std::move(Bytes));
  S.CompactHash = Hash;
  S.State = PoolState::Compact;
}

void Loader::offloadPool(RoutineId R) {
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

void Loader::storeSyncLocked(RoutineId R, std::vector<uint8_t> Bytes,
                             uint64_t Hash) {
  RoutineSlot &S = P.routine(R).Slot;
  Expected<uint64_t> Off = Repo.store(Bytes);
  if (!Off.ok()) {
    degradeSpillsLocked(R, Off.status());
    // Degradation instead of death: the pool keeps its compact bytes, the
    // loader stops spilling for good, and the compact-residency budget is
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

void Loader::degradeSpillsLocked(RoutineId R, const Status &Cause) {
  if (SpillDisabled)
    return;
  SpillDisabled = true;
  Stats.SpillFailures.fetch_add(1, Relaxed);
  std::string Detail = "repository spill failed (" + Cause.toString() +
                       "); offloading disabled, pools stay memory-resident";
  Events.push_back({LoaderEvent::Kind::SpillDegraded, R, std::move(Detail)});
}

Status Loader::fetchRecord(uint64_t Offset, uint64_t Size,
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

Status Loader::expandPool(RoutineId R, std::unique_lock<std::mutex> &L) {
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
    // Uncompaction: decode and eagerly swizzle PIDs back to in-memory form,
    // then drop the decode arena's slab tails; the body stays resident
    // until the budget evicts it.
    Body = expandRoutine(Bytes, P.tracker());
    if (Body)
      Body->repack();
    else
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

Status Loader::recoverPoolLocked(RoutineId R, Status Cause) {
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

void Loader::installBodyLocked(RoutineId R,
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

void Loader::latchPoisonLocked(RoutineId R, Status Cause) {
  Stats.PoisonedPools.fetch_add(1, Relaxed);
  Events.push_back({LoaderEvent::Kind::PoolPoisoned, R, Cause.toString()});
  if (FirstErr.ok())
    FirstErr = std::move(Cause);
}

void Loader::poisonPoolLocked(RoutineId R, Status Cause) {
  latchPoisonLocked(R, std::move(Cause));
  // Install a stub so the acquiring phase can run to completion without
  // dereferencing a dead pool; the latched FirstErr guarantees the driver
  // discards the results.
  installBodyLocked(R, stubBody(P, R));
  P.routine(R).Slot.Summary.reset();
  P.routine(R).Slot.ResummarizeOnRelease = false;
}

PoolSnapshot Loader::snapshotPool(RoutineId R) {
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
Loader::expandSnapshot(RoutineId R, const PoolSnapshot &Snap) {
  // Unlike expandPool, the decoded body keeps its growth arena: it lives
  // only as long as the LTRANS task that asked for it, so a repack would
  // copy it once more for nothing.
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

//===----------------------------------------------------------------------===//
// Entry points and queries
//===----------------------------------------------------------------------===//

RoutineBody *Loader::acquireIfDefined(RoutineId R) {
  if (!P.routine(R).IsDefined)
    return nullptr;
  return &acquire(R);
}

RoutineBody &Loader::acquire(RoutineId R) {
  return acquireImpl(R, /*Mutable=*/true);
}

const RoutineBody &Loader::acquireRead(RoutineId R) {
  return acquireImpl(R, /*Mutable=*/false);
}

void Loader::enforceBudget(bool Everything) {
  std::unique_lock<std::mutex> L(M);
  enforceBudgetLocked(L, Everything);
}

void Loader::maybeCompactSymtabs() {
  if (!stCompactionEnabled())
    return;
  std::lock_guard<std::mutex> Lock(M);
  for (ModuleId MI = 0; MI != P.numModules(); ++MI) {
    ModuleSymtab &St = P.module(MI).Symtab;
    if (St.state() == PoolState::Expanded && St.expandedBytes()) {
      St.compact(P.tracker());
      Stats.SymtabCompactions.fetch_add(1, Relaxed);
    }
  }
}

uint64_t Loader::cacheBytes() const {
  std::lock_guard<std::mutex> L(M);
  return CachedBytes;
}

size_t Loader::cachedPoolCount() const {
  std::lock_guard<std::mutex> L(M);
  return LruCount;
}

LoaderStats Loader::stats() const {
  LoaderStats S;
  S.Acquires = Stats.Acquires.load(Relaxed);
  S.CacheHits = Stats.CacheHits.load(Relaxed);
  S.Expansions = Stats.Expansions.load(Relaxed);
  S.Compactions = Stats.Compactions.load(Relaxed);
  S.Offloads = Stats.Offloads.load(Relaxed);
  S.Fetches = Stats.Fetches.load(Relaxed);
  S.SymtabCompactions = Stats.SymtabCompactions.load(Relaxed);
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

void Loader::setRecoveryHandler(RecoverFn F) {
  std::lock_guard<std::mutex> L(M);
  Recover = std::move(F);
}

bool Loader::degraded() const {
  std::lock_guard<std::mutex> L(M);
  return SpillDisabled;
}

Status Loader::firstError() const {
  std::lock_guard<std::mutex> L(M);
  return FirstErr;
}

std::vector<LoaderEvent> Loader::takeEvents() {
  std::lock_guard<std::mutex> L(M);
  return std::move(Events);
}
