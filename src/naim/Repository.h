//===- naim/Repository.h ----------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The off-line disk repository holding inactive optimizer data (paper
/// Section 4.2). Unlike the Convex Application Compiler's repository — which
/// used a different representation on disk and required costly translation —
/// the SCMO repository stores exactly the compact relocatable form, so
/// loading "requires no rebuilding of the symbol table and IR information"
/// (Section 7): a fetch is a read plus the ordinary uncompaction.
///
/// The repository is a temporary append-only file private to a compilation;
/// it is deleted when the session ends (persistent program state lives only
/// in object files, per Section 6.1).
///
/// The spill path is a first-class failure domain. Every record is framed:
///
///   [magic u32][payload size u32][xxh64(payload, seed = offset) u64]
///   [payload...]
///
/// so a fetch detects truncation, torn writes and bit-rot by construction
/// instead of handing the uncompactor garbage. Seeding the checksum with the
/// frame's own offset also rejects a whole, valid frame that ended up at
/// another record's offset (a misdirected write or a spliced file). Offsets and sizes are
/// validated against the append watermark before any allocation, transient
/// EINTR/EAGAIN failures are retried with bounded backoff, and hard failures
/// (ENOSPC, EIO, corruption) surface as structured Status values the loader
/// turns into graceful degradation — never a process abort.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_NAIM_REPOSITORY_H
#define SCMO_NAIM_REPOSITORY_H

#include "support/FaultInjector.h"
#include "support/Status.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace scmo {

/// Append-only spill file for compacted pools. Appends are serialized by an
/// internal mutex (the append watermark must advance atomically), but
/// fetches only take it briefly to validate bounds and snapshot state: the
/// pread loop itself runs unlocked, so concurrent reads at distinct offsets
/// proceed in parallel. Records are immutable once the watermark covers
/// them, which is what makes the unlocked reads safe.
class Repository {
public:
  /// Bytes of framing prepended to every stored record.
  static constexpr size_t FrameHeaderBytes = 16;

  /// Sanity cap on a single record: a directory entry or frame header
  /// claiming more than this is corrupt, not large. Checked before any
  /// allocation so a bad size can never trigger a multi-GiB resize.
  static constexpr uint64_t MaxRecordBytes = 1ull << 30;

  /// A repository at \p Path; an empty path defers creation until the first
  /// store, then opens an *anonymous* file under /tmp (O_TMPFILE, or
  /// created-then-unlinked where the filesystem lacks it): the backing
  /// storage never has a name a SIGKILLed builder could leak, and path()
  /// stays "". A caller-supplied path that already exists is NOT clobbered:
  /// the first store fails with StatusCode::Exists. \p Faults, when
  /// non-null, is consulted on every store/fetch; \p Shard is the owning
  /// loader shard's index, matched by shard-addressed fault clauses
  /// ('store@2:...').
  explicit Repository(std::string Path = "",
                      std::shared_ptr<FaultInjector> Faults = nullptr,
                      unsigned Shard = 0);

  Repository(const Repository &) = delete;
  Repository &operator=(const Repository &) = delete;

  ~Repository();

  /// Appends \p Bytes as a framed record; returns the record's offset, or a
  /// Status describing the failure (NoSpace / IoError / Exists). On failure
  /// the append watermark does not advance: a partially written frame is
  /// simply overwritten by the next store, so torn frames are never visible.
  Expected<uint64_t> store(const std::vector<uint8_t> &Bytes);

  /// Reads back the \p Size payload bytes of the record at \p Offset into
  /// \p Out. Validates bounds against the append watermark before
  /// allocating, then the frame magic, the stored size, and the payload
  /// checksum. Corruption and I/O failures return a structured Status.
  Status fetch(uint64_t Offset, uint64_t Size, std::vector<uint8_t> &Out);

  /// Replaces the fault injector (tests).
  void setFaultInjector(std::shared_ptr<FaultInjector> FI) {
    std::lock_guard<std::mutex> Lock(M);
    Faults = std::move(FI);
  }

  /// The armed fault injector (spec flag or SCMO_FAULT_INJECT; may be
  /// null). The session's other durable-I/O paths — artifact/summary
  /// caches, object emission, profile writes — share this instance so one
  /// spec's per-site op counters stay globally deterministic.
  std::shared_ptr<FaultInjector> faultInjector() const {
    std::lock_guard<std::mutex> Lock(M);
    return Faults;
  }

  /// Total payload bytes ever appended (framing overhead not counted, so
  /// the NAIM statistics keep their paper meaning).
  uint64_t bytesStored() const {
    std::lock_guard<std::mutex> Lock(M);
    return BytesStored;
  }

  /// Number of store / fetch operations (for the NAIM statistics).
  uint64_t storeCount() const {
    std::lock_guard<std::mutex> Lock(M);
    return Stores;
  }
  uint64_t fetchCount() const { return Fetches.load(std::memory_order_relaxed); }

  /// Transient faults (EINTR/EAGAIN, short transfers) absorbed by retry.
  uint64_t transientRetryCount() const {
    return TransientRetries.load(std::memory_order_relaxed);
  }

  /// Path of the backing file ("" if never created — or anonymous: a
  /// lazily created repository's file is unlinked from birth and has no
  /// path to return).
  const std::string &path() const { return FilePath; }

  /// The owning loader shard's index (0 for an unsharded repository).
  unsigned shard() const { return unsigned(Shard); }

private:
  Status ensureOpenLocked();
  /// pwrite/pread loops with EINTR/EAGAIN retry (bounded, with backoff) and
  /// short-transfer resumption. \p Action carries the injected fault for
  /// this operation, consumed by the first syscall. writeAll runs under M
  /// (appends are serialized); readAll runs unlocked (positional reads of
  /// immutable records).
  Status writeAll(const uint8_t *Data, size_t Size, uint64_t Offset,
                  FaultInjector::Action &Action);
  Status readAll(int File, uint8_t *Data, size_t Size, uint64_t Offset,
                 FaultInjector::Action &Action);

  /// Serializes appends and guards the file/watermark state. Fetches take
  /// it only to validate bounds and snapshot Fd/injector state.
  mutable std::mutex M;
  std::string FilePath;
  std::shared_ptr<FaultInjector> Faults;
  int Shard = 0;
  int Fd = -1;
  /// True when the path came from the caller: such a file must not be
  /// silently truncated if it already exists.
  bool UserPath = false;
  uint64_t AppendOffset = 0;
  uint64_t BytesStored = 0;
  uint64_t Stores = 0;
  /// Bumped from unlocked fetches; relaxed atomics keep them exact.
  std::atomic<uint64_t> Fetches{0};
  std::atomic<uint64_t> TransientRetries{0};
};

} // namespace scmo

#endif // SCMO_NAIM_REPOSITORY_H
