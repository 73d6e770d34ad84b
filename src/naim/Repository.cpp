//===- naim/Repository.cpp ------------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "naim/Repository.h"

#include "support/Hash.h"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

using namespace scmo;

// The repository alternates appends (offloads) and random reads (reloads);
// positional I/O through a raw descriptor avoids the buffer flushing that
// seek-based stdio would pay on every direction change.

namespace {

constexpr uint32_t FrameMagic = 0x53504631; // "SPF1"

/// Bounded retry for EINTR/EAGAIN. Eight attempts with a short growing
/// sleep: a genuinely wedged descriptor fails fast, a signal-interrupted or
/// momentarily backpressured one recovers invisibly.
constexpr int MaxTransientRetries = 8;

void encodeHeader(uint8_t *H, uint32_t Size, uint64_t Checksum) {
  std::memcpy(H, &FrameMagic, 4);
  std::memcpy(H + 4, &Size, 4);
  std::memcpy(H + 8, &Checksum, 8);
}

} // namespace

Repository::Repository(std::string Path, std::shared_ptr<FaultInjector> FI,
                       unsigned Shard)
    : FilePath(std::move(Path)), Faults(std::move(FI)), Shard(int(Shard)),
      UserPath(!FilePath.empty()) {}

Repository::~Repository() {
  if (Fd >= 0) {
    ::close(Fd);
    // Anonymous repositories have no name on disk (FilePath stayed "");
    // only a user-pathed file needs explicit removal.
    if (!FilePath.empty())
      std::remove(FilePath.c_str());
  }
}

Status Repository::ensureOpenLocked() {
  if (Fd >= 0)
    return Status();
  if (FilePath.empty()) {
    // Anonymous scratch: the backing file never gets a name, so a builder
    // SIGKILLed mid-build (the torture harness, a forked worker, a CI
    // timeout) cannot leave shard files littering /tmp.
#ifdef O_TMPFILE
    Fd = ::open("/tmp", O_TMPFILE | O_RDWR, 0600);
    if (Fd >= 0)
      return Status();
#endif
    // Filesystem without O_TMPFILE support: pid-unique name, unlinked the
    // instant the descriptor exists — the leak window is two syscalls
    // instead of the whole compilation. FilePath stays "": the storage is
    // still anonymous as far as any observer is concerned.
    static std::atomic<unsigned> Counter{0};
    std::string Tmp = "/tmp/scmo-repo-" + std::to_string(::getpid()) + "-" +
                      std::to_string(Counter.fetch_add(1)) + ".bin";
    Fd = ::open(Tmp.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
    if (Fd < 0) {
      int E = errno;
      return Status::error(E == ENOSPC ? StatusCode::NoSpace
                                       : StatusCode::IoError,
                           "cannot create repository file '" + Tmp +
                               "': " + std::strerror(E));
    }
    ::unlink(Tmp.c_str());
    return Status();
  }
  // O_EXCL: the repository is private scratch state, so the file must be
  // ours alone. A user-supplied path pointing at an existing file is an
  // error, not an invitation to truncate it.
  Fd = ::open(FilePath.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
  if (Fd < 0) {
    int E = errno;
    if (E == EEXIST && UserPath)
      return Status::error(StatusCode::Exists,
                           "repository path '" + FilePath +
                               "' already exists; refusing to overwrite it");
    return Status::error(E == ENOSPC ? StatusCode::NoSpace
                                     : StatusCode::IoError,
                         "cannot create repository file '" + FilePath +
                             "': " + std::strerror(E));
  }
  return Status();
}

Status Repository::writeAll(const uint8_t *Data, size_t Size,
                            uint64_t Offset,
                            FaultInjector::Action &Action) {
  size_t Done = 0;
  int Transient = 0;
  while (Done < Size) {
    size_t Want = Size - Done;
    // Injected faults are consumed by the first syscall of the operation.
    if (Action == FaultInjector::Action::FailIo) {
      Action = FaultInjector::Action::None;
      errno = EIO;
      return Status::error(StatusCode::IoError,
                           "repository write failed: injected EIO");
    }
    if (Action == FaultInjector::Action::FailNoSpace) {
      Action = FaultInjector::Action::None;
      errno = ENOSPC;
      return Status::error(StatusCode::NoSpace,
                           "repository write failed: injected ENOSPC");
    }
    if (Action == FaultInjector::Action::Crash) {
      // Torture point: leave a torn half-frame behind, make sure it is
      // really on disk, then die the way a SIGKILLed builder does — no
      // destructors, no cleanup. With anonymous backing storage the kernel
      // reclaims the file the instant the process dies, which is exactly
      // the litter guarantee the torture suite pins down.
      ::pwrite(Fd, Data, Size > 1 ? Size / 2 : Size,
               static_cast<off_t>(Offset));
      ::fsync(Fd);
      ::kill(::getpid(), SIGKILL);
      std::abort(); // not reached
    }
    ssize_t N;
    if (Action == FaultInjector::Action::Eintr) {
      Action = FaultInjector::Action::None;
      errno = EINTR;
      N = -1;
    } else if (Action == FaultInjector::Action::ShortWrite) {
      Action = FaultInjector::Action::None;
      N = ::pwrite(Fd, Data + Done, Want > 1 ? Want / 2 : Want,
                   static_cast<off_t>(Offset + Done));
      if (N > 0)
        ++TransientRetries; // The resume loop absorbs the short transfer.
    } else {
      N = ::pwrite(Fd, Data + Done, Want, static_cast<off_t>(Offset + Done));
    }
    if (N < 0) {
      int E = errno;
      if ((E == EINTR || E == EAGAIN) && Transient < MaxTransientRetries) {
        ++Transient;
        ++TransientRetries;
        if (E == EAGAIN)
          ::usleep(1000u << Transient);
        continue;
      }
      return Status::error(E == ENOSPC ? StatusCode::NoSpace
                                       : StatusCode::IoError,
                           std::string("repository write failed: ") +
                               std::strerror(E));
    }
    if (N == 0)
      return Status::error(StatusCode::IoError,
                           "repository write made no progress");
    Done += static_cast<size_t>(N);
  }
  return Status();
}

Status Repository::readAll(int File, uint8_t *Data, size_t Size,
                           uint64_t Offset, FaultInjector::Action &Action) {
  size_t Done = 0;
  int Transient = 0;
  while (Done < Size) {
    if (Action == FaultInjector::Action::FailIo) {
      Action = FaultInjector::Action::None;
      errno = EIO;
      return Status::error(StatusCode::IoError,
                           "repository read failed: injected EIO");
    }
    ssize_t N;
    if (Action == FaultInjector::Action::Eintr) {
      Action = FaultInjector::Action::None;
      errno = EINTR;
      N = -1;
    } else {
      N = ::pread(File, Data + Done, Size - Done,
                  static_cast<off_t>(Offset + Done));
    }
    if (N < 0) {
      int E = errno;
      if ((E == EINTR || E == EAGAIN) && Transient < MaxTransientRetries) {
        ++Transient;
        ++TransientRetries;
        if (E == EAGAIN)
          ::usleep(1000u << Transient);
        continue;
      }
      return Status::error(StatusCode::IoError,
                           std::string("repository read failed: ") +
                               std::strerror(E));
    }
    if (N == 0)
      return Status::error(StatusCode::Corruption,
                           "repository read hit end of file (truncated "
                           "record at offset " +
                               std::to_string(Offset) + ")");
    Done += static_cast<size_t>(N);
  }
  return Status();
}

Expected<uint64_t> Repository::store(const std::vector<uint8_t> &Bytes) {
  std::lock_guard<std::mutex> Lock(M);
  if (Bytes.size() > MaxRecordBytes)
    return Status::error(StatusCode::IoError,
                         "record of " + std::to_string(Bytes.size()) +
                             " bytes exceeds the repository record cap");
  Status S = ensureOpenLocked();
  if (!S.ok())
    return S;

  FaultInjector::Action Action = FaultInjector::Action::None;
  if (Faults)
    Action = Faults->next(FaultInjector::Site::Store, Shard);

  // The checksum always covers the payload the caller handed us; a
  // store-side injected corruption therefore lands on disk checksummed
  // "wrong", exactly like real bit-rot under the write path.
  uint64_t Offset = AppendOffset;
  uint64_t Checksum = hashBytes(Bytes.data(), Bytes.size(), Offset);
  const std::vector<uint8_t> *Payload = &Bytes;
  std::vector<uint8_t> Corrupted;
  if (Action == FaultInjector::Action::Corrupt) {
    Corrupted = Bytes;
    Faults->corruptBytes(Corrupted.data(), Corrupted.size());
    Payload = &Corrupted;
    Action = FaultInjector::Action::None;
  }

  uint8_t Header[FrameHeaderBytes];
  encodeHeader(Header, static_cast<uint32_t>(Bytes.size()), Checksum);

  S = writeAll(Header, FrameHeaderBytes, Offset, Action);
  if (S.ok())
    S = writeAll(Payload->data(), Payload->size(), Offset + FrameHeaderBytes,
                 Action);
  if (!S.ok())
    return S; // Watermark unchanged: the torn frame is dead space that the
              // next store overwrites.

  AppendOffset += FrameHeaderBytes + Bytes.size();
  BytesStored += Bytes.size();
  ++Stores;
  return Offset;
}

Status Repository::fetch(uint64_t Offset, uint64_t Size,
                         std::vector<uint8_t> &Out) {
  // Validate and snapshot under the lock, then read unlocked: records below
  // the watermark are immutable, pread is positional, and the counters are
  // atomic, so concurrent fetches at distinct offsets need not serialize on
  // each other or on appends.
  int File = -1;
  std::shared_ptr<FaultInjector> FI;
  {
    std::lock_guard<std::mutex> Lock(M);
    if (Fd < 0)
      return Status::error(StatusCode::Unavailable,
                           "repository has no backing file");

    // Bounds first, before any allocation: a corrupt directory entry must
    // not be able to trigger a multi-GiB resize or a read past the
    // watermark.
    if (Size > MaxRecordBytes)
      return Status::error(StatusCode::Corruption,
                           "fetch size " + std::to_string(Size) +
                               " exceeds the repository record cap");
    if (Offset > AppendOffset || FrameHeaderBytes + Size > AppendOffset ||
        Offset + FrameHeaderBytes + Size > AppendOffset)
      return Status::error(StatusCode::Corruption,
                           "fetch of " + std::to_string(Size) + " bytes at " +
                               std::to_string(Offset) +
                               " is outside the append watermark " +
                               std::to_string(AppendOffset));
    File = Fd;
    FI = Faults;
  }

  FaultInjector::Action Action = FaultInjector::Action::None;
  if (FI)
    Action = FI->next(FaultInjector::Site::Read, Shard);

  uint8_t Header[FrameHeaderBytes];
  Status S = readAll(File, Header, FrameHeaderBytes, Offset, Action);
  if (!S.ok())
    return S;
  uint32_t Magic, StoredSize;
  uint64_t Checksum;
  std::memcpy(&Magic, Header, 4);
  std::memcpy(&StoredSize, Header + 4, 4);
  std::memcpy(&Checksum, Header + 8, 8);
  if (Magic != FrameMagic)
    return Status::error(StatusCode::Corruption,
                         "bad frame magic at offset " +
                             std::to_string(Offset));
  if (StoredSize != Size)
    return Status::error(StatusCode::Corruption,
                         "frame at offset " + std::to_string(Offset) +
                             " holds " + std::to_string(StoredSize) +
                             " bytes, directory expects " +
                             std::to_string(Size));

  Out.resize(Size);
  S = readAll(File, Out.data(), Size, Offset + FrameHeaderBytes, Action);
  if (!S.ok())
    return S;
  if (Action == FaultInjector::Action::Corrupt && FI)
    FI->corruptBytes(Out.data(), Out.size());
  if (hashBytes(Out.data(), Out.size(), Offset) != Checksum)
    return Status::error(StatusCode::Corruption,
                         "frame checksum mismatch at offset " +
                             std::to_string(Offset) +
                             " (torn write or bit-rot)");
  ++Fetches;
  return Status();
}
