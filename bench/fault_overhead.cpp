//===- bench/fault_overhead.cpp -------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What does spill-path integrity cost? Every repository record is framed
/// with an xxh64 checksum that is computed on store and verified on fetch.
/// This bench measures (1) raw hash throughput, (2) framed store+fetch
/// round-trip throughput at typical compact-pool sizes, and (3) the
/// estimated share of an offload-heavy end-to-end build spent checksumming —
/// the number EXPERIMENTS.md quotes (expected: well under 5%). A second
/// end-to-end build under a transient-fault storm (EINTR/short writes)
/// shows the retry machinery is also effectively free.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "cache/CacheDir.h"
#include "naim/Repository.h"
#include "support/Hash.h"
#include "support/Timer.h"

#include <cinttypes>
#include <string>
#include <vector>

#include <unistd.h>

using namespace scmo;
using namespace scmo::bench;

namespace {

double hashThroughputBps() {
  std::vector<uint8_t> Buf(1u << 20, 0xa7);
  // Warm up, then time enough rounds to dwarf timer noise.
  uint64_t Sink = hashBytes(Buf.data(), Buf.size());
  Timer T;
  constexpr int Rounds = 256;
  for (int I = 0; I != Rounds; ++I)
    Sink ^= hashBytes(Buf.data(), Buf.size(), Sink);
  double Secs = T.seconds();
  if (Sink == 0x2a) // Defeat over-eager optimizers; never true in practice.
    std::printf("#\n");
  return double(Buf.size()) * Rounds / (Secs > 0 ? Secs : 1e-9);
}

void roundTripRow(size_t PayloadBytes) {
  Repository Repo;
  std::vector<uint8_t> Payload(PayloadBytes, 0x5a);
  std::vector<uint8_t> Out;
  constexpr int Rounds = 200;
  Timer T;
  for (int I = 0; I != Rounds; ++I) {
    uint64_t Off = *Repo.store(Payload);
    Repo.fetch(Off, Payload.size(), Out);
  }
  double Secs = T.seconds();
  double MiBps = double(PayloadBytes) * Rounds * 2 / (1u << 20) /
                 (Secs > 0 ? Secs : 1e-9);
  std::printf("  %8zu B payload   %8.0f MiB/s framed store+fetch\n",
              PayloadBytes, MiBps);
}

} // namespace

int main() {
  double Scale = scaleFactor();
  std::printf("== Spill-path integrity overhead ==\n\n");

  double HashBps = hashThroughputBps();
  std::printf("xxh64 hash throughput: %.1f GiB/s\n\n",
              HashBps / (1024.0 * 1024.0 * 1024.0));

  std::printf("Repository round-trip (checksummed frames):\n");
  for (size_t Size : {size_t(4) << 10, size_t(32) << 10, size_t(256) << 10})
    roundTripRow(Size);

  // Offload-heavy end-to-end build: every pool spills on release.
  WorkloadParams Params;
  Params.Seed = 5;
  Params.NumModules = uint64_t(96 * Scale);
  Params.ColdRoutinesPerModule = 8;
  Params.HotRoutines = 8;
  Params.OuterIterations = 200;
  GeneratedProgram GP = generateProgram(Params);

  CompileOptions Opts;
  Opts.Level = OptLevel::O2;
  Opts.Naim.Mode = NaimMode::Offload;
  Opts.Naim.ExpandedCacheBytes = 0;
  Opts.Naim.CompactResidentBytes = 0;
  CompilerSession Session(Opts);
  if (!Session.addGenerated(GP)) {
    std::printf("frontend failed: %s\n", Session.firstError().c_str());
    return 1;
  }
  BuildResult Build = Session.build();
  if (!Build.Ok) {
    std::printf("build failed: %s\n", Build.Error.c_str());
    return 1;
  }
  const LoaderStats &L = Build.Loader;
  Repository &Repo = Session.loader().repository();
  uint64_t StoredBytes = Repo.bytesStored();
  uint64_t StoreOps = Repo.storeCount();
  uint64_t FetchOps = Repo.fetchCount();
  // Bytes hashed = every payload checksummed on store plus every payload
  // verified on fetch; stores and fetches move the same pools, so scale the
  // per-store average by total operations.
  double PerOp = StoreOps ? double(StoredBytes) / StoreOps : 0;
  double ChecksumSecs = PerOp * double(StoreOps + FetchOps) / HashBps;

  std::printf("\nOffload-heavy build (%" PRIu64 " lines):\n",
              Build.SourceLines);
  std::printf("  offloads %" PRIu64 ", fetches %" PRIu64
              ", %.1f MiB spilled\n",
              L.Offloads, L.Fetches, double(StoredBytes) / (1u << 20));
  std::printf("  build time            %8.3f s\n", Build.TotalSeconds);
  std::printf("  est. checksum time    %8.4f s  (%.2f%% of build)\n",
              ChecksumSecs,
              Build.TotalSeconds > 0 ? 100.0 * ChecksumSecs / Build.TotalSeconds
                                     : 0);

  // The same build in a transient-fault storm: every retry is absorbed
  // inside the repository and the executable is untouched.
  Opts.FaultInject = "seed=9,store:eintr-rate=0.05,store:short-rate=0.05,"
                     "read:eintr-rate=0.05";
  Measured Stormy = measure(GP, Opts, nullptr, /*RunIt=*/false);
  if (!Stormy.Ok) {
    std::printf("fault-storm build failed: %s\n", Stormy.Error.c_str());
    return 1;
  }
  std::printf("  under transient storm %8.3f s  (%+.1f%%)\n",
              Stormy.CompileSeconds,
              Build.TotalSeconds > 0 ? 100.0 * (Stormy.CompileSeconds -
                                                Build.TotalSeconds) /
                                           Build.TotalSeconds
                                     : 0);

  // Cache lock tax: what does the per-entry advisory flock (the
  // multi-process store discipline in cache/CacheDir.h) cost on top of the
  // plain tmp+fsync+rename write? Every production store locks, so only
  // the per-store microbench can take the lock away.
  std::printf("\n== Cache lock tax ==\n\n");

  char CacheTmpl[] = "/tmp/scmo-locktax-XXXXXX";
  if (!mkdtemp(CacheTmpl)) {
    std::printf("mkdtemp failed\n");
    return 1;
  }
  std::string LockDir = CacheTmpl;
  {
    std::vector<uint8_t> Art(32u << 10, 0x6b);
    constexpr int Rounds = 200;
    std::string Path = LockDir + "/micro.art";
    Timer TL;
    for (int I = 0; I != Rounds; ++I)
      cachedir::storeEntry(Path, Art, nullptr, 0, 2000, /*Overwrite=*/true);
    double Locked = TL.seconds();
    Timer TU;
    for (int I = 0; I != Rounds; ++I)
      writeFileWithFaults(Path, Art, nullptr,
                          FaultInjector::Site::CacheStore);
    double Unlocked = TU.seconds();
    std::printf("  32 KiB store          %8.1f us locked  %8.1f us plain "
                " (%+.1f us/store)\n",
                Locked * 1e6 / Rounds, Unlocked * 1e6 / Rounds,
                (Locked - Unlocked) * 1e6 / Rounds);
  }

  ::unlink((LockDir + "/micro.art").c_str());
  ::rmdir(LockDir.c_str());
  return 0;
}
