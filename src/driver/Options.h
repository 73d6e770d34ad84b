//===- driver/Options.h -----------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiler option surface, mirroring the paper's HP-UX levels:
///
///   paper          here
///   ------         -------------------------------
///   +O1            OptLevel::O1 (basic-block-local codegen only)
///   +O2 (default)  OptLevel::O2 (full intraprocedural: cleanup passes,
///                  register allocation, scheduling)
///   +O4            OptLevel::O4 (CMO: linker routes IL through HLO)
///   +P             Pbo = true (use a correlated profile database)
///   +I             Instrument = true (insert counting probes)
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_DRIVER_OPTIONS_H
#define SCMO_DRIVER_OPTIONS_H

#include "hlo/Cloner.h"
#include "hlo/Inliner.h"
#include "naim/Loader.h"

#include <cstdint>
#include <string>

namespace scmo {

/// Optimization level.
enum class OptLevel : uint8_t { O1, O2, O4 };

/// Everything a compilation session can be told.
struct CompileOptions {
  OptLevel Level = OptLevel::O2;
  bool Pbo = false;        ///< +P: use the attached profile database.
  bool Instrument = false; ///< +I: insert probes (implies no IL transforms).

  /// Coarse-grained selectivity: percentage of hottest call sites whose
  /// modules join the CMO set (paper Section 5). 100 selects everything.
  /// Only meaningful at O4 with PBO.
  double SelectivityPercent = 100.0;

  /// Fine-grained selectivity: blocks at least this hot keep their routine
  /// selected even when it touches no retained site.
  uint64_t FineHotThreshold = 1;

  /// Multi-layered selectivity (paper Section 8, future work): grade cold
  /// code into "basic cleanup" and "no optimization at all" tiers instead of
  /// the binary split, trading cold-code quality for compile time.
  bool MultiLayered = false;

  /// Parallel backend width (the scmoc --jobs=N knob). The per-routine
  /// backend phases — IL verification, checksum computation, LTRANS (plan
  /// application, default-set cleanup, post-HLO verify) and LLO lowering —
  /// fan out over this many threads; work is written into slots indexed by
  /// routine so the linked executable is bit-identical at any thread count.
  /// 0 = hardware concurrency; 1 = fully serial, the exact pre-parallel
  /// behavior. Only the WPA planning phase stays serial: it is the
  /// interprocedural sequential section, as in GCC's WHOPR.
  unsigned Jobs = 0;

  /// NAIM configuration (memory management). Everything in it is
  /// resource-only and fingerprint-excluded: the executable is
  /// byte-identical at every NAIM budget and jobs count.
  NaimConfig Naim;

  /// Deterministic fault-injection spec for the NAIM spill path (the scmoc
  /// --fault-inject=<spec> knob; see support/FaultInjector.h for the
  /// grammar). Parsed at session construction into Naim.Injector; a
  /// malformed spec fails the build with a structured error. Empty = no
  /// injection (SCMO_FAULT_INJECT in the environment still applies).
  std::string FaultInject;

  /// Simulated hard heap cap in bytes (0 = unlimited). Models the HP-UX
  /// ~1GB virtual heap limit: compilations whose live optimizer data
  /// exceed it fail, as pure-CMO Mcad1 compiles did (paper Section 5).
  uint64_t HeapCapBytes = 0;

  /// Round-trip all IL through object files on disk before linking, the way
  /// the production flow does (frontend dumps IL objects; the linker routes
  /// them to HLO). Slower; exercised by tests and the persistence bench.
  bool WriteObjects = false;
  std::string ObjectDir = "/tmp";

  /// Run the IL verifier after the frontend and after HLO.
  bool VerifyIl = true;

  /// HLO transformation budget (Section 6.3 bisection support).
  uint64_t HloOpLimit = UINT64_MAX;

  /// PBO ablation knobs (which profile consumers are active under +P).
  bool PboLayout = true;      ///< Profile-guided block layout in LLO.
  bool PboClustering = true;  ///< Profile-guided routine clustering at link.
  bool PboInlining = true;    ///< Profile-guided inline heuristics in HLO.

  /// Heuristic knobs.
  InlineParams Inline;
  CloneParams Clone;
  bool EnableIpcp = true;
  bool EnableCloning = true;

  /// Incremental rebuilds (the scmoc --incremental / --cache-dir knobs):
  /// persist post-HLO machine code per cache unit in CacheDir, keyed by
  /// structural IL checksums + option fingerprint + profile epoch, and skip
  /// HLO/LLO for units whose key is unchanged. Off by default; requires a
  /// cache directory.
  bool Incremental = false;
  std::string CacheDir;

  /// Hash of every option that can change generated machine code. Two
  /// sessions with equal fingerprints and equal IL produce byte-identical
  /// executables, so the fingerprint is cache-key material. Deliberately
  /// excludes knobs that only affect resource usage or diagnostics (Jobs,
  /// Naim, FaultInject, HeapCapBytes, VerifyIl, ObjectDir/WriteObjects,
  /// Incremental/CacheDir themselves).
  uint64_t fingerprint() const;
};

} // namespace scmo

#endif // SCMO_DRIVER_OPTIONS_H
