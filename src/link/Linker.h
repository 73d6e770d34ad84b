//===- link/Linker.h --------------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The linker: resolves symbols, lays out global data, and builds the final
/// code image. With profile data it "uses profile data to cluster
/// frequently-used routines together in the final program image" (paper
/// Section 2, citing Pettis-Hansen code positioning) — implemented here as
/// greedy call-edge chain merging, which directly reduces conflict misses in
/// the VM's direct-mapped instruction cache.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_LINK_LINKER_H
#define SCMO_LINK_LINKER_H

#include "ir/Program.h"
#include "llo/MachineCode.h"

#include <string>
#include <vector>

namespace scmo {

/// One routine's placement in the final image.
struct ExeRoutine {
  RoutineId Routine = InvalidId;
  std::string Name;
  uint32_t CodeStart = 0;
  uint32_t CodeLen = 0;
  uint32_t SpillSlots = 0;
};

/// The linked program image the VM executes. After linking: branch targets
/// are absolute code addresses; Call Sym fields are ExeRoutine indices;
/// LoadG/StoreG/LoadIdx/StoreIdx Sym fields are data offsets (indexed ops
/// carry their array size in Slot for the VM's defined index wrapping).
struct Executable {
  std::vector<MInstr> Code;
  std::vector<ExeRoutine> Routines;
  std::vector<int64_t> Data;
  std::vector<uint32_t> GlobalOffset; ///< Per GlobalId.
  uint32_t Entry = InvalidId;         ///< Routine index of main().
  uint32_t NumProbes = 0;             ///< Size of the probe counter array.
};

/// Weighted caller->callee edge used for clustering (derived from the call
/// graph's profiled site counts).
struct CallEdgeWeight {
  RoutineId From = InvalidId;
  RoutineId To = InvalidId;
  uint64_t Weight = 0;
};

/// Linker configuration.
struct LinkOptions {
  /// Profile-guided routine clustering (needs EdgeWeights / entry counts).
  bool ClusterByProfile = false;
  /// Call edges with dynamic counts, for chain merging.
  std::vector<CallEdgeWeight> EdgeWeights;
  /// Probe counter array size (instrumented builds).
  uint32_t NumProbes = 0;
};

/// Links \p Machines into an executable. Routines with Refs (cached code)
/// have their Sym fields resolved through that table first. Reports
/// unresolved references (calls to routines with no definition, an index
/// past a routine's Refs) and a missing main() through \p Error; returns an
/// empty image in that case.
Executable linkProgram(const Program &P, std::vector<MachineRoutine> Machines,
                       const LinkOptions &Opts, std::string &Error);

/// Content hash (XXH64) over every byte-identity-relevant field of \p Exe:
/// the code stream, routine placement, data image, entry point and probe
/// count. Two executables compare equal under this iff a byte-level
/// comparison of those fields would. Printed by scmoc --stats so CI can
/// assert that a warm incremental rebuild linked the same binary as cold.
uint64_t hashExecutable(const Executable &Exe);

} // namespace scmo

#endif // SCMO_LINK_LINKER_H
