//===- bytecode/Compact.h ---------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compaction and uncompaction drivers (paper Section 4.2): conversion of a
/// routine body between its expanded pointer-linked form and the compact
/// relocatable byte form.
///
/// The compact form realizes the paper's techniques directly:
///  - *stack layout*: a block is immediately followed by its encoded
///    instructions, each instruction by its operands, so intra-pool pointers
///    (Instr*, the Args arrays) need no representation at all;
///  - *PID references*: symbols are stored as persistent ids, optionally
///    remapped through a SymRemap (identity for the in-session NAIM form,
///    object-local ids for object files); uncompaction eagerly swizzles them
///    back to program ids in one pass;
///  - *derived-data dropping*: nothing recomputable is encoded — expanded
///    instructions are 56 bytes, encoded ones typically 4-8.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_BYTECODE_COMPACT_H
#define SCMO_BYTECODE_COMPACT_H

#include "ir/Routine.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace scmo {

class MemoryTracker;

/// Maps symbol ids while encoding/decoding. Defaults to identity.
struct SymRemap {
  std::function<uint32_t(GlobalId)> Global;
  std::function<uint32_t(RoutineId)> Routine;

  uint32_t mapGlobal(GlobalId G) const { return Global ? Global(G) : G; }
  uint32_t mapRoutine(RoutineId R) const { return Routine ? Routine(R) : R; }
};

/// Encodes \p Body into the compact relocatable form.
std::vector<uint8_t> compactRoutine(const RoutineBody &Body,
                                    const SymRemap &Remap = {});

/// Decodes a compact form back into a fresh expanded body whose arena charges
/// \p Tracker. Returns null on malformed input.
std::unique_ptr<RoutineBody> expandRoutine(const std::vector<uint8_t> &Bytes,
                                           MemoryTracker *Tracker,
                                           const SymRemap &Remap = {});

/// Decodes from a raw byte range (repository reads).
std::unique_ptr<RoutineBody> expandRoutine(const uint8_t *Data, size_t Size,
                                           MemoryTracker *Tracker,
                                           const SymRemap &Remap = {});

} // namespace scmo

#endif // SCMO_BYTECODE_COMPACT_H
