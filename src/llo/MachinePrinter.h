//===- llo/MachinePrinter.h -------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Disassembly of machine routines and linked executables — part of the
/// compiler-diagnostics surface the paper calls essential (Section 6.2/6.3):
/// when the bisector has named the guilty transformation, this is what you
/// read next.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_LLO_MACHINEPRINTER_H
#define SCMO_LLO_MACHINEPRINTER_H

#include "link/Linker.h"
#include "llo/MachineCode.h"

#include <string>

namespace scmo {

/// Renders one machine instruction (no newline). Pre-link targets print as
/// local indices, post-link as absolute addresses — pass \p Base to render
/// link-resolved code with routine-relative labels.
std::string printMInstr(const MInstr &I, uint32_t Base = 0);

/// Disassembles a (pre-link) machine routine. Symbols print as program
/// ids, resolved through the routine's Refs when it has them.
std::string printMachineRoutine(const MachineRoutine &MR);

/// Disassembles one routine of a linked executable by name; empty string if
/// absent.
std::string printExeRoutine(const Executable &Exe, const std::string &Name);

} // namespace scmo

#endif // SCMO_LLO_MACHINEPRINTER_H
