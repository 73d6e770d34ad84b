//===- ir/Verifier.h --------------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// IL well-formedness checking. Run after the frontend and (in checked
/// builds / tests) after every HLO phase — the paper's debugging methodology
/// (Section 6.3) depends on being able to localize which transformation
/// broke a program, and the verifier is the first line of that defense.
///
/// Violations are reported as structured Diagnostics (check code
/// scmo-verify, severity error), so a failed build and `--analyze` render
/// the same line and the analysis engine merges them with lint findings.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_IR_VERIFIER_H
#define SCMO_IR_VERIFIER_H

#include "analysis/Diagnostic.h"
#include "ir/Program.h"

namespace scmo {

/// Checks structural invariants of \p Body against \p P:
///  - every block is non-empty and ends in exactly one terminator,
///  - terminators appear only at block ends,
///  - register, block, global and routine references are in range,
///  - calls pass the declared number of arguments,
///  - operand kinds match each opcode's signature,
///  - probe counter ids are in range when the table size is known
///    (\p NumProbes == InvalidId means "unknown, skip the range check"),
///  - Nop carries no operands (transforms degrade instructions to Nop and
///    must clear the value fields; a dangling ProbeId is permitted because
///    the inliner deliberately keeps it when retiring a Probe).
///
/// Records the first violation into \p Diags as an error-severity
/// scmo-verify diagnostic. \returns true when the routine is well formed.
bool verifyRoutine(const Program &P, RoutineId R, const RoutineBody &Body,
                   DiagnosticEngine &Diags, uint32_t NumProbes = InvalidId);

} // namespace scmo

#endif // SCMO_IR_VERIFIER_H
