//===- hlo/RoutinePasses.h --------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// HLO's per-routine transformation phases (paper Section 3 lists dead code
/// elimination, constant propagation, and redundant branch elimination among
/// HLO's transformations). Each phase recomputes whatever derived data it
/// needs from scratch and frees it afterwards — the paper's discipline that
/// makes all derived structures discardable (Section 4.1).
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_HLO_ROUTINEPASSES_H
#define SCMO_HLO_ROUTINEPASSES_H

#include "ir/Program.h"
#include "support/Statistics.h"

namespace scmo {

/// Constant propagation and folding within each block, including folding
/// loads of globals whose whole-program summary proves them never stored
/// (the summary side of "information about global or module private
/// variable usage", Section 5). Returns true if anything changed.
bool runConstProp(Program &P, RoutineBody &Body, Statistics &Stats);

/// Redundant branch elimination and CFG cleanup: folds constant branches,
/// threads trivial jump chains, merges single-predecessor blocks, removes
/// unreachable blocks. Returns true if anything changed.
bool runSimplifyCfg(Program &P, RoutineBody &Body, Statistics &Stats);

/// Liveness-based dead code elimination; also drops unused call results.
/// Returns true if anything changed.
bool runDce(Program &P, RoutineBody &Body, Statistics &Stats);

/// The standard cleanup pipeline run on every optimized routine:
/// constprop -> simplify -> dce, repeated until a round changes nothing, at
/// most four rounds. Invalidates the shared call graph when anything
/// changed.
void runCleanupPipeline(Program &P, RoutineBody &Body, Statistics &Stats);

/// One light round (constprop + dce, no CFG rewriting) for routines in the
/// Basic tier of multi-layered selectivity; invalidates the shared call
/// graph when anything changed.
void runBasicCleanup(Program &P, RoutineBody &Body, Statistics &Stats);

} // namespace scmo

#endif // SCMO_HLO_ROUTINEPASSES_H
