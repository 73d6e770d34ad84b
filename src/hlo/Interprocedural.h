//===- hlo/Interprocedural.h ------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Global variable usage summaries, the analysis in front of the WPA
/// planner's interprocedural constant propagation (hlo/Wpa.h). It
/// illustrates the paper's fine-grained selectivity complication
/// (Section 5): "information about routines not selected for optimization
/// can influence the optimization of selected routines... HLO addresses
/// this by reading in all of the code and data within the set of modules
/// compiled in CMO mode" — the summary scan reads every body in the set
/// (then lets the loader unload it), even bodies that will never be
/// individually optimized.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_HLO_INTERPROCEDURAL_H
#define SCMO_HLO_INTERPROCEDURAL_H

#include "hlo/HloContext.h"

#include <vector>

namespace scmo {

/// Scans every body in \p Set and records, per global variable, whether any
/// instruction stores to it. Marks summaries valid according to scope:
/// a static global's summary is valid when its owning module is fully inside
/// the scanned set; an extern global's only when \p WholeProgram (the set
/// covers every defined routine).
void computeGlobalSummaries(HloContext &Ctx, const std::vector<RoutineId> &Set,
                            bool WholeProgram);

} // namespace scmo

#endif // SCMO_HLO_INTERPROCEDURAL_H
