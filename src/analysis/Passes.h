//===- analysis/Passes.h ----------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The local (intraprocedural) half of the analysis pass roster, plus the
/// per-routine facts the interprocedural half aggregates. Each worker holds
/// exactly one routine body at a time and produces a RoutineFacts whose size
/// is proportional to that routine's *findings*, not to the program — this
/// is what keeps the analysis engine's memory sub-linear under NAIM (the
/// same argument the paper makes for summary scans in Section 5).
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_ANALYSIS_PASSES_H
#define SCMO_ANALYSIS_PASSES_H

#include "analysis/Diagnostic.h"
#include "analysis/Summary.h"
#include "ir/Program.h"

#include <cstdint>
#include <vector>

namespace scmo {

/// Everything the local scan learns about one routine: its findings and
/// its summary. Sized by the routine's findings and call/global sites, not
/// by the program.
struct RoutineFacts {
  std::vector<Diagnostic> Diags;
  /// The routine's interprocedural summary, extracted in the same pinned
  /// pass as the local checks (the dead-store liveness walk doubles as the
  /// per-site result-used oracle).
  AnalysisSummary Summary;
  /// Peak bytes of dataflow bit-vector scratch this routine needed (charged
  /// to MemCategory::HloDerived around the scan by the caller).
  uint64_t ScratchBytes = 0;
};

/// Runs the intraprocedural checks on \p Body — def-before-use,
/// unreachable-block, dead-store, constant-trap — and records the
/// AnalysisSummary the interprocedural phase needs. The body must already
/// have passed the verifier: the checks assume every block is terminated
/// and every register id is in range.
void runLocalChecks(RoutineId R, const RoutineBody &Body, RoutineFacts &Facts);

/// Conservative summary for a routine that failed verification: records the
/// call and global sites (bounds-checked — the verifier may have rejected
/// exactly those ids) with assume-anything dataflow facts, so the routine
/// neither crashes the interprocedural phase nor triggers findings.
void extractMinimalSummary(const Program &P, const RoutineBody &Body,
                           AnalysisSummary &Out);

} // namespace scmo

#endif // SCMO_ANALYSIS_PASSES_H
