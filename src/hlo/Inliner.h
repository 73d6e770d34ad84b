//===- hlo/Inliner.h --------------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-module inlining — per the paper (Section 7) the framework's "main
/// benefit is in enabling profile-based cross-module inlining". Heuristics
/// follow Section 2 and the companion "Aggressive Inlining" paper [1]:
///
///  - with profile data (CMO+PBO), call sites are ranked by dynamic count
///    and the optimizer "will attempt to aggressively inline at hot call
///    sites": hot sites accept much larger callees;
///  - without profile data (pure CMO), static heuristics inline every small
///    callee and every called-once static, "thoroughly optimizing all
///    routines" — which is what makes pure CMO compiles of huge applications
///    blow up in time and memory (Section 5);
///  - inline operations are scheduled so that "cross-module inlines from the
///    same pair of modules are processed one after another" (Section 4.3),
///    maximizing the NAIM loader's cache hit rate;
///  - every inline consumes one operation from the HloContext budget,
///    supporting the Section 6.3 bisection methodology.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_HLO_INLINER_H
#define SCMO_HLO_INLINER_H

#include "hlo/HloContext.h"
#include "ir/CallGraph.h"

#include <vector>

namespace scmo {

/// Inlining heuristics knobs.
struct InlineParams {
  /// Max callee size (IL instructions) for profile-independent inlining.
  uint32_t MaxCalleeInstrs = 40;
  /// Max callee size at hot sites (PBO only).
  uint32_t MaxCalleeInstrsHot = 300;
  /// A site is hot when its count * HotSiteDivisor >= total dynamic calls.
  uint64_t HotSiteDivisor = 2000;
  /// Callers stop growing past this many IL instructions.
  uint32_t MaxCallerInstrs = 800;
  /// Total program growth budget, in IL instructions.
  uint64_t MaxProgramGrowth = 2u << 20;
  /// Rounds of inlining (inlined bodies expose new call sites to later
  /// rounds; within a round the virtual world chains inlines in walk
  /// order, so one round already reaches depth > 1 along hot paths).
  unsigned Rounds = 2;
  /// Use profile counts (PBO) rather than static heuristics.
  bool UseProfile = true;
  /// Inline only sites whose caller and callee share a module (the non-CMO
  /// O3-style mode; CMO removes this restriction).
  bool IntraModuleOnly = false;
};

/// Outcome summary.
struct InlineResult {
  uint64_t SitesConsidered = 0;
  uint64_t SitesInlined = 0;
  uint64_t InstrsAdded = 0;
};

/// The core transformation, exposed for unit tests: inlines the call at
/// (\p Block, \p InstrIdx) of \p Caller. Returns false when the site is not
/// a call to a defined routine. Profile counts in the inlined copy are
/// scaled by the site count over the callee entry count.
bool inlineCallSite(Program &P, RoutineBody &CallerBody,
                    const RoutineBody &CalleeBody, BlockId Block,
                    uint32_t InstrIdx);

} // namespace scmo

#endif // SCMO_HLO_INLINER_H
