//===- hlo/Hlo.h ------------------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The High Level Optimizer driver, split WHOPR-style into two phases:
///
///  - planHlo (WPA): serial whole-program analysis over the loader's routine
///    summaries. Computes global variable summaries, then plans every
///    interprocedural decision — IPCP constants, specialization clones,
///    inline selections, dead-routine marks. No routine body is mutated.
///
///  - runLtrans (LTRANS): one task per routine, in ascending RoutineId, on a
///    thread pool. Under a single loader acquire each task applies the plan
///    (CMO-set routines) or the tier's cleanup (default-set routines), then
///    optionally verifies the body it still holds. Tasks read only the
///    immutable plan and their own body, so the output bytes are identical
///    at any job count.
///
/// runHlo composes the two and is what tests call; CompilerSession runs the
/// phases as separate pipeline stages for per-stage timing.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_HLO_HLO_H
#define SCMO_HLO_HLO_H

#include "hlo/Cloner.h"
#include "hlo/HloContext.h"
#include "hlo/Inliner.h"
#include "hlo/Wpa.h"

#include <string>
#include <vector>

namespace scmo {

class ThreadPool;

/// HLO pipeline configuration.
struct HloOptions {
  /// The set passed to runHlo covers every defined routine of the final
  /// link: interprocedural facts about extern symbols become trustworthy and
  /// unreachable routines can be dropped.
  bool WholeProgram = true;
  /// Profile-guided heuristics (CMO+PBO vs pure CMO).
  bool Pbo = true;
  bool EnableIpcp = true;
  bool EnableCloning = true;
  InlineParams Inline;
  CloneParams Clone;
};

/// WPA: plans HLO over \p Set (all routines of the CMO module set;
/// fine-grained selectivity flags on RoutineInfo gate per-routine work).
/// \p Set may grow (planned clones are declared and appended). Serial; no
/// bodies are mutated, so the loader's summary cache stays valid
/// throughout.
HloPlan planHlo(HloContext &Ctx, std::vector<RoutineId> &Set,
                const HloOptions &Opts);

/// LTRANS: one task per routine of \p Routines (ascending RoutineId), fanned
/// out over \p Pool (serial when null). A routine of a CMO-set module gets
/// \p Plan's rewrites, plus full cleanup when Selected; dead ones are
/// skipped. Any other routine gets the cleanup its Tier names. With \p
/// Verify, each emitted routine is then verified on the body the task
/// holds; emitted routines nothing transforms get a read-only acquire for
/// it. Per-task counters merge in ascending id order, so totals match the
/// serial run. Once the heap cap trips, remaining tasks are skipped; the
/// caller checks the tracker after the join. Bodies end the run released
/// to the loader. Returns the lowest-id verify failure, rendered as its
/// scmo-verify diagnostic ("" when none).
std::string runLtrans(HloContext &Ctx, std::vector<RoutineId> &Routines,
                      const HloPlan *Plan, bool Verify,
                      ThreadPool *Pool = nullptr);

/// Runs the full HLO pipeline: planHlo followed by runLtrans.
void runHlo(HloContext &Ctx, std::vector<RoutineId> &Set,
            const HloOptions &Opts, ThreadPool *Pool = nullptr);

} // namespace scmo

#endif // SCMO_HLO_HLO_H
