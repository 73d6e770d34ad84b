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
///    (CMO-set routines) or the tier's cleanup (default-set routines),
///    optionally verifies the body it still holds, and hands an emitted
///    routine's finished body to the caller's finish callback (the driver
///    lowers it there, so HLO never depends on LLO). Tasks read only the
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

#include <functional>
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

/// The last step of an LTRANS task for an emitted routine: called on the
/// task's worker with the finished body (rewritten, repacked, verified),
/// still under the task's one acquire. \p I indexes the list passed to
/// runLtrans; calls for distinct routines run concurrently. Not called for
/// a routine that fails the verify.
using LtransFinish =
    std::function<void(size_t I, RoutineId R, const RoutineBody &Body)>;

/// What runLtrans does to each routine.
struct LtransOptions {
  /// Rewrites for routines of CMO-set modules (null: no CMO work).
  const HloPlan *Plan = nullptr;
  /// Give every other routine the cleanup its Tier names. Off for builds
  /// that lower the frontend's IL as it is (+O1, +I).
  bool Cleanup = true;
  /// Verify each emitted routine on the body the task holds.
  bool Verify = false;
  /// Called once per emitted routine; unset: bodies are only released.
  LtransFinish Finish;
  /// Nothing reads a finished routine's IL again: after Finish the task
  /// retires the body (Loader::retire) instead of releasing it.
  bool Retire = false;
};

/// LTRANS: one task per routine of \p Routines (ascending RoutineId), fanned
/// out over \p Pool (serial when null). A routine of a CMO-set module gets
/// the plan's rewrites, plus full cleanup when Selected; dead ones are
/// skipped. Any other routine gets the cleanup its Tier names. Then, under
/// the same acquire, each emitted routine is verified (Verify) and, if it
/// passes, handed to Finish; an emitted routine nothing transforms is
/// acquired read-only for that. Per-task counters merge in ascending id
/// order, so totals match the serial run. Once the heap cap trips,
/// remaining tasks are skipped; the caller checks the tracker after the
/// join. Returns the lowest-id verify failure, rendered as its scmo-verify
/// diagnostic ("" when none).
std::string runLtrans(HloContext &Ctx, std::vector<RoutineId> &Routines,
                      const LtransOptions &Opts, ThreadPool *Pool = nullptr);

/// Runs the full HLO pipeline: planHlo followed by runLtrans.
void runHlo(HloContext &Ctx, std::vector<RoutineId> &Set,
            const HloOptions &Opts, ThreadPool *Pool = nullptr);

} // namespace scmo

#endif // SCMO_HLO_HLO_H
