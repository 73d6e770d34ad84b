//===- llo/Codegen.h --------------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The code generator and low level optimizer (LLO): "a sophisticated and
/// mature intraprocedural optimizer, handling all optimizations that require
/// detailed knowledge of the machine architecture, such as register
/// allocation and scheduling" (paper Section 3). It consumes IL routine
/// bodies and produces MachineRoutines:
///
///  - profile-guided basic block layout (hot successor falls through);
///  - linear-scan register allocation with loop-depth-weighted spill costs
///    (values live across calls go to the stack: all registers are
///    caller-save);
///  - list scheduling within blocks to hide the machine's load-use stall.
///
/// At optimization level O1 all three are disabled and every virtual
/// register lives in a stack slot (the "optimize only within basic blocks"
/// baseline used for Mcad3 in Figure 1).
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_LLO_CODEGEN_H
#define SCMO_LLO_CODEGEN_H

#include "ir/Program.h"
#include "llo/MachineCode.h"

namespace scmo {

/// LLO configuration (derived from the driver's optimization level).
struct LloOptions {
  bool RegAlloc = true;      ///< Linear scan (false: spill everything, O1).
  bool Schedule = true;      ///< Load-use stall scheduling.
  bool ProfileLayout = true; ///< Use block counts for layout when available.
};

/// Statistics LLO reports per compilation. Under the parallel backend each
/// lowering task accumulates into its own instance and the driver merges
/// them after the join; workers never mutate a shared LloStats.
struct LloStats {
  uint64_t RoutinesLowered = 0;
  uint64_t SpillsAllocated = 0;  ///< Virtual registers assigned to slots.
  uint64_t RegsAllocated = 0;    ///< Virtual registers assigned to registers.
  uint64_t ScheduleMoves = 0;    ///< Instructions the scheduler reordered.
  uint64_t PeakRoutineBytes = 0; ///< Largest transient LLO footprint.

  /// Folds \p Other in. Every field is a sum or a max, so merging in any
  /// order yields the same totals as serial accumulation did.
  void merge(const LloStats &Other) {
    RoutinesLowered += Other.RoutinesLowered;
    SpillsAllocated += Other.SpillsAllocated;
    RegsAllocated += Other.RegsAllocated;
    ScheduleMoves += Other.ScheduleMoves;
    if (Other.PeakRoutineBytes > PeakRoutineBytes)
      PeakRoutineBytes = Other.PeakRoutineBytes;
  }
};

/// Lowers \p Body (the IL of routine \p R) to machine code in the dense
/// encoding of llo/MachineCode.h. Transient LLO memory — the MInstr working
/// vector and the allocation and scheduling state — is charged to the
/// session tracker's Llo category while the routine is lowered. It grows
/// superlinearly with routine size, the paper's explanation for Figure 4's
/// overall curve outgrowing HLO.
MachineRoutine lowerRoutine(Program &P, RoutineId R, const RoutineBody &Body,
                            const LloOptions &Opts, LloStats *Stats = nullptr);

} // namespace scmo

#endif // SCMO_LLO_CODEGEN_H
