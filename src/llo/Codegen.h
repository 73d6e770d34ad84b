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
///    (values live across calls take a callee-save register, a caller-save
///    register wrapped around cold calls, or a stack slot);
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

#include <vector>

namespace scmo {

/// LLO configuration (derived from the driver's optimization level).
struct LloOptions {
  bool RegAlloc = true;      ///< Linear scan (false: spill everything, O1).
  bool Schedule = true;      ///< Load-use stall scheduling.
  bool ProfileLayout = true; ///< Use block counts for layout when available.
};

/// The phases lowerRoutine runs, in order. Each phase's time is measured on
/// the lowering thread (a monotonic clock read at each phase boundary: no
/// system call) and summed into LloStats::PhaseNanos.
enum class LloPhase : unsigned {
  Layout,    ///< Block layout.
  Liveness,  ///< Block liveness (ir/Liveness).
  Loops,     ///< Loop depths for spill weights.
  Intervals, ///< Live intervals over linear positions.
  Sort,      ///< Linear-scan order and call crossings.
  Scan,      ///< Linear scan (or spill-everything at O1).
  Emit,      ///< Machine instruction emission.
  Schedule,  ///< Load-use list scheduling.
  Encode,    ///< Dense encoding into MachineRoutine::Code.
};
inline constexpr unsigned NumLloPhases =
    static_cast<unsigned>(LloPhase::Encode) + 1;

/// Lower-case phase name ("layout", ...), as --stats prints it.
const char *lloPhaseName(LloPhase P);

/// Statistics LLO reports per compilation. Under the parallel backend each
/// lowering task accumulates into its own instance and the driver merges
/// them after the join; workers never mutate a shared LloStats.
struct LloStats {
  uint64_t RoutinesLowered = 0;
  uint64_t SpillsAllocated = 0;  ///< Virtual registers assigned to slots.
  uint64_t RegsAllocated = 0;    ///< Virtual registers assigned to registers.
  uint64_t ScheduleMoves = 0;    ///< Instructions the scheduler reordered.
  /// Largest transient LLO footprint of one routine: the running maximum of
  /// its live charge, with each scheduling region's DAG released as the
  /// region ends.
  uint64_t PeakRoutineBytes = 0;
  /// Time spent in each LloPhase, summed over routines (and tasks).
  uint64_t PhaseNanos[NumLloPhases] = {};

  /// Folds \p Other in. Every field is a sum or a max, so merging in any
  /// order yields the same totals as serial accumulation did.
  void merge(const LloStats &Other) {
    RoutinesLowered += Other.RoutinesLowered;
    SpillsAllocated += Other.SpillsAllocated;
    RegsAllocated += Other.RegsAllocated;
    ScheduleMoves += Other.ScheduleMoves;
    if (Other.PeakRoutineBytes > PeakRoutineBytes)
      PeakRoutineBytes = Other.PeakRoutineBytes;
    for (unsigned P = 0; P != NumLloPhases; ++P)
      PhaseNanos[P] += Other.PhaseNanos[P];
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

/// Sets \p Depth[B] to the loop nesting depth of every block B of \p Body:
/// the number of natural loops that contain B. A DFS from block 0 finds the
/// back edges; each back edge (Latch -> Header) defines one natural loop,
/// the header plus every block that reaches the latch without passing the
/// header (unreachable predecessors included). A back edge found twice (a
/// branch whose two targets are the same header) counts twice. Work is
/// linear in the CFG plus the summed size of the loops; the walk buffers
/// live as long as the calling thread.
void computeLoopDepths(const RoutineBody &Body, std::vector<uint32_t> &Depth);

/// List-schedules the straight-line region \p Code[0, N) in place, as LLO
/// does for each region between block starts and control instructions:
/// loads issue early and a consumer is kept away from the load just issued
/// (the VM's load-use stall). Dependences are register RAW/WAR/WAW, memory
/// (distinct spill slots never alias; everything else is ordered around a
/// store) and print order. Returns the number of instructions that moved.
/// The working set lives as long as the calling thread.
uint64_t scheduleRegion(MInstr *Code, size_t N);

} // namespace scmo

#endif // SCMO_LLO_CODEGEN_H
