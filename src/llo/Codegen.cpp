//===- llo/Codegen.cpp ----------------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "llo/Codegen.h"

#include "ir/Liveness.h"
#include "support/Debug.h"

#include <algorithm>
#include <chrono>

using namespace scmo;

const char *scmo::mopName(MOp Op) {
  switch (Op) {
  case MOp::Mov:
    return "mov";
  case MOp::Add:
    return "add";
  case MOp::Sub:
    return "sub";
  case MOp::Mul:
    return "mul";
  case MOp::Div:
    return "div";
  case MOp::Rem:
    return "rem";
  case MOp::Neg:
    return "neg";
  case MOp::CmpEq:
    return "cmpeq";
  case MOp::CmpNe:
    return "cmpne";
  case MOp::CmpLt:
    return "cmplt";
  case MOp::CmpLe:
    return "cmple";
  case MOp::CmpGt:
    return "cmpgt";
  case MOp::CmpGe:
    return "cmpge";
  case MOp::LoadG:
    return "loadg";
  case MOp::StoreG:
    return "storeg";
  case MOp::LoadIdx:
    return "loadidx";
  case MOp::StoreIdx:
    return "storeidx";
  case MOp::LoadSpill:
    return "loadspill";
  case MOp::StoreSpill:
    return "storespill";
  case MOp::Jmp:
    return "jmp";
  case MOp::Br:
    return "br";
  case MOp::Brz:
    return "brz";
  case MOp::Ret:
    return "ret";
  case MOp::Call:
    return "call";
  case MOp::Print:
    return "print";
  case MOp::Probe:
    return "probe";
  case MOp::Halt:
    return "halt";
  case MOp::Nop:
    return "nop";
  }
  scmo_unreachable("invalid machine opcode");
}

const char *scmo::lloPhaseName(LloPhase P) {
  switch (P) {
  case LloPhase::Layout:
    return "layout";
  case LloPhase::Liveness:
    return "liveness";
  case LloPhase::Loops:
    return "loops";
  case LloPhase::Intervals:
    return "intervals";
  case LloPhase::Sort:
    return "sort";
  case LloPhase::Scan:
    return "scan";
  case LloPhase::Emit:
    return "emit";
  case LloPhase::Schedule:
    return "schedule";
  case LloPhase::Encode:
    return "encode";
  }
  scmo_unreachable("invalid LLO phase");
}

namespace {

/// Allocatable registers. r0/r1/r2 are scratch, r24..r31 are the
/// argument/return registers (see MachineCode.h). r3..r13 are caller-save
/// (cheap, but dead across calls); r14..r23 are callee-save: a routine that
/// uses one saves it in its prologue and restores it before returning, so
/// values live across calls can stay in registers at a once-per-call cost —
/// which inlining then eliminates entirely.
constexpr uint8_t CallerSaveRegs[] = {3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13};
constexpr unsigned NumCallerSave = sizeof(CallerSaveRegs);
constexpr uint8_t CalleeSaveRegs[] = {14, 15, 16, 17, 18, 19, 20, 21, 22, 23};
constexpr unsigned NumCalleeSave = sizeof(CalleeSaveRegs);

/// The free-register masks give bit I to Regs[I]. Both runs ascend by one,
/// so a register maps to its bit by subtraction, and the lowest set bit is
/// the first free register of the array.
constexpr bool isRun(const uint8_t *Regs, unsigned N) {
  for (unsigned I = 1; I != N; ++I)
    if (Regs[I] != Regs[0] + I)
      return false;
  return true;
}
static_assert(isRun(CallerSaveRegs, NumCallerSave) &&
                  isRun(CalleeSaveRegs, NumCalleeSave) &&
                  CallerSaveRegs[NumCallerSave - 1] < CalleeSaveRegs[0],
              "register masks assume two ascending runs");

/// Where a virtual register lives after allocation.
struct Loc {
  bool Known = false;
  bool InReg = false;
  uint8_t Reg = 0;
  uint32_t Slot = 0;
};

/// A live interval over linearized positions.
struct Interval {
  uint32_t Start = ~0u;
  uint32_t End = 0;
  double Weight = 0.0;
  /// Index of the first call position after Start (set with CrossesCall).
  uint32_t FirstCall = 0;
  bool CrossesCall = false;
  bool used() const { return Start <= End; }
};

/// The interval record size LLO's memory model charges per vreg: the
/// record as Figure 4's LLO curve was measured with (vreg, start, end,
/// weight, flags), kept fixed so the curve does not follow struct layout.
constexpr uint64_t ChargedIntervalBytes = 32;

/// An interval holding a register during the linear scan.
struct Active {
  uint32_t End;
  RegId Vreg;
  uint8_t Reg;
  double Weight;
  bool CrossesCall;
};

/// One caller-save register saved and restored around one call.
struct CallWrap {
  uint32_t Call; ///< Call ordinal: calls numbered in natural block order.
  uint8_t Reg;
  uint32_t Slot;
};

//===----------------------------------------------------------------------===//
// Machine-instruction properties for the scheduler
//===----------------------------------------------------------------------===//

/// What the scheduler needs to know about a machine opcode, as bit flags.
enum : uint8_t {
  WritesRd = 1 << 0, ///< Writes Rd.
  UsesA = 1 << 1,    ///< Reads operand A (a register unless immediate).
  UsesB = 1 << 2,    ///< Reads operand B.
  MemOp = 1 << 3,    ///< Touches memory.
  StoreOp = 1 << 4,  ///< Writes memory.
  SpillOp = 1 << 5,  ///< Touches only its spill slot.
  LoadOp = 1 << 6,   ///< Loads into Rd (the load-use stall's source).
  ControlOp = 1 << 7 ///< Ends a scheduling region.
};

constexpr uint8_t opFlags(MOp Op) {
  switch (Op) {
  case MOp::Mov:
  case MOp::Neg:
    return WritesRd | UsesA;
  case MOp::Add:
  case MOp::Sub:
  case MOp::Mul:
  case MOp::Div:
  case MOp::Rem:
  case MOp::CmpEq:
  case MOp::CmpNe:
  case MOp::CmpLt:
  case MOp::CmpLe:
  case MOp::CmpGt:
  case MOp::CmpGe:
    return WritesRd | UsesA | UsesB;
  case MOp::LoadG:
    return WritesRd | MemOp | LoadOp;
  case MOp::StoreG:
    return UsesA | MemOp | StoreOp;
  case MOp::LoadIdx:
    return WritesRd | UsesA | MemOp | LoadOp;
  case MOp::StoreIdx:
    return UsesA | UsesB | MemOp | StoreOp;
  case MOp::LoadSpill:
    return WritesRd | MemOp | SpillOp | LoadOp;
  case MOp::StoreSpill:
    return UsesA | MemOp | StoreOp | SpillOp;
  case MOp::Br:
  case MOp::Brz:
    return UsesA | ControlOp;
  case MOp::Jmp:
  case MOp::Ret:
  case MOp::Call:
  case MOp::Halt:
    return ControlOp;
  case MOp::Print:
    return UsesA;
  case MOp::Probe:
  case MOp::Nop:
    return 0;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// List scheduling
//===----------------------------------------------------------------------===//

/// The scheduler's per-region working set. It lives as long as the worker
/// thread, so regions after the largest one allocate nothing.
struct ScheduleScratch {
  std::vector<MInstr> Orig;
  /// Per instruction: the registers it reads (NoRead when fewer than two)
  /// and whether it is a load.
  struct Info {
    uint8_t Reads[2];
    bool Load;
  };
  static constexpr uint8_t NoRead = 0xff;
  std::vector<Info> Infos;
  /// Dependence DAG: the predecessors of I are
  /// Preds[PredBegin[I], PredBegin[I + 1]); successors likewise in CSR.
  std::vector<uint32_t> PredBegin;
  std::vector<uint32_t> Preds;
  std::vector<uint32_t> SuccBegin;
  std::vector<uint32_t> Succs;
  std::vector<uint32_t> InDeg;
  /// EdgeMark[X] == Y + 1 once the edge X -> Y exists (duplicate filter;
  /// every edge into Y is added while Y is visited).
  std::vector<uint32_t> EdgeMark;
  /// Reader lists: node K is instruction ReaderOf[K], next node NextReader[K].
  std::vector<uint32_t> ReaderOf;
  std::vector<int32_t> NextReader;
  /// Memory frontiers since the last non-spill store: every memory op, the
  /// non-spill loads, and the slots spill-stored.
  std::vector<uint32_t> MemSince;
  std::vector<uint32_t> LoadsSince;
  std::vector<uint32_t> DirtySlots;
  /// Per spill slot: last store and reader-list head (-1: none), and
  /// whether it is in DirtySlots. A region resets the slots it touched.
  std::vector<int32_t> SlotWriter;
  std::vector<int32_t> SlotReaders;
  std::vector<uint8_t> SlotDirty;
  std::vector<uint32_t> TouchedSlots;
  /// Ready instructions, kept sorted by original index.
  std::vector<uint32_t> Ready;
};

/// Builds the region's dependence DAG. The all-pairs DAG has an edge X -> Y
/// (X before Y) whenever the two conflict; this one keeps only the edges
/// from each register's last writer and readers since, each slot's last
/// store and readers since, and the memory frontiers around non-spill
/// stores (DESIGN.md §5n). Every kept edge is a conflict, and every conflict is a path of
/// kept edges, so both DAGs have the same transitive closure.
void buildDag(ScheduleScratch &S, size_t N) {
  const std::vector<MInstr> &Orig = S.Orig;
  S.PredBegin.resize(N + 1);
  S.Infos.resize(N);
  S.Preds.clear();
  S.EdgeMark.assign(N, 0);
  S.ReaderOf.clear();
  S.NextReader.clear();
  S.MemSince.clear();
  S.LoadsSince.clear();
  S.DirtySlots.clear();
  S.TouchedSlots.clear();
  int32_t LastWriter[NumPhysRegs];
  int32_t Readers[NumPhysRegs];
  std::fill(std::begin(LastWriter), std::end(LastWriter), -1);
  std::fill(std::begin(Readers), std::end(Readers), -1);
  int32_t LastStore = -1; // Last non-spill store.
  int32_t LastPrint = -1;

  uint32_t To = 0;
  auto edge = [&](int32_t From) {
    if (From < 0 || S.EdgeMark[From] == To + 1)
      return;
    S.EdgeMark[From] = To + 1;
    S.Preds.push_back(static_cast<uint32_t>(From));
  };
  auto addReader = [&](int32_t &Head) {
    S.ReaderOf.push_back(To);
    S.NextReader.push_back(Head);
    Head = static_cast<int32_t>(S.ReaderOf.size() - 1);
  };
  auto readersTo = [&](int32_t Head) {
    for (int32_t K = Head; K >= 0; K = S.NextReader[K])
      edge(static_cast<int32_t>(S.ReaderOf[K]));
  };
  auto touch = [&](uint32_t Slot) {
    if (Slot >= S.SlotWriter.size()) {
      size_t Size = std::max<size_t>(Slot + 1, 2 * S.SlotWriter.size());
      S.SlotWriter.resize(Size, -1);
      S.SlotReaders.resize(Size, -1);
      S.SlotDirty.resize(Size, 0);
    }
    S.TouchedSlots.push_back(Slot);
  };

  for (; To != N; ++To) {
    S.PredBegin[To] = static_cast<uint32_t>(S.Preds.size());
    const MInstr &I = Orig[To];
    const uint8_t F = opFlags(I.Op);
    uint8_t Reads[2];
    unsigned NumReads = 0;
    if ((F & UsesA) && !I.A.IsImm)
      Reads[NumReads++] = I.A.Reg;
    if ((F & UsesB) && !I.B.IsImm && !(NumReads && Reads[0] == I.B.Reg))
      Reads[NumReads++] = I.B.Reg;
    bool Writes = F & WritesRd;
    S.Infos[To] = {{NumReads > 0 ? Reads[0] : ScheduleScratch::NoRead,
                    NumReads > 1 ? Reads[1] : ScheduleScratch::NoRead},
                   (F & LoadOp) != 0};

    // Registers: read after write, write after write, write after read.
    for (unsigned K = 0; K != NumReads; ++K)
      edge(LastWriter[Reads[K]]);
    if (Writes) {
      edge(LastWriter[I.Rd]);
      readersTo(Readers[I.Rd]);
    }

    // Memory. A non-spill op may touch any location; a spill op only its
    // slot.
    if (F & MemOp) {
      edge(LastStore);
      bool Store = F & StoreOp;
      if (F & SpillOp) {
        touch(I.Slot);
        edge(S.SlotWriter[I.Slot]);
        if (Store) {
          for (uint32_t L : S.LoadsSince)
            edge(static_cast<int32_t>(L));
          readersTo(S.SlotReaders[I.Slot]);
          S.SlotWriter[I.Slot] = static_cast<int32_t>(To);
          S.SlotReaders[I.Slot] = -1;
          if (!S.SlotDirty[I.Slot]) {
            S.SlotDirty[I.Slot] = 1;
            S.DirtySlots.push_back(I.Slot);
          }
        } else {
          addReader(S.SlotReaders[I.Slot]);
        }
        S.MemSince.push_back(To);
      } else if (Store) {
        for (uint32_t M : S.MemSince)
          edge(static_cast<int32_t>(M));
        LastStore = static_cast<int32_t>(To);
        S.MemSince.clear();
        S.LoadsSince.clear();
        for (uint32_t Slot : S.DirtySlots)
          S.SlotDirty[Slot] = 0;
        S.DirtySlots.clear();
      } else {
        for (uint32_t Slot : S.DirtySlots)
          edge(S.SlotWriter[Slot]);
        S.MemSince.push_back(To);
        S.LoadsSince.push_back(To);
      }
    }
    if (I.Op == MOp::Print) {
      edge(LastPrint);
      LastPrint = static_cast<int32_t>(To);
    }

    if (Writes) {
      LastWriter[I.Rd] = static_cast<int32_t>(To);
      Readers[I.Rd] = -1;
    }
    for (unsigned K = 0; K != NumReads; ++K)
      if (!(Writes && Reads[K] == I.Rd))
        addReader(Readers[Reads[K]]);
  }
  S.PredBegin[N] = static_cast<uint32_t>(S.Preds.size());
  for (uint32_t Slot : S.TouchedSlots) {
    S.SlotWriter[Slot] = -1;
    S.SlotReaders[Slot] = -1;
    S.SlotDirty[Slot] = 0;
  }

  // Successor CSR and in-degrees from the predecessor lists.
  S.SuccBegin.assign(N + 1, 0);
  S.InDeg.resize(N);
  for (uint32_t Y = 0; Y != N; ++Y) {
    S.InDeg[Y] = S.PredBegin[Y + 1] - S.PredBegin[Y];
    for (uint32_t E = S.PredBegin[Y]; E != S.PredBegin[Y + 1]; ++E)
      ++S.SuccBegin[S.Preds[E] + 1];
  }
  for (uint32_t X = 0; X != N; ++X)
    S.SuccBegin[X + 1] += S.SuccBegin[X];
  S.Succs.resize(S.Preds.size());
  for (uint32_t Y = 0; Y != N; ++Y)
    for (uint32_t E = S.PredBegin[Y]; E != S.PredBegin[Y + 1]; ++E)
      S.Succs[S.SuccBegin[S.Preds[E]]++] = Y;
  for (uint32_t X = static_cast<uint32_t>(N); X != 0; --X)
    S.SuccBegin[X] = S.SuccBegin[X - 1];
  S.SuccBegin[0] = 0;
}

/// Schedules Code[0, N) over the DAG in S; returns the instructions moved.
uint64_t listSchedule(ScheduleScratch &S, MInstr *Code, size_t N) {
  const std::vector<MInstr> &Orig = S.Orig;
  // Greedy list schedule: avoid issuing a consumer right after its load.
  // Picks are written straight back over the region; Orig keeps the
  // original order.
  std::vector<uint32_t> &Ready = S.Ready;
  Ready.clear();
  for (uint32_t I = 0; I != N; ++I)
    if (S.InDeg[I] == 0)
      Ready.push_back(I);
  int LastLoadRd = -1;
  uint64_t Moves = 0;
  size_t Placed = 0;
  while (!Ready.empty()) {
    // First choice: the earliest load that does not consume the just-issued
    // load's result, to get loads in flight early; then the earliest
    // instruction that does not consume it; else (everything stalls) the
    // earliest.
    size_t PickIdx = 0, FirstFree = Ready.size();
    for (size_t Idx = 0; Idx != Ready.size(); ++Idx) {
      const ScheduleScratch::Info &C = S.Infos[Ready[Idx]];
      if (LastLoadRd >= 0 &&
          (C.Reads[0] == LastLoadRd || C.Reads[1] == LastLoadRd))
        continue;
      if (C.Load) {
        FirstFree = Idx;
        break;
      }
      if (FirstFree == Ready.size())
        FirstFree = Idx;
    }
    if (FirstFree != Ready.size())
      PickIdx = FirstFree;
    uint32_t Chosen = Ready[PickIdx];
    Ready.erase(Ready.begin() + PickIdx);
    if (Chosen != Placed)
      ++Moves;
    const MInstr &C = Orig[Chosen];
    LastLoadRd = (opFlags(C.Op) & LoadOp) ? C.Rd : -1;
    Code[Placed++] = C;
    for (uint32_t E = S.SuccBegin[Chosen]; E != S.SuccBegin[Chosen + 1]; ++E) {
      uint32_t Succ = S.Succs[E];
      if (--S.InDeg[Succ] == 0)
        Ready.insert(std::upper_bound(Ready.begin(), Ready.end(), Succ), Succ);
    }
  }
  assert(Placed == N && "scheduler dropped instructions");
  return Moves;
}

} // namespace

uint64_t scmo::scheduleRegion(MInstr *Code, size_t N) {
  // Without a load nothing stalls and no pick prefers a load, so each pick
  // is the earliest ready instruction. That is always the next one in
  // original order (its predecessors all precede it): nothing moves.
  if (std::none_of(Code, Code + N, [](const MInstr &I) {
        return (opFlags(I.Op) & LoadOp) != 0;
      }))
    return 0;
  thread_local ScheduleScratch S;
  S.Orig.assign(Code, Code + N);
  buildDag(S, N);
  return listSchedule(S, Code, N);
}

namespace {

//===----------------------------------------------------------------------===//
// Worker scratch
//===----------------------------------------------------------------------===//

/// Every per-routine buffer LLO uses. One instance lives as long as its
/// worker thread, so once the largest routine has been lowered a routine
/// allocates only its encoded output. Like the liveness solver's, these
/// buffers are untracked: the explicit charge() calls are the accounting.
struct LloScratch {
  Liveness LV;
  std::vector<uint32_t> LoopDepth;
  std::vector<BlockId> Layout;
  std::vector<uint8_t> Placed;
  std::vector<BlockId> Seeds;
  std::vector<Loc> RegLoc;
  std::vector<Interval> Ivs;
  /// Linear-scan order (vregs by (Start, Vreg)) and its counting-sort
  /// buckets, one per position.
  std::vector<RegId> Order;
  std::vector<uint32_t> Bucket;
  std::vector<uint32_t> CallPositions;
  std::vector<double> CallWeights;
  /// Ordinal of the first call in each block (natural order).
  std::vector<uint32_t> BlockFirstCall;
  std::vector<Active> ActiveList;
  /// Wraps in assignment order, then grouped by call: the wraps of call C
  /// are WrapsByCall[WrapBegin[C], WrapBegin[C + 1]).
  std::vector<CallWrap> Wraps;
  std::vector<uint32_t> WrapBegin;
  std::vector<CallWrap> WrapsByCall;
  std::vector<MInstr> Code;
  std::vector<uint32_t> BlockMachineStart;
  std::vector<uint32_t> RegionStarts;
  std::vector<std::pair<uint32_t, BlockId>> Fixups;
  std::vector<uint8_t> Bytes;
};

/// Drives the lowering of one routine.
class RoutineLowering {
public:
  RoutineLowering(Program &P, RoutineId R, const RoutineBody &Body,
                  const LloOptions &Opts, LloStats *Stats, LloScratch &S)
      : P(P), R(R), Body(Body), Opts(Opts), Stats(Stats),
        Tracker(P.tracker()), S(S), Layout(S.Layout), RegLoc(S.RegLoc),
        Code(S.Code) {}

  ~RoutineLowering() {
    if (Tracker && Charged)
      Tracker->release(MemCategory::Llo, Charged);
  }

  MachineRoutine run() {
    PhaseStart = Clock::now();
    computeLayout();
    endPhase(LloPhase::Layout);
    if (Opts.RegAlloc) {
      allocateRegisters();
    } else {
      spillEverything();
      endPhase(LloPhase::Scan);
    }
    emitAll();
    // The MInstr working vector is per-thread scratch; it counts against
    // LLO only while this routine is being lowered.
    charge(Code.size() * sizeof(MInstr));
    endPhase(LloPhase::Emit);
    if (Opts.Schedule) {
      scheduleAll();
      endPhase(LloPhase::Schedule);
    }
    // Encode into worker scratch sized for the worst case, then copy the
    // exact bytes out.
    if (S.Bytes.size() < Code.size() * MaxMInstrBytes)
      S.Bytes.resize(Code.size() * MaxMInstrBytes);
    uint8_t *End = S.Bytes.data();
    for (const MInstr &I : Code)
      End = encodeMInstr(End, I);
    Out.Code.assign(S.Bytes.data(), End);
    Out.NumInstrs = static_cast<uint32_t>(Code.size());
    endPhase(LloPhase::Encode);
    if (Stats) {
      ++Stats->RoutinesLowered;
      if (PeakCharged > Stats->PeakRoutineBytes)
        Stats->PeakRoutineBytes = PeakCharged;
    }
    Out.Routine = R;
    Out.Name = P.displayName(R);
    Out.SpillSlots = NumSlots;
    Out.EntryFreq = Body.entryFreq();
    Out.SourceLines = Body.SourceLines;
    return std::move(Out);
  }

private:
  using Clock = std::chrono::steady_clock;

  /// Adds the time since the last boundary to phase \p Ph.
  void endPhase(LloPhase Ph) {
    Clock::time_point Now = Clock::now();
    if (Stats)
      Stats->PhaseNanos[static_cast<unsigned>(Ph)] += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Now -
                                                               PhaseStart)
              .count());
    PhaseStart = Now;
  }

  void charge(uint64_t Bytes) {
    Charged += Bytes;
    PeakCharged = std::max(PeakCharged, Charged);
    if (Tracker)
      Tracker->allocate(MemCategory::Llo, Bytes);
  }

  /// Returns \p Bytes of an earlier charge() before the routine ends.
  void uncharge(uint64_t Bytes) {
    Charged -= Bytes;
    if (Tracker)
      Tracker->release(MemCategory::Llo, Bytes);
  }

  //===--------------------------------------------------------------------===
  // Block layout
  //===--------------------------------------------------------------------===

  void computeLayout() {
    size_t NumBlocks = Body.Blocks.size();
    Layout.clear();
    bool UseProfile = Opts.ProfileLayout && Body.HasProfile;
    if (!UseProfile) {
      for (BlockId B = 0; B != NumBlocks; ++B)
        Layout.push_back(B);
      return;
    }
    // Greedy hot-path chaining: follow the heavier outgoing edge while its
    // target is unplaced; then restart the chain from the hottest remaining
    // block. Cold blocks sink to the end (deterministic id tie-break).
    std::vector<uint8_t> &Placed = S.Placed;
    Placed.assign(NumBlocks, 0);
    auto place = [&](BlockId B) {
      Layout.push_back(B);
      Placed[B] = 1;
    };
    std::vector<BlockId> &Seeds = S.Seeds;
    Seeds.resize(NumBlocks);
    for (BlockId B = 0; B != NumBlocks; ++B)
      Seeds[B] = B;
    // Hottest first, ties by id: the order a stable sort by count gives,
    // without the stable sort's temporary buffer.
    std::sort(Seeds.begin(), Seeds.end(), [&](BlockId X, BlockId Y) {
      uint64_t FX = Body.Blocks[X].Freq, FY = Body.Blocks[Y].Freq;
      return FX != FY ? FX > FY : X < Y;
    });
    place(0);
    size_t SeedIdx = 0;
    while (Layout.size() != NumBlocks) {
      BlockId Cur = Layout.back();
      const Instr *Term = Body.Blocks[Cur].terminator();
      BlockId Next = InvalidId;
      if (Term) {
        if (Term->Op == Opcode::Jmp && !Placed[Term->T1]) {
          Next = Term->T1;
        } else if (Term->Op == Opcode::Br) {
          uint64_t Taken = Body.Blocks[Cur].TakenFreq;
          uint64_t Fall = Body.Blocks[Cur].Freq > Taken
                              ? Body.Blocks[Cur].Freq - Taken
                              : 0;
          BlockId Hot = Taken > Fall ? Term->T1 : Term->T2;
          BlockId Cold = Taken > Fall ? Term->T2 : Term->T1;
          if (!Placed[Hot])
            Next = Hot;
          else if (!Placed[Cold])
            Next = Cold;
        }
      }
      if (Next == InvalidId) {
        while (SeedIdx < Seeds.size() && Placed[Seeds[SeedIdx]])
          ++SeedIdx;
        if (SeedIdx == Seeds.size())
          break;
        Next = Seeds[SeedIdx];
      }
      place(Next);
    }
  }

  //===--------------------------------------------------------------------===
  // Liveness and linear-scan allocation
  //===--------------------------------------------------------------------===

  void spillEverything() {
    RegLoc.assign(Body.NextReg, Loc());
    for (RegId V = 0; V != Body.NextReg; ++V) {
      RegLoc[V].Known = true;
      RegLoc[V].InReg = false;
      RegLoc[V].Slot = NumSlots++;
    }
    if (Stats)
      Stats->SpillsAllocated += Body.NextReg;
  }

  void allocateRegisters() {
    size_t NumBlocks = Body.Blocks.size();
    uint32_t NumVregs = Body.NextReg;
    RegLoc.assign(NumVregs, Loc());

    // Per-block upward-exposed uses / defs / live-in / live-out. This is the
    // transient LLO footprint that scales with (blocks x vregs) — the
    // superlinear growth Figure 4 attributes to LLO under heavy inlining.
    // The solver's buffers live as long as the worker thread and are reused
    // across routines. They are untracked; the explicit charge() of the four
    // sets' size is the accounting, so nothing double-counts.
    Liveness &LV = S.LV;
    LV.solve(Body);
    charge(4 * NumBlocks * uint64_t(LV.words()) * 8);
    endPhase(LloPhase::Liveness);

    // Loop depth is the structural frequency estimate (see
    // computeLoopDepths for why profile counts stay out of it).
    computeLoopDepths(Body, S.LoopDepth);
    const std::vector<uint32_t> &LoopDepth = S.LoopDepth;
    endPhase(LloPhase::Loops);

    // Linear positions in layout order.
    std::vector<uint32_t> &CallPositions = S.CallPositions;
    std::vector<double> &CallWeights = S.CallWeights;
    CallPositions.clear();
    CallWeights.clear();
    S.BlockFirstCall.resize(NumBlocks);
    uint32_t Pos = 2;
    std::vector<Interval> &Ivs = S.Ivs;
    Ivs.assign(NumVregs, Interval());
    charge(NumVregs * ChargedIntervalBytes + NumBlocks * 8);
    // Positions only grow, so the first position that touches V is its
    // Start and the latest its End.
    auto extend = [&](RegId V, uint32_t P2) {
      Interval &Iv = Ivs[V];
      if (Iv.Start == ~0u)
        Iv.Start = P2;
      Iv.End = P2;
    };
    // Positions are assigned in NATURAL block order, not layout order: an
    // interval assignment is valid for any emission order (locations are
    // per-routine), and natural order keeps loop intervals tight. Using the
    // profile layout here would stretch hot loop variables across the cold
    // blocks the layout sinks, spilling exactly the values PBO should keep
    // in registers.
    // Even/odd position numbering: an instruction at position P reads its
    // operands at P and writes its result at P+1. A call's result interval
    // therefore starts strictly after the call position, while any value
    // whose interval straddles a call position is genuinely live across it.
    for (BlockId B = 0; B != NumBlocks; ++B) {
      double DepthW = 1.0 + 3.0 * std::min<uint32_t>(LoopDepth[B], 8);
      S.BlockFirstCall[B] = static_cast<uint32_t>(CallPositions.size());
      LV.forEachLiveIn(B, [&](RegId V) { extend(V, Pos); });
      Pos += 2; // Block entry has its own position: a value live into a
                // block whose first instruction is a call must count as
                // crossing that call.
      for (const Instr *I : Body.Blocks[B].Instrs) {
        forEachUseReg(*I, [&](RegId V) {
          extend(V, Pos);
          Ivs[V].Weight += DepthW;
        });
        if (I->Dst != NoReg && definesValue(I->Op)) {
          extend(I->Dst, Pos + 1);
          Ivs[I->Dst].Weight += DepthW;
        }
        if (I->Op == Opcode::Call) {
          CallPositions.push_back(Pos);
          // The call's cost estimate uses the same scale as interval
          // weights, so wrap decisions compare like with like.
          CallWeights.push_back(DepthW);
        }
        Pos += 2;
      }
      LV.forEachLiveOut(B, [&](RegId V) { extend(V, Pos); });
      Pos += 2;
    }
    // Parameters are defined at function entry, before the first
    // instruction's position.
    for (RegId V = 0; V != Body.NumParams; ++V)
      if (Ivs[V].used())
        Ivs[V].Start = 1;
    endPhase(LloPhase::Intervals);

    // Linear-scan order: (Start, Vreg) ascending. A counting sort on Start
    // filled in ascending vreg order is stable, so it gives exactly that
    // order in time linear in vregs plus positions.
    std::vector<uint32_t> &Bucket = S.Bucket;
    Bucket.assign(Pos + 1, 0);
    uint32_t NumUsed = 0;
    for (const Interval &Iv : Ivs)
      if (Iv.used()) {
        ++Bucket[Iv.Start];
        ++NumUsed;
      }
    for (uint32_t At = 0, Sum = 0; At != Pos + 1; ++At) {
      uint32_t Count = Bucket[At];
      Bucket[At] = Sum;
      Sum += Count;
    }
    std::vector<RegId> &Order = S.Order;
    Order.resize(NumUsed);
    for (RegId V = 0; V != NumVregs; ++V)
      if (Ivs[V].used())
        Order[Bucket[Ivs[V].Start]++] = V;
    // Mark intervals live across a call: a call strictly inside (Start, End)
    // clobbers every caller-save register while the value must survive.
    // Starts ascend along Order, so one cursor finds each interval's first
    // call after its Start.
    const uint32_t NumCalls = static_cast<uint32_t>(CallPositions.size());
    uint32_t CallCursor = 0;
    for (RegId V : Order) {
      Interval &Iv = Ivs[V];
      while (CallCursor != NumCalls && CallPositions[CallCursor] <= Iv.Start)
        ++CallCursor;
      Iv.FirstCall = CallCursor;
      Iv.CrossesCall =
          CallCursor != NumCalls && CallPositions[CallCursor] < Iv.End;
    }
    endPhase(LloPhase::Sort);

    // Linear scan (Poletto-Sarkar) with profile-weighted spill choice.
    std::vector<Active> &ActiveList = S.ActiveList;
    ActiveList.clear();
    S.Wraps.clear();
    // Bit I set: CallerSaveRegs[I] / CalleeSaveRegs[I] is free.
    uint32_t CallerFree = (1u << NumCallerSave) - 1;
    uint32_t CalleeFree = (1u << NumCalleeSave) - 1;
    // No active interval ends before MinEnd (it may lag after an eviction,
    // which only costs one needless expire pass).
    uint32_t MinEnd = ~0u;

    auto takeFirst = [](uint32_t &Mask) {
      unsigned Bit = __builtin_ctz(Mask);
      Mask &= Mask - 1;
      return Bit;
    };
    auto freeReg = [&](uint8_t Reg) {
      if (Reg >= CalleeSaveRegs[0])
        CalleeFree |= 1u << (Reg - CalleeSaveRegs[0]);
      else
        CallerFree |= 1u << (Reg - CallerSaveRegs[0]);
    };
    auto assignSlot = [&](RegId V) {
      RegLoc[V].Known = true;
      RegLoc[V].InReg = false;
      RegLoc[V].Slot = NumSlots++;
      if (Stats)
        ++Stats->SpillsAllocated;
    };
    auto assignReg = [&](RegId V, const Interval &Iv, uint8_t Reg) {
      RegLoc[V].Known = true;
      RegLoc[V].InReg = true;
      RegLoc[V].Reg = Reg;
      ActiveList.push_back({Iv.End, V, Reg, Iv.Weight, Iv.CrossesCall});
      MinEnd = std::min(MinEnd, Iv.End);
      if (Reg >= CalleeSaveRegs[0])
        UsedCalleeSave |= 1u << (Reg - CalleeSaveRegs[0]);
      if (Stats)
        ++Stats->RegsAllocated;
    };
    // Takes ActiveList[Idx]'s register away; its value moves to a slot.
    auto evict = [&](size_t Idx) {
      Active Victim = ActiveList[Idx];
      ActiveList.erase(ActiveList.begin() + Idx);
      assignSlot(Victim.Vreg);
      return Victim.Reg;
    };

    for (RegId V : Order) {
      const Interval &Iv = Ivs[V];
      // Expire finished intervals, keeping the rest in insertion order (the
      // victim searches break weight ties by it).
      if (MinEnd < Iv.Start) {
        size_t Kept = 0;
        MinEnd = ~0u;
        for (const Active &A : ActiveList) {
          if (A.End < Iv.Start) {
            freeReg(A.Reg);
            continue;
          }
          MinEnd = std::min(MinEnd, A.End);
          ActiveList[Kept++] = A;
        }
        ActiveList.resize(Kept);
      }
      // Values live across a call need a callee-save register (preserved by
      // the convention), a caller-save register saved/restored around each
      // call they span (cheap when those calls are cold), or a stack slot.
      if (Iv.CrossesCall) {
        if (CalleeFree) {
          assignReg(V, Iv, CalleeSaveRegs[takeFirst(CalleeFree)]);
          continue;
        }
        // No preserved register left. If the calls this interval spans are
        // cold relative to its own uses, park it in a caller-save register
        // and wrap each spanned call with a save/restore pair: the cost
        // lands on the (cold) call path instead of every (hot) use. This is
        // what keeps hot loop values in registers when a never-executed
        // call site sits in the loop body.
        // The spanned calls are the positions in (Start, End): a
        // contiguous run of the ascending CallPositions, summed in order.
        auto spanned = [&](uint32_t C) {
          return C != NumCalls && CallPositions[C] < Iv.End;
        };
        double CrossedFreq = 0;
        for (uint32_t C = Iv.FirstCall; spanned(C); ++C)
          CrossedFreq += CallWeights[C];
        auto wrapInto = [&](uint8_t Reg) {
          uint32_t WrapSlot = NumSlots++;
          for (uint32_t C = Iv.FirstCall; spanned(C); ++C)
            S.Wraps.push_back({C, Reg, WrapSlot});
          assignReg(V, Iv, Reg);
        };
        double WrapCost = 4.0 * (CrossedFreq + 1.0);
        if (CallerFree && Iv.Weight > WrapCost) {
          wrapInto(CallerSaveRegs[takeFirst(CallerFree)]);
          continue;
        }
        if (!CallerFree && Iv.Weight > WrapCost) {
          // No caller-save register free either; evict the cheapest *plain*
          // caller-save occupant if the newcomer is worth strictly more than
          // the wrap overhead plus the victim's own spill cost.
          size_t DonorIdx = ActiveList.size();
          double DonorWeight = 0;
          for (size_t Idx = 0; Idx != ActiveList.size(); ++Idx) {
            const Active &Cand = ActiveList[Idx];
            if (Cand.CrossesCall || Cand.Reg >= CalleeSaveRegs[0])
              continue;
            if (DonorIdx == ActiveList.size() || Cand.Weight < DonorWeight) {
              DonorWeight = Cand.Weight;
              DonorIdx = Idx;
            }
          }
          if (DonorIdx != ActiveList.size() &&
              Iv.Weight > WrapCost + DonorWeight) {
            wrapInto(evict(DonorIdx));
            continue;
          }
        }
        // Evict a lighter cross-call occupant if the newcomer is hotter.
        // Only callee-save holders qualify as victims: a *wrapped* cross-call
        // occupant holds a caller-save register whose safety depends on its
        // own call-site save/restore pairs — handing that register to a
        // different interval would leave the newcomer's calls unwrapped.
        size_t VictimIdx = ActiveList.size();
        double VictimWeight = Iv.Weight;
        for (size_t Idx = 0; Idx != ActiveList.size(); ++Idx) {
          if (!ActiveList[Idx].CrossesCall ||
              ActiveList[Idx].Reg < CalleeSaveRegs[0])
            continue;
          if (ActiveList[Idx].Weight < VictimWeight) {
            VictimWeight = ActiveList[Idx].Weight;
            VictimIdx = Idx;
          }
        }
        if (VictimIdx == ActiveList.size()) {
          assignSlot(V);
          continue;
        }
        assignReg(V, Iv, evict(VictimIdx));
        continue;
      }
      // Plain interval: caller-save first, then spare callee-save.
      if (CallerFree) {
        assignReg(V, Iv, CallerSaveRegs[takeFirst(CallerFree)]);
        continue;
      }
      if (CalleeFree) {
        assignReg(V, Iv, CalleeSaveRegs[takeFirst(CalleeFree)]);
        continue;
      }
      // Pressure: spill the cheapest of (active + current) by loop-depth
      // weight. Only non-cross-call actives can donate a register the
      // newcomer may legally use.
      size_t VictimIdx = ActiveList.size();
      double VictimWeight = Iv.Weight;
      for (size_t Idx = 0; Idx != ActiveList.size(); ++Idx) {
        if (ActiveList[Idx].CrossesCall)
          continue;
        if (ActiveList[Idx].Weight < VictimWeight) {
          VictimWeight = ActiveList[Idx].Weight;
          VictimIdx = Idx;
        }
      }
      if (VictimIdx == ActiveList.size()) {
        assignSlot(V);
        continue;
      }
      assignReg(V, Iv, evict(VictimIdx));
    }
    // Reserve frame slots to save the callee-save registers this routine
    // uses; the prologue/epilogue use them.
    for (unsigned RI = 0; RI != NumCalleeSave; ++RI)
      if (UsedCalleeSave & (1u << RI))
        CalleeSaveSlot[RI] = NumSlots++;

    // Group the wraps by call, keeping assignment order within a call.
    Wrapped = !S.Wraps.empty();
    if (Wrapped) {
      S.WrapBegin.assign(NumCalls + 1, 0);
      for (const CallWrap &W : S.Wraps)
        ++S.WrapBegin[W.Call + 1];
      for (uint32_t C = 0; C != NumCalls; ++C)
        S.WrapBegin[C + 1] += S.WrapBegin[C];
      S.WrapsByCall.resize(S.Wraps.size());
      for (const CallWrap &W : S.Wraps)
        S.WrapsByCall[S.WrapBegin[W.Call]++] = W;
      for (uint32_t C = NumCalls; C != 0; --C)
        S.WrapBegin[C] = S.WrapBegin[C - 1];
      S.WrapBegin[0] = 0;
    }
    endPhase(LloPhase::Scan);
  }

  //===--------------------------------------------------------------------===
  // Emission
  //===--------------------------------------------------------------------===

  void emit(MInstr I) { Code.push_back(I); }

  /// Fetches an IL operand into a machine operand, reloading spilled values
  /// into \p Scratch.
  MOperand fetch(const Operand &O, uint8_t Scratch) {
    if (O.isImm())
      return MOperand::imm(O.asImm());
    assert(O.isReg() && "fetching a missing operand");
    const Loc &L = RegLoc[O.asReg()];
    assert(L.Known && "use of unallocated vreg");
    if (L.InReg)
      return MOperand::reg(L.Reg);
    MInstr Reload;
    Reload.Op = MOp::LoadSpill;
    Reload.Rd = Scratch;
    Reload.Slot = L.Slot;
    emit(Reload);
    return MOperand::reg(Scratch);
  }

  /// Returns the register a defining instruction should write, and queues a
  /// StoreSpill afterwards when the vreg lives in a slot.
  uint8_t dstReg(RegId V) {
    const Loc &L = RegLoc[V];
    assert(L.Known && "def of unallocated vreg");
    return L.InReg ? L.Reg : uint8_t(2);
  }

  void finishDst(RegId V) {
    const Loc &L = RegLoc[V];
    if (L.InReg)
      return;
    MInstr Spill;
    Spill.Op = MOp::StoreSpill;
    Spill.A = MOperand::reg(2);
    Spill.Slot = L.Slot;
    emit(Spill);
  }

  static MOp mopFor(Opcode Op) {
    switch (Op) {
    case Opcode::Add:
      return MOp::Add;
    case Opcode::Sub:
      return MOp::Sub;
    case Opcode::Mul:
      return MOp::Mul;
    case Opcode::Div:
      return MOp::Div;
    case Opcode::Rem:
      return MOp::Rem;
    case Opcode::CmpEq:
      return MOp::CmpEq;
    case Opcode::CmpNe:
      return MOp::CmpNe;
    case Opcode::CmpLt:
      return MOp::CmpLt;
    case Opcode::CmpLe:
      return MOp::CmpLe;
    case Opcode::CmpGt:
      return MOp::CmpGt;
    case Opcode::CmpGe:
      return MOp::CmpGe;
    default:
      scmo_unreachable("not a binary IL opcode");
    }
  }

  void emitPrologue() {
    for (unsigned RI = 0; RI != NumCalleeSave; ++RI) {
      if (!(UsedCalleeSave & (1u << RI)))
        continue;
      MInstr Save;
      Save.Op = MOp::StoreSpill;
      Save.A = MOperand::reg(CalleeSaveRegs[RI]);
      Save.Slot = CalleeSaveSlot[RI];
      emit(Save);
    }
    for (RegId V = 0; V != Body.NumParams; ++V) {
      const Loc &L = RegLoc[V];
      if (!L.Known)
        continue; // Unused parameter.
      uint8_t ArgReg = static_cast<uint8_t>(ArgRegBase + V);
      if (L.InReg) {
        MInstr MovI;
        MovI.Op = MOp::Mov;
        MovI.Rd = L.Reg;
        MovI.A = MOperand::reg(ArgReg);
        emit(MovI);
      } else {
        MInstr Spill;
        Spill.Op = MOp::StoreSpill;
        Spill.A = MOperand::reg(ArgReg);
        Spill.Slot = L.Slot;
        emit(Spill);
      }
    }
  }

  void emitAll() {
    size_t NumBlocks = Body.Blocks.size();
    std::vector<uint32_t> &BlockMachineStart = S.BlockMachineStart;
    std::vector<uint32_t> &RegionStarts = S.RegionStarts;
    BlockMachineStart.assign(NumBlocks, 0);
    RegionStarts.clear();
    S.Fixups.clear();
    Code.clear();
    // Emission averages about one machine instruction per IL instruction
    // (spill code and dropped jumps roughly cancel), plus the prologue.
    Code.reserve(Body.instrCount() + Body.NumParams + NumCalleeSave);

    for (size_t LIdx = 0; LIdx != Layout.size(); ++LIdx) {
      BlockId B = Layout[LIdx];
      BlockId NextB = LIdx + 1 < Layout.size() ? Layout[LIdx + 1] : InvalidId;
      BlockMachineStart[B] = static_cast<uint32_t>(Code.size());
      RegionStarts.push_back(static_cast<uint32_t>(Code.size()));
      if (Wrapped)
        NextCall = S.BlockFirstCall[B];
      if (LIdx == 0)
        emitPrologue();
      for (const Instr *I : Body.Blocks[B].Instrs)
        emitInstr(*I, NextB);
    }
    RegionStarts.push_back(static_cast<uint32_t>(Code.size()));
    for (auto &[MIdx, Target] : S.Fixups)
      Code[MIdx].Target = BlockMachineStart[Target];
  }

  void emitInstr(const Instr &I, BlockId NextB) {
    std::vector<std::pair<uint32_t, BlockId>> &Fixups = S.Fixups;
    auto branchTo = [&](MOp Op, MOperand Cond, BlockId Target,
                        uint32_t ProbeId) {
      MInstr BrI;
      BrI.Op = Op;
      BrI.A = Cond;
      BrI.Probe = ProbeId;
      Fixups.emplace_back(static_cast<uint32_t>(Code.size()), Target);
      emit(BrI);
    };
    switch (I.Op) {
    case Opcode::Mov: {
      MOperand Src = fetch(I.A, 0);
      const Loc &L = RegLoc[I.Dst];
      if (!L.Known)
        return; // Dead destination.
      if (L.InReg) {
        if (!Src.IsImm && Src.Reg == L.Reg)
          return;
        MInstr MovI;
        MovI.Op = MOp::Mov;
        MovI.Rd = L.Reg;
        MovI.A = Src;
        emit(MovI);
      } else {
        MInstr Spill;
        Spill.Op = MOp::StoreSpill;
        Spill.A = Src;
        Spill.Slot = L.Slot;
        emit(Spill);
      }
      return;
    }
    case Opcode::Neg: {
      if (!RegLoc[I.Dst].Known)
        return;
      MOperand Src = fetch(I.A, 0);
      MInstr NegI;
      NegI.Op = MOp::Neg;
      NegI.Rd = dstReg(I.Dst);
      NegI.A = Src;
      emit(NegI);
      finishDst(I.Dst);
      return;
    }
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Rem:
    case Opcode::CmpEq:
    case Opcode::CmpNe:
    case Opcode::CmpLt:
    case Opcode::CmpLe:
    case Opcode::CmpGt:
    case Opcode::CmpGe: {
      if (!RegLoc[I.Dst].Known)
        return;
      MOperand AOp = fetch(I.A, 0);
      MOperand BOp = fetch(I.B, 1);
      MInstr BinI;
      BinI.Op = mopFor(I.Op);
      BinI.Rd = dstReg(I.Dst);
      BinI.A = AOp;
      BinI.B = BOp;
      emit(BinI);
      finishDst(I.Dst);
      return;
    }
    case Opcode::LoadG: {
      if (!RegLoc[I.Dst].Known)
        return;
      MInstr LoadI;
      LoadI.Op = MOp::LoadG;
      LoadI.Rd = dstReg(I.Dst);
      LoadI.Sym = I.Sym;
      emit(LoadI);
      finishDst(I.Dst);
      return;
    }
    case Opcode::StoreG: {
      MInstr StoreI;
      StoreI.Op = MOp::StoreG;
      StoreI.A = fetch(I.A, 0);
      StoreI.Sym = I.Sym;
      emit(StoreI);
      return;
    }
    case Opcode::LoadIdx: {
      if (!RegLoc[I.Dst].Known)
        return;
      MOperand Idx = fetch(I.A, 0);
      MInstr LoadI;
      LoadI.Op = MOp::LoadIdx;
      LoadI.Rd = dstReg(I.Dst);
      LoadI.A = Idx;
      LoadI.Sym = I.Sym;
      emit(LoadI);
      finishDst(I.Dst);
      return;
    }
    case Opcode::StoreIdx: {
      MOperand Idx = fetch(I.A, 0);
      MOperand Val = fetch(I.B, 1);
      MInstr StoreI;
      StoreI.Op = MOp::StoreIdx;
      StoreI.A = Idx;
      StoreI.B = Val;
      StoreI.Sym = I.Sym;
      emit(StoreI);
      return;
    }
    case Opcode::Call: {
      // Caller-save wrapping: preserve registers whose intervals span this
      // call but were parked in caller-save registers (cold-call case).
      const CallWrap *Wrap = nullptr, *WrapEnd = nullptr;
      if (Wrapped) {
        uint32_t C = NextCall++;
        Wrap = S.WrapsByCall.data() + S.WrapBegin[C];
        WrapEnd = S.WrapsByCall.data() + S.WrapBegin[C + 1];
      }
      for (const CallWrap *W = Wrap; W != WrapEnd; ++W) {
        MInstr Save;
        Save.Op = MOp::StoreSpill;
        Save.A = MOperand::reg(W->Reg);
        Save.Slot = W->Slot;
        emit(Save);
      }
      for (unsigned A = 0; A != I.NumArgs; ++A) {
        uint8_t ArgReg = static_cast<uint8_t>(ArgRegBase + A);
        const Operand &Arg = I.Args[A];
        if (Arg.isReg() && !RegLoc[Arg.asReg()].InReg) {
          // Reload straight into the argument register: no scratch needed.
          MInstr Reload;
          Reload.Op = MOp::LoadSpill;
          Reload.Rd = ArgReg;
          Reload.Slot = RegLoc[Arg.asReg()].Slot;
          emit(Reload);
          continue;
        }
        MInstr MovI;
        MovI.Op = MOp::Mov;
        MovI.Rd = ArgReg;
        MovI.A = Arg.isImm() ? MOperand::imm(Arg.asImm())
                             : MOperand::reg(RegLoc[Arg.asReg()].Reg);
        emit(MovI);
      }
      MInstr CallI;
      CallI.Op = MOp::Call;
      CallI.Sym = I.Sym;
      emit(CallI);
      for (const CallWrap *W = Wrap; W != WrapEnd; ++W) {
        MInstr Restore;
        Restore.Op = MOp::LoadSpill;
        Restore.Rd = W->Reg;
        Restore.Slot = W->Slot;
        emit(Restore);
      }
      if (I.Dst != NoReg && RegLoc[I.Dst].Known) {
        const Loc &L = RegLoc[I.Dst];
        if (L.InReg) {
          MInstr MovI;
          MovI.Op = MOp::Mov;
          MovI.Rd = L.Reg;
          MovI.A = MOperand::reg(RetReg);
          emit(MovI);
        } else {
          MInstr Spill;
          Spill.Op = MOp::StoreSpill;
          Spill.A = MOperand::reg(RetReg);
          Spill.Slot = L.Slot;
          emit(Spill);
        }
      }
      return;
    }
    case Opcode::Ret: {
      MOperand Val = fetch(I.A, 0);
      MInstr MovI;
      MovI.Op = MOp::Mov;
      MovI.Rd = RetReg;
      MovI.A = Val;
      emit(MovI);
      for (unsigned RI = 0; RI != NumCalleeSave; ++RI) {
        if (!(UsedCalleeSave & (1u << RI)))
          continue;
        MInstr Restore;
        Restore.Op = MOp::LoadSpill;
        Restore.Rd = CalleeSaveRegs[RI];
        Restore.Slot = CalleeSaveSlot[RI];
        emit(Restore);
      }
      MInstr RetI;
      RetI.Op = MOp::Ret;
      emit(RetI);
      return;
    }
    case Opcode::Print: {
      MInstr PrintI;
      PrintI.Op = MOp::Print;
      PrintI.A = fetch(I.A, 0);
      emit(PrintI);
      return;
    }
    case Opcode::Probe: {
      MInstr ProbeI;
      ProbeI.Op = MOp::Probe;
      ProbeI.Probe = I.ProbeId;
      emit(ProbeI);
      return;
    }
    case Opcode::Jmp: {
      if (I.T1 == NextB)
        return;
      MInstr JmpI;
      JmpI.Op = MOp::Jmp;
      Fixups.emplace_back(static_cast<uint32_t>(Code.size()), I.T1);
      emit(JmpI);
      return;
    }
    case Opcode::Br: {
      MOperand Cond = fetch(I.A, 0);
      if (I.T1 == I.T2) {
        if (I.T1 != NextB) {
          MInstr JmpI;
          JmpI.Op = MOp::Jmp;
          Fixups.emplace_back(static_cast<uint32_t>(Code.size()), I.T1);
          emit(JmpI);
        }
        return;
      }
      if (I.ProbeId != InvalidId) {
        // Instrumented branch: the taken-counter must observe the IL taken
        // direction, so never invert.
        branchTo(MOp::Br, Cond, I.T1, I.ProbeId);
        if (I.T2 != NextB) {
          MInstr JmpI;
          JmpI.Op = MOp::Jmp;
          Fixups.emplace_back(static_cast<uint32_t>(Code.size()), I.T2);
          emit(JmpI);
        }
        return;
      }
      if (I.T2 == NextB) {
        branchTo(MOp::Br, Cond, I.T1, InvalidId);
        return;
      }
      if (I.T1 == NextB) {
        branchTo(MOp::Brz, Cond, I.T2, InvalidId);
        return;
      }
      branchTo(MOp::Br, Cond, I.T1, InvalidId);
      MInstr JmpI;
      JmpI.Op = MOp::Jmp;
      Fixups.emplace_back(static_cast<uint32_t>(Code.size()), I.T2);
      emit(JmpI);
      return;
    }
    case Opcode::Nop:
      return;
    }
    scmo_unreachable("invalid opcode in emission");
  }

  //===--------------------------------------------------------------------===
  // Scheduling
  //===--------------------------------------------------------------------===

  /// Reorders instructions within straight-line regions so that loads issue
  /// early and their consumers move away from them (hiding the VM's load-use
  /// stall). Regions are delimited by block starts and control instructions.
  void scheduleAll() {
    const std::vector<uint32_t> &Starts = S.RegionStarts;
    size_t RegionBegin = 0, NextStart = 0;
    for (size_t Idx = 0; Idx <= Code.size(); ++Idx) {
      // Block starts ascend, so a cursor tracks the next one at or past Idx.
      while (NextStart != Starts.size() && Starts[NextStart] < Idx)
        ++NextStart;
      bool Boundary = Idx == Code.size() || (opFlags(Code[Idx].Op) & ControlOp) ||
                      (NextStart != Starts.size() && Starts[NextStart] == Idx);
      if (!Boundary)
        continue;
      size_t N = Idx - RegionBegin;
      if (N > 2) {
        // The region's dependence DAG, charged at the all-pairs size —
        // quadratic in region size, the concrete source of LLO's
        // superlinear memory noted in Figure 4's caption — while the
        // region is scheduled.
        uint64_t DagBytes = N * N / 8 + N * 16;
        charge(DagBytes);
        uint64_t Moves = scheduleRegion(Code.data() + RegionBegin, N);
        if (Stats)
          Stats->ScheduleMoves += Moves;
        uncharge(DagBytes);
      }
      RegionBegin = Idx + 1;
    }
  }

  Program &P;
  RoutineId R;
  const RoutineBody &Body;
  LloOptions Opts;
  LloStats *Stats;
  MemoryTracker *Tracker;
  LloScratch &S;
  /// Live LLO charge of this routine, and its running maximum.
  uint64_t Charged = 0;
  uint64_t PeakCharged = 0;
  Clock::time_point PhaseStart;

  std::vector<BlockId> &Layout;
  std::vector<Loc> &RegLoc;
  /// The routine's instructions while it is lowered: laid out, allocated
  /// and scheduled here, then encoded into Out.Code.
  std::vector<MInstr> &Code;
  uint32_t NumSlots = 0;
  /// Bit RI set: CalleeSaveRegs[RI] is used and saved in CalleeSaveSlot[RI].
  uint32_t UsedCalleeSave = 0;
  uint32_t CalleeSaveSlot[NumCalleeSave] = {};
  /// True when the scan wrapped a call: S.WrapBegin and S.BlockFirstCall
  /// then hold this routine's tables (the scratch may hold an earlier
  /// routine's otherwise).
  bool Wrapped = false;
  /// Ordinal of the next call emission reaches (when Wrapped).
  uint32_t NextCall = 0;
  MachineRoutine Out;
};

} // namespace

// Loop depth is the classic static stand-in for execution frequency. The
// paper's LLO let PBO "improve the cost model for register allocation" with
// real counts; here count-augmented weights lost to loop depth under the
// greedy linear-scan victim policy, so spill weights stay structural.
void scmo::computeLoopDepths(const RoutineBody &Body,
                             std::vector<uint32_t> &Depth) {
  size_t NumBlocks = Body.Blocks.size();
  Depth.assign(NumBlocks, 0);
  if (NumBlocks == 0)
    return;

  struct Frame {
    BlockId B;
    unsigned NextSucc;
  };
  struct Scratch {
    std::vector<uint8_t> Color;
    std::vector<std::pair<BlockId, BlockId>> BackEdges;
    std::vector<Frame> Stack;
    std::vector<uint32_t> PredBegin;
    std::vector<BlockId> Preds;
    std::vector<uint32_t> Stamp;
    std::vector<BlockId> Work;
  };
  thread_local Scratch S;

  auto successors = [&](BlockId B, BlockId Out[2]) -> unsigned {
    unsigned N = 0;
    forEachSucc(Body.Blocks[B], [&](BlockId T) { Out[N++] = T; });
    return N;
  };

  // Iterative DFS collecting back edges.
  enum : uint8_t { White, Grey, Black };
  S.Color.assign(NumBlocks, White);
  S.BackEdges.clear();
  S.Stack.clear();
  S.Stack.push_back({0, 0});
  S.Color[0] = Grey;
  while (!S.Stack.empty()) {
    Frame &F = S.Stack.back();
    BlockId Succs[2];
    unsigned N = successors(F.B, Succs);
    if (F.NextSucc >= N) {
      S.Color[F.B] = Black;
      S.Stack.pop_back();
      continue;
    }
    BlockId Succ = Succs[F.NextSucc++];
    if (S.Color[Succ] == Grey)
      S.BackEdges.emplace_back(F.B, Succ); // Latch -> header.
    else if (S.Color[Succ] == White) {
      S.Color[Succ] = Grey;
      S.Stack.push_back({Succ, 0});
    }
  }
  if (S.BackEdges.empty())
    return;

  buildPredecessors(Body, S.PredBegin, S.Preds);

  // One backward walk per back edge from the latch, stopping at the header.
  // Stamp[B] == the back edge's number marks the blocks this loop already
  // holds, so a walk touches only its own loop and never clears anything.
  S.Stamp.assign(NumBlocks, 0);
  uint32_t Loop = 0;
  for (const auto &[Latch, Header] : S.BackEdges) {
    ++Loop;
    S.Stamp[Header] = Loop;
    ++Depth[Header];
    S.Work.clear();
    if (S.Stamp[Latch] != Loop) {
      S.Stamp[Latch] = Loop;
      ++Depth[Latch];
      S.Work.push_back(Latch);
    }
    while (!S.Work.empty()) {
      BlockId B = S.Work.back();
      S.Work.pop_back();
      for (uint32_t E = S.PredBegin[B]; E != S.PredBegin[B + 1]; ++E) {
        BlockId Pred = S.Preds[E];
        if (S.Stamp[Pred] != Loop) {
          S.Stamp[Pred] = Loop;
          ++Depth[Pred];
          S.Work.push_back(Pred);
        }
      }
    }
  }
}

MachineRoutine scmo::lowerRoutine(Program &P, RoutineId R,
                                  const RoutineBody &Body,
                                  const LloOptions &Opts, LloStats *Stats) {
  thread_local LloScratch S;
  return RoutineLowering(P, R, Body, Opts, Stats, S).run();
}
