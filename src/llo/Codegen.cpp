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
#include <map>

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

/// Where a virtual register lives after allocation.
struct Loc {
  bool Known = false;
  bool InReg = false;
  uint8_t Reg = 0;
  uint32_t Slot = 0;
};

/// A live interval over linearized positions.
struct Interval {
  RegId Vreg = NoReg;
  uint32_t Start = ~0u;
  uint32_t End = 0;
  double Weight = 0.0;
  bool CrossesCall = false;
  bool used() const { return Start <= End; }
};

/// Computes the loop nesting depth of every block: DFS finds back edges;
/// each back edge (Latch -> Header) defines a natural loop whose body is
/// everything that reaches the latch without passing the header. Loop depth
/// is the classic static stand-in for execution frequency. The paper's LLO
/// let PBO "improve the cost model for register allocation" with real
/// counts; here count-augmented weights lost to loop depth under the greedy
/// linear-scan victim policy, so spill weights stay structural.
std::vector<uint32_t> computeLoopDepths(const RoutineBody &Body) {
  size_t NumBlocks = Body.Blocks.size();
  std::vector<uint32_t> Depth(NumBlocks, 0);
  if (NumBlocks == 0)
    return Depth;

  auto successors = [&](BlockId B, BlockId Out[2]) -> unsigned {
    const Instr *Term = Body.Blocks[B].terminator();
    if (!Term)
      return 0;
    if (Term->Op == Opcode::Jmp) {
      Out[0] = Term->T1;
      return 1;
    }
    if (Term->Op == Opcode::Br) {
      Out[0] = Term->T1;
      Out[1] = Term->T2;
      return 2;
    }
    return 0;
  };

  // Iterative DFS collecting back edges.
  enum : uint8_t { White, Grey, Black };
  std::vector<uint8_t> Color(NumBlocks, White);
  std::vector<std::pair<BlockId, BlockId>> BackEdges;
  struct Frame {
    BlockId B;
    unsigned NextSucc;
  };
  std::vector<Frame> Stack;
  Stack.push_back({0, 0});
  Color[0] = Grey;
  while (!Stack.empty()) {
    Frame &F = Stack.back();
    BlockId Succs[2];
    unsigned N = successors(F.B, Succs);
    if (F.NextSucc >= N) {
      Color[F.B] = Black;
      Stack.pop_back();
      continue;
    }
    BlockId S = Succs[F.NextSucc++];
    if (Color[S] == Grey)
      BackEdges.emplace_back(F.B, S); // Latch -> header.
    else if (Color[S] == White) {
      Color[S] = Grey;
      Stack.push_back({S, 0});
    }
  }

  // Predecessor lists for the loop body walks.
  std::vector<std::vector<BlockId>> Preds(NumBlocks);
  for (BlockId B = 0; B != NumBlocks; ++B) {
    BlockId Succs[2];
    unsigned N = successors(B, Succs);
    for (unsigned S = 0; S != N; ++S)
      Preds[Succs[S]].push_back(B);
  }
  for (const auto &[Latch, Header] : BackEdges) {
    std::vector<bool> InLoop(NumBlocks, false);
    InLoop[Header] = true;
    std::vector<BlockId> Work;
    if (!InLoop[Latch]) {
      InLoop[Latch] = true;
      Work.push_back(Latch);
    }
    while (!Work.empty()) {
      BlockId B = Work.back();
      Work.pop_back();
      for (BlockId Pred : Preds[B])
        if (!InLoop[Pred]) {
          InLoop[Pred] = true;
          Work.push_back(Pred);
        }
    }
    for (BlockId B = 0; B != NumBlocks; ++B)
      if (InLoop[B])
        ++Depth[B];
  }
  return Depth;
}

/// Drives the lowering of one routine.
class RoutineLowering {
public:
  RoutineLowering(Program &P, RoutineId R, const RoutineBody &Body,
                  const LloOptions &Opts, LloStats *Stats)
      : P(P), R(R), Body(Body), Opts(Opts), Stats(Stats),
        Tracker(P.tracker()), Code(CodeScratch) {
    Code.clear();
  }

  ~RoutineLowering() {
    if (Tracker && Charged)
      Tracker->release(MemCategory::Llo, Charged);
  }

  MachineRoutine run() {
    computeLayout();
    if (Opts.RegAlloc)
      allocateRegisters();
    else
      spillEverything();
    emitAll();
    // The MInstr working vector is per-thread scratch; it counts against
    // LLO only while this routine is being lowered.
    charge(Code.size() * sizeof(MInstr));
    if (Opts.Schedule)
      scheduleAll();
    thread_local std::vector<uint8_t> Bytes;
    Bytes.clear();
    for (const MInstr &I : Code)
      encodeMInstr(Bytes, I);
    Out.Code.assign(Bytes.begin(), Bytes.end());
    Out.NumInstrs = static_cast<uint32_t>(Code.size());
    if (Stats) {
      ++Stats->RoutinesLowered;
      if (Charged > Stats->PeakRoutineBytes)
        Stats->PeakRoutineBytes = Charged;
    }
    Out.Routine = R;
    Out.Name = P.displayName(R);
    Out.SpillSlots = NumSlots;
    Out.EntryFreq = Body.entryFreq();
    Out.SourceLines = Body.SourceLines;
    return std::move(Out);
  }

private:
  void charge(uint64_t Bytes) {
    Charged += Bytes;
    if (Tracker)
      Tracker->allocate(MemCategory::Llo, Bytes);
  }

  //===--------------------------------------------------------------------===
  // Block layout
  //===--------------------------------------------------------------------===

  void computeLayout() {
    size_t NumBlocks = Body.Blocks.size();
    std::vector<bool> Placed(NumBlocks, false);
    Layout.reserve(NumBlocks);
    bool UseProfile = Opts.ProfileLayout && Body.HasProfile;
    if (!UseProfile) {
      for (BlockId B = 0; B != NumBlocks; ++B)
        Layout.push_back(B);
      return;
    }
    // Greedy hot-path chaining: follow the heavier outgoing edge while its
    // target is unplaced; then restart the chain from the hottest remaining
    // block. Cold blocks sink to the end (deterministic id tie-break).
    auto place = [&](BlockId B) {
      Layout.push_back(B);
      Placed[B] = true;
    };
    std::vector<BlockId> Seeds(NumBlocks);
    for (BlockId B = 0; B != NumBlocks; ++B)
      Seeds[B] = B;
    std::stable_sort(Seeds.begin(), Seeds.end(), [&](BlockId X, BlockId Y) {
      return Body.Blocks[X].Freq > Body.Blocks[Y].Freq;
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
    thread_local Liveness LV;
    LV.solve(Body);
    charge(4 * NumBlocks * uint64_t(LV.words()) * 8);

    // Linear positions in layout order.
    std::vector<uint32_t> CallPositions;
    std::vector<double> CallWeights;
    std::vector<const Instr *> CallInstrs;
    uint32_t Pos = 2;
    std::vector<Interval> Ivs(NumVregs);
    charge(NumVregs * sizeof(Interval) + NumBlocks * 8);
    for (uint32_t V = 0; V != NumVregs; ++V)
      Ivs[V].Vreg = V;
    auto extend = [&](RegId V, uint32_t P2) {
      Ivs[V].Start = std::min(Ivs[V].Start, P2);
      Ivs[V].End = std::max(Ivs[V].End, P2);
    };
    // Loop depth is the structural frequency estimate (see
    // computeLoopDepths for why profile counts stay out of it).
    std::vector<uint32_t> LoopDepth = computeLoopDepths(Body);
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
          CallInstrs.push_back(I);
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
        extend(V, 1);

    // Mark intervals live across a call: a call strictly inside (Start, End)
    // clobbers every caller-save register while the value must survive.
    for (Interval &Iv : Ivs) {
      if (!Iv.used())
        continue;
      auto It = std::upper_bound(CallPositions.begin(), CallPositions.end(),
                                 Iv.Start);
      if (It != CallPositions.end() && *It < Iv.End)
        Iv.CrossesCall = true;
    }

    // Linear scan (Poletto-Sarkar) with profile-weighted spill choice.
    std::vector<Interval *> Order;
    Order.reserve(NumVregs);
    for (Interval &Iv : Ivs)
      if (Iv.used())
        Order.push_back(&Iv);
    std::sort(Order.begin(), Order.end(), [](Interval *X, Interval *Y) {
      if (X->Start != Y->Start)
        return X->Start < Y->Start;
      return X->Vreg < Y->Vreg;
    });

    struct Active {
      uint32_t End;
      RegId Vreg;
      uint8_t Reg;
      double Weight;
      bool CrossesCall;
    };
    std::vector<Active> ActiveList;
    bool CallerFree[NumCallerSave];
    bool CalleeFree[NumCalleeSave];
    std::fill(std::begin(CallerFree), std::end(CallerFree), true);
    std::fill(std::begin(CalleeFree), std::end(CalleeFree), true);

    auto freeReg = [&](uint8_t Reg) {
      for (unsigned RI = 0; RI != NumCallerSave; ++RI)
        if (CallerSaveRegs[RI] == Reg)
          CallerFree[RI] = true;
      for (unsigned RI = 0; RI != NumCalleeSave; ++RI)
        if (CalleeSaveRegs[RI] == Reg)
          CalleeFree[RI] = true;
    };
    auto assignSlot = [&](RegId V) {
      RegLoc[V].Known = true;
      RegLoc[V].InReg = false;
      RegLoc[V].Slot = NumSlots++;
      if (Stats)
        ++Stats->SpillsAllocated;
    };
    auto assignReg = [&](Interval *Iv, uint8_t Reg) {
      RegLoc[Iv->Vreg].Known = true;
      RegLoc[Iv->Vreg].InReg = true;
      RegLoc[Iv->Vreg].Reg = Reg;
      ActiveList.push_back({Iv->End, Iv->Vreg, Reg, Iv->Weight,
                            Iv->CrossesCall});
      for (unsigned RI = 0; RI != NumCalleeSave; ++RI)
        if (CalleeSaveRegs[RI] == Reg)
          UsedCalleeSave[RI] = true;
      if (Stats)
        ++Stats->RegsAllocated;
    };

    for (Interval *Iv : Order) {
      // Expire finished intervals.
      for (size_t Idx = 0; Idx != ActiveList.size();) {
        if (ActiveList[Idx].End < Iv->Start) {
          freeReg(ActiveList[Idx].Reg);
          ActiveList.erase(ActiveList.begin() + Idx);
        } else {
          ++Idx;
        }
      }
      // Values live across a call need a callee-save register (preserved by
      // the convention), a caller-save register saved/restored around each
      // call they span (cheap when those calls are cold), or a stack slot.
      if (Iv->CrossesCall) {
        int FreeIdx = -1;
        for (unsigned RI = 0; RI != NumCalleeSave; ++RI)
          if (CalleeFree[RI]) {
            FreeIdx = static_cast<int>(RI);
            break;
          }
        if (FreeIdx >= 0) {
          CalleeFree[FreeIdx] = false;
          assignReg(Iv, CalleeSaveRegs[FreeIdx]);
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
        const size_t FirstCall =
            std::upper_bound(CallPositions.begin(), CallPositions.end(),
                             Iv->Start) -
            CallPositions.begin();
        auto spanned = [&](size_t C) {
          return C != CallPositions.size() && CallPositions[C] < Iv->End;
        };
        double CrossedFreq = 0;
        for (size_t C = FirstCall; spanned(C); ++C)
          CrossedFreq += CallWeights[C];
        auto wrapInto = [&](uint8_t Reg) {
          uint32_t WrapSlot = NumSlots++;
          for (size_t C = FirstCall; spanned(C); ++C)
            CallWraps[CallInstrs[C]].emplace_back(Reg, WrapSlot);
          assignReg(Iv, Reg);
        };
        double WrapCost = 4.0 * (CrossedFreq + 1.0);
        int FreeCaller = -1;
        for (unsigned RI = 0; RI != NumCallerSave; ++RI)
          if (CallerFree[RI]) {
            FreeCaller = static_cast<int>(RI);
            break;
          }
        if (FreeCaller >= 0 && Iv->Weight > WrapCost) {
          CallerFree[FreeCaller] = false;
          wrapInto(CallerSaveRegs[FreeCaller]);
          continue;
        }
        if (FreeCaller < 0 && Iv->Weight > WrapCost) {
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
              Iv->Weight > WrapCost + DonorWeight) {
            Active Donor = ActiveList[DonorIdx];
            ActiveList.erase(ActiveList.begin() + DonorIdx);
            RegLoc[Donor.Vreg].Known = true;
            RegLoc[Donor.Vreg].InReg = false;
            RegLoc[Donor.Vreg].Slot = NumSlots++;
            if (Stats)
              ++Stats->SpillsAllocated;
            wrapInto(Donor.Reg);
            continue;
          }
        }
        // Evict a lighter cross-call occupant if the newcomer is hotter.
        // Only callee-save holders qualify as victims: a *wrapped* cross-call
        // occupant holds a caller-save register whose safety depends on its
        // own call-site save/restore pairs — handing that register to a
        // different interval would leave the newcomer's calls unwrapped.
        size_t VictimIdx = ActiveList.size();
        double VictimWeight = Iv->Weight;
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
          assignSlot(Iv->Vreg);
          continue;
        }
        Active Victim = ActiveList[VictimIdx];
        ActiveList.erase(ActiveList.begin() + VictimIdx);
        RegLoc[Victim.Vreg].Known = true;
        RegLoc[Victim.Vreg].InReg = false;
        RegLoc[Victim.Vreg].Slot = NumSlots++;
        if (Stats)
          ++Stats->SpillsAllocated;
        assignReg(Iv, Victim.Reg);
        continue;
      }
      // Plain interval: caller-save first, then spare callee-save.
      int FreeIdx = -1;
      for (unsigned RI = 0; RI != NumCallerSave; ++RI)
        if (CallerFree[RI]) {
          FreeIdx = static_cast<int>(RI);
          break;
        }
      if (FreeIdx >= 0) {
        CallerFree[FreeIdx] = false;
        assignReg(Iv, CallerSaveRegs[FreeIdx]);
        continue;
      }
      for (unsigned RI = 0; RI != NumCalleeSave; ++RI)
        if (CalleeFree[RI]) {
          FreeIdx = static_cast<int>(RI);
          break;
        }
      if (FreeIdx >= 0) {
        CalleeFree[FreeIdx] = false;
        assignReg(Iv, CalleeSaveRegs[FreeIdx]);
        continue;
      }
      // Pressure: spill the cheapest of (active + current) by loop-depth
      // weight. Only non-cross-call actives can donate a register the
      // newcomer may legally use.
      size_t VictimIdx = ActiveList.size();
      double VictimWeight = Iv->Weight;
      for (size_t Idx = 0; Idx != ActiveList.size(); ++Idx) {
        if (ActiveList[Idx].CrossesCall)
          continue;
        if (ActiveList[Idx].Weight < VictimWeight) {
          VictimWeight = ActiveList[Idx].Weight;
          VictimIdx = Idx;
        }
      }
      if (VictimIdx == ActiveList.size()) {
        assignSlot(Iv->Vreg);
        continue;
      }
      Active Victim = ActiveList[VictimIdx];
      ActiveList.erase(ActiveList.begin() + VictimIdx);
      RegLoc[Victim.Vreg].Known = true;
      RegLoc[Victim.Vreg].InReg = false;
      RegLoc[Victim.Vreg].Slot = NumSlots++;
      if (Stats)
        ++Stats->SpillsAllocated;
      assignReg(Iv, Victim.Reg);
    }
    // Reserve frame slots to save the callee-save registers this routine
    // uses; the prologue/epilogue use them.
    for (unsigned RI = 0; RI != NumCalleeSave; ++RI)
      if (UsedCalleeSave[RI])
        CalleeSaveSlot[RI] = NumSlots++;
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
      if (!UsedCalleeSave[RI])
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
    BlockMachineStart.assign(NumBlocks, 0);
    std::vector<std::pair<uint32_t, BlockId>> Fixups;
    // Emission averages about one machine instruction per IL instruction
    // (spill code and dropped jumps roughly cancel), plus the prologue.
    Code.reserve(Body.instrCount() + Body.NumParams + NumCalleeSave);

    for (size_t LIdx = 0; LIdx != Layout.size(); ++LIdx) {
      BlockId B = Layout[LIdx];
      BlockId NextB = LIdx + 1 < Layout.size() ? Layout[LIdx + 1] : InvalidId;
      BlockMachineStart[B] = static_cast<uint32_t>(Code.size());
      RegionStarts.push_back(static_cast<uint32_t>(Code.size()));
      if (LIdx == 0)
        emitPrologue();
      for (const Instr *I : Body.Blocks[B].Instrs)
        emitInstr(*I, NextB, Fixups);
    }
    RegionStarts.push_back(static_cast<uint32_t>(Code.size()));
    for (auto &[MIdx, Target] : Fixups)
      Code[MIdx].Target = BlockMachineStart[Target];
  }

  void emitInstr(const Instr &I, BlockId NextB,
                 std::vector<std::pair<uint32_t, BlockId>> &Fixups) {
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
      auto WrapIt = CallWraps.find(&I);
      if (WrapIt != CallWraps.end())
        for (const auto &[Reg, Slot] : WrapIt->second) {
          MInstr Save;
          Save.Op = MOp::StoreSpill;
          Save.A = MOperand::reg(Reg);
          Save.Slot = Slot;
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
      if (WrapIt != CallWraps.end())
        for (const auto &[Reg, Slot] : WrapIt->second) {
          MInstr Restore;
          Restore.Op = MOp::LoadSpill;
          Restore.Rd = Reg;
          Restore.Slot = Slot;
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
        if (!UsedCalleeSave[RI])
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

  static bool isLoad(MOp Op) {
    return Op == MOp::LoadG || Op == MOp::LoadIdx || Op == MOp::LoadSpill;
  }

  static bool isControl(MOp Op) {
    return Op == MOp::Jmp || Op == MOp::Br || Op == MOp::Brz ||
           Op == MOp::Ret || Op == MOp::Call || Op == MOp::Halt;
  }

  static bool writesRd(MOp Op) {
    switch (Op) {
    case MOp::Mov:
    case MOp::Add:
    case MOp::Sub:
    case MOp::Mul:
    case MOp::Div:
    case MOp::Rem:
    case MOp::Neg:
    case MOp::CmpEq:
    case MOp::CmpNe:
    case MOp::CmpLt:
    case MOp::CmpLe:
    case MOp::CmpGt:
    case MOp::CmpGe:
    case MOp::LoadG:
    case MOp::LoadIdx:
    case MOp::LoadSpill:
      return true;
    default:
      return false;
    }
  }

  /// Reorders instructions within straight-line regions so that loads issue
  /// early and their consumers move away from them (hiding the VM's load-use
  /// stall). Regions are delimited by block starts and control instructions.
  void scheduleAll() {
    size_t RegionBegin = 0;
    for (size_t Idx = 0; Idx <= Code.size(); ++Idx) {
      bool Boundary =
          Idx == Code.size() || isControl(Code[Idx].Op) ||
          std::binary_search(RegionStarts.begin(), RegionStarts.end(),
                             static_cast<uint32_t>(Idx));
      if (!Boundary)
        continue;
      if (Idx - RegionBegin > 2)
        scheduleRegion(RegionBegin, Idx);
      RegionBegin = Idx + 1;
    }
  }

  /// The scheduler's per-region working set. It lives as long as the
  /// worker thread, so regions after the largest one allocate nothing.
  struct ScheduleScratch {
    std::vector<MInstr> Orig;
    /// Dependence DAG in CSR form: the successors of I, ascending, are
    /// Succs[SuccBegin[I], SuccBegin[I + 1]).
    std::vector<uint32_t> SuccBegin;
    std::vector<uint32_t> Succs;
    std::vector<uint32_t> InDeg;
    /// Ready instructions, kept sorted by original index.
    std::vector<uint32_t> Ready;
  };

  void scheduleRegion(size_t Begin, size_t End) {
    thread_local ScheduleScratch S;
    size_t N = End - Begin;
    S.Orig.assign(Code.begin() + Begin, Code.begin() + End);
    const std::vector<MInstr> &Orig = S.Orig;
    // Dependence DAG. Quadratic in region size — the concrete source of
    // LLO's superlinear memory noted in Figure 4's caption.
    charge(N * N / 8 + N * 16);

    auto readsReg = [](const MInstr &I, uint8_t Reg) {
      if (!I.A.IsImm && usesA(I) && I.A.Reg == Reg)
        return true;
      if (!I.B.IsImm && usesB(I) && I.B.Reg == Reg)
        return true;
      return false;
    };
    auto conflicts = [&](const MInstr &X, const MInstr &Y) {
      // X before Y in original order; must Y stay after X?
      if (writesRd(X.Op) && (readsReg(Y, X.Rd) ||
                             (writesRd(Y.Op) && Y.Rd == X.Rd)))
        return true;
      if (writesRd(Y.Op) && readsReg(X, Y.Rd))
        return true;
      bool XMem = isMemOp(X.Op), YMem = isMemOp(Y.Op);
      if (XMem && YMem) {
        bool XStore = isStoreOp(X.Op), YStore = isStoreOp(Y.Op);
        if (XStore || YStore) {
          // Distinct spill slots never alias; everything else is
          // conservatively ordered.
          bool BothSpill = isSpillOp(X.Op) && isSpillOp(Y.Op);
          if (!BothSpill || X.Slot == Y.Slot)
            return true;
        }
      }
      if (X.Op == MOp::Print && Y.Op == MOp::Print)
        return true;
      return false;
    };
    S.SuccBegin.resize(N + 1);
    S.Succs.clear();
    S.InDeg.assign(N, 0);
    for (size_t I2 = 0; I2 != N; ++I2) {
      S.SuccBegin[I2] = static_cast<uint32_t>(S.Succs.size());
      for (size_t J = I2 + 1; J != N; ++J)
        if (conflicts(Orig[I2], Orig[J])) {
          S.Succs.push_back(static_cast<uint32_t>(J));
          ++S.InDeg[J];
        }
    }
    S.SuccBegin[N] = static_cast<uint32_t>(S.Succs.size());

    // Greedy list schedule: avoid issuing a consumer right after its load.
    // Picks are written straight back over the region; Orig keeps the
    // original order.
    std::vector<uint32_t> &Ready = S.Ready;
    Ready.clear();
    for (uint32_t I2 = 0; I2 != N; ++I2)
      if (S.InDeg[I2] == 0)
        Ready.push_back(I2);
    int LastLoadRd = -1;
    uint64_t Moves = 0;
    size_t Placed = 0;
    while (!Ready.empty()) {
      size_t PickIdx = 0;
      bool Found = false;
      // First choice: an instruction that does not consume the just-issued
      // load's result; prefer loads to get them in flight early.
      for (size_t Pass = 0; Pass != 2 && !Found; ++Pass) {
        for (size_t Idx = 0; Idx != Ready.size(); ++Idx) {
          const MInstr &C = Orig[Ready[Idx]];
          bool Stalls = LastLoadRd >= 0 &&
                        readsReg(C, static_cast<uint8_t>(LastLoadRd));
          if (Stalls)
            continue;
          if (Pass == 0 && !isLoad(C.Op))
            continue;
          PickIdx = Idx;
          Found = true;
          break;
        }
      }
      if (!Found)
        PickIdx = 0; // Everything stalls; take the earliest.
      uint32_t Chosen = Ready[PickIdx];
      Ready.erase(Ready.begin() + PickIdx);
      if (Chosen != Placed)
        ++Moves;
      const MInstr &C = Orig[Chosen];
      LastLoadRd = isLoad(C.Op) ? C.Rd : -1;
      Code[Begin + Placed++] = C;
      for (uint32_t E = S.SuccBegin[Chosen]; E != S.SuccBegin[Chosen + 1];
           ++E) {
        uint32_t Succ = S.Succs[E];
        if (--S.InDeg[Succ] == 0)
          Ready.insert(std::upper_bound(Ready.begin(), Ready.end(), Succ),
                       Succ);
      }
    }
    assert(Placed == N && "scheduler dropped instructions");
    if (Stats)
      Stats->ScheduleMoves += Moves;
  }

  static bool usesA(const MInstr &I) {
    switch (I.Op) {
    case MOp::Mov:
    case MOp::Add:
    case MOp::Sub:
    case MOp::Mul:
    case MOp::Div:
    case MOp::Rem:
    case MOp::Neg:
    case MOp::CmpEq:
    case MOp::CmpNe:
    case MOp::CmpLt:
    case MOp::CmpLe:
    case MOp::CmpGt:
    case MOp::CmpGe:
    case MOp::StoreG:
    case MOp::LoadIdx:
    case MOp::StoreIdx:
    case MOp::StoreSpill:
    case MOp::Br:
    case MOp::Brz:
    case MOp::Print:
      return true;
    default:
      return false;
    }
  }

  static bool usesB(const MInstr &I) {
    switch (I.Op) {
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
    case MOp::StoreIdx:
      return true;
    default:
      return false;
    }
  }

  static bool isMemOp(MOp Op) {
    return Op == MOp::LoadG || Op == MOp::StoreG || Op == MOp::LoadIdx ||
           Op == MOp::StoreIdx || Op == MOp::LoadSpill ||
           Op == MOp::StoreSpill;
  }

  static bool isStoreOp(MOp Op) {
    return Op == MOp::StoreG || Op == MOp::StoreIdx || Op == MOp::StoreSpill;
  }

  static bool isSpillOp(MOp Op) {
    return Op == MOp::LoadSpill || Op == MOp::StoreSpill;
  }

  Program &P;
  RoutineId R;
  const RoutineBody &Body;
  LloOptions Opts;
  LloStats *Stats;
  MemoryTracker *Tracker;
  uint64_t Charged = 0;

  std::vector<BlockId> Layout;
  std::vector<Loc> RegLoc;
  uint32_t NumSlots = 0;
  /// Per call instruction: caller-save (reg, slot) pairs to save/restore.
  std::map<const Instr *, std::vector<std::pair<uint8_t, uint32_t>>>
      CallWraps;
  bool UsedCalleeSave[NumCalleeSave] = {};
  uint32_t CalleeSaveSlot[NumCalleeSave] = {};
  MachineRoutine Out;
  /// The routine's instructions while it is lowered: laid out, allocated
  /// and scheduled here, then encoded into Out.Code.
  static thread_local std::vector<MInstr> CodeScratch;
  std::vector<MInstr> &Code;
  std::vector<uint32_t> BlockMachineStart;
  std::vector<uint32_t> RegionStarts;
};

thread_local std::vector<MInstr> RoutineLowering::CodeScratch;

} // namespace

MachineRoutine scmo::lowerRoutine(Program &P, RoutineId R,
                                  const RoutineBody &Body,
                                  const LloOptions &Opts, LloStats *Stats) {
  return RoutineLowering(P, R, Body, Opts, Stats).run();
}
