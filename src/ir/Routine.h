//===- ir/Routine.h ---------------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The expanded in-memory form of a routine's IL (paper Figure 3: a
/// "transitory" object). Each routine body owns an arena holding its
/// instructions; the whole pool can be compacted to the relocatable form and
/// later re-expanded by the NAIM loader.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_IR_ROUTINE_H
#define SCMO_IR_ROUTINE_H

#include "ir/Instr.h"
#include "support/Arena.h"

#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace scmo {

/// A basic block: a straight-line instruction sequence ending in exactly one
/// terminator. Blocks carry their correlated profile counts directly (the
/// counts travel with the IR through transformations, unlike derived data).
struct BasicBlock {
  std::vector<Instr *> Instrs;

  /// Execution count from the correlated profile (0 if none / cold).
  uint64_t Freq = 0;

  /// For a block ending in Br: number of times the branch was taken.
  uint64_t TakenFreq = 0;

  /// Returns the terminator, or null for a block under construction.
  Instr *terminator() const {
    if (Instrs.empty() || !Instrs.back()->isTerm())
      return nullptr;
    return Instrs.back();
  }
};

/// Expanded routine body: blocks + the arena the instructions live in.
class RoutineBody {
public:
  /// Creates an empty body charging IR bytes to \p Tracker (may be null).
  explicit RoutineBody(MemoryTracker *Tracker = nullptr)
      : IrArena(Tracker, MemCategory::HloIr, SlabSize) {}

  std::vector<BasicBlock> Blocks;

  /// Number of incoming parameters; they occupy registers [0, NumParams).
  uint32_t NumParams = 0;

  /// Next unassigned virtual register.
  uint32_t NextReg = 0;

  /// Source lines attributed to this routine (for LoC accounting).
  uint32_t SourceLines = 0;

  /// True once profile counts have been correlated onto the blocks.
  bool HasProfile = false;

  /// Allocates a fresh instruction in the body's arena.
  Instr *newInstr(Opcode Op) {
    Instr *I = IrArena.create<Instr>();
    I->Op = Op;
    return I;
  }

  /// Allocates an argument array for a call.
  Operand *newArgArray(uint16_t N) {
    return N ? IrArena.allocateArray<Operand>(N) : nullptr;
  }

  /// Allocates a fresh virtual register.
  RegId newReg() { return NextReg++; }

  /// Appends a new empty block and returns its id.
  BlockId newBlock() {
    Blocks.emplace_back();
    return static_cast<BlockId>(Blocks.size() - 1);
  }

  /// Access to the underlying arena (for passes that build instructions in
  /// bulk, e.g. the inliner copying a callee).
  Arena &arena() { return IrArena; }

  /// Bytes of expanded IR held by this body's arena.
  uint64_t irBytes() const { return IrArena.bytesAllocated(); }

  /// Copy-collects the body (paper Section 4.2.2's garbage collection,
  /// without the codec round trip): copies every instruction the block
  /// lists name, with its call argument array, into one exact-size slab of
  /// a fresh arena, repoints the block lists in place, and drops the old
  /// arena with its garbage — instructions transforms spliced out and the
  /// tails of grown slabs. The slab holds all instructions in block order,
  /// then all argument arrays in the same order: Operand is byte-aligned,
  /// so the arguments can follow the last instruction without padding,
  /// while interleaving them would misalign the next Instr. The
  /// instructions may live in another body's arena (a deep copy). Any other
  /// Instr pointer into this body dangles afterwards.
  void repack() {
    static_assert(alignof(Operand) == 1 && sizeof(Instr) % alignof(Instr) == 0,
                  "an exact-size slab needs padding-free packing");
    size_t NumInstrs = 0, NumArgs = 0;
    for (const BasicBlock &B : Blocks)
      for (const Instr *I : B.Instrs) {
        ++NumInstrs;
        NumArgs += I->NumArgs;
      }
    Arena Fresh(IrArena.tracker(), MemCategory::HloIr, SlabSize);
    Fresh.reserveExact(NumInstrs * sizeof(Instr) + NumArgs * sizeof(Operand));
    Instr *NextInstr = Fresh.allocateArray<Instr>(NumInstrs);
    Operand *NextArg = Fresh.allocateArray<Operand>(NumArgs);
    for (BasicBlock &B : Blocks)
      for (Instr *&I : B.Instrs) {
        Instr *Copy = new (NextInstr++) Instr(*I);
        if (I->NumArgs) {
          Copy->Args = NextArg;
          NextArg = std::uninitialized_copy_n(I->Args, I->NumArgs, NextArg);
        }
        I = Copy;
      }
    IrArena = std::move(Fresh);
  }

  /// Total instruction count across all blocks.
  uint32_t instrCount() const {
    uint32_t N = 0;
    for (const auto &B : Blocks)
      N += static_cast<uint32_t>(B.Instrs.size());
    return N;
  }

  /// Entry block execution count (== routine invocation count when profiled).
  uint64_t entryFreq() const { return Blocks.empty() ? 0 : Blocks[0].Freq; }

private:
  static constexpr size_t SlabSize = 8 * 1024;

  Arena IrArena;
};

/// Calls \p F for each CFG successor of \p BB: the Jmp target, or the Br
/// taken then fall-through target (the same block twice when they agree).
template <typename Fn> void forEachSucc(const BasicBlock &BB, Fn F) {
  const Instr *Term = BB.terminator();
  if (!Term)
    return;
  if (Term->Op == Opcode::Jmp) {
    F(Term->T1);
  } else if (Term->Op == Opcode::Br) {
    F(Term->T1);
    F(Term->T2);
  }
}

/// Builds CSR predecessor lists from the terminators: the predecessors of
/// block B are Preds[PredBegin[B], PredBegin[B + 1]), in ascending block
/// order, once per edge. Reuses the vectors' storage.
inline void buildPredecessors(const RoutineBody &Body,
                              std::vector<uint32_t> &PredBegin,
                              std::vector<BlockId> &Preds) {
  // Count, prefix-sum, fill, then shift the cursors back into begin
  // offsets.
  const uint32_t NumBlocks = static_cast<uint32_t>(Body.Blocks.size());
  PredBegin.assign(NumBlocks + 1, 0);
  for (const BasicBlock &BB : Body.Blocks)
    forEachSucc(BB, [&](BlockId S) { ++PredBegin[S + 1]; });
  for (uint32_t B = 0; B != NumBlocks; ++B)
    PredBegin[B + 1] += PredBegin[B];
  Preds.resize(PredBegin[NumBlocks]);
  for (BlockId B = 0; B != NumBlocks; ++B)
    forEachSucc(Body.Blocks[B], [&](BlockId S) { Preds[PredBegin[S]++] = B; });
  for (uint32_t B = NumBlocks; B != 0; --B)
    PredBegin[B] = PredBegin[B - 1];
  PredBegin[0] = 0;
}

} // namespace scmo

#endif // SCMO_IR_ROUTINE_H
