//===- llo/MachineCode.h ----------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The target machine abstraction. The paper's LLO lowers IL to PA-RISC; our
/// LLO lowers IL to this 32-register machine executed by the deterministic
/// VM in src/vm. The machine exposes exactly the performance levers the
/// paper's optimizations pull:
///
///  - finite registers with an all-caller-save convention, so register
///    allocation quality and call overhead are visible (inlining removes
///    calls *and* the spills around them);
///  - fall-through vs taken branches with asymmetric cost, so profile-guided
///    block layout matters;
///  - a direct-mapped instruction cache in the VM, so the linker's routine
///    clustering matters;
///  - a load-use stall, so LLO's scheduling matters.
///
/// The machine has 32 integer registers, like the PA-8000 the paper measured
/// on. ABI: parameters arrive in r24..r31 (max 8), return value in r24.
/// The allocatable set splits into caller-save r3..r13 and callee-save
/// r14..r23 (preserved across calls by the using routine's prologue and
/// epilogue). r0/r1 are spill-reload scratch for operands and r2 for spilled
/// destinations, never live across an instruction boundary.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_LLO_MACHINECODE_H
#define SCMO_LLO_MACHINECODE_H

#include "ir/Ids.h"
#include "support/VarInt.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace scmo {

/// Number of physical registers.
inline constexpr unsigned NumPhysRegs = 32;

/// First argument register; argument i of a call travels in ArgRegBase + i.
inline constexpr uint8_t ArgRegBase = 24;

/// Maximum arguments passed in registers (the frontend enforces this).
inline constexpr unsigned MaxArgs = 8;

/// Return value register.
inline constexpr uint8_t RetReg = 24;

/// Machine opcodes.
enum class MOp : uint8_t {
  Mov,        ///< Rd = A
  Add,        ///< Rd = A + B
  Sub,
  Mul,
  Div,
  Rem,
  Neg,        ///< Rd = -A
  CmpEq,
  CmpNe,
  CmpLt,
  CmpLe,
  CmpGt,
  CmpGe,
  LoadG,      ///< Rd = data[Sym]
  StoreG,     ///< data[Sym] = A
  LoadIdx,    ///< Rd = data[Sym + wrap(A)]
  StoreIdx,   ///< data[Sym + wrap(A)] = B
  LoadSpill,  ///< Rd = frame[Slot]
  StoreSpill, ///< frame[Slot] = A
  Jmp,        ///< goto Target
  Br,         ///< if (A != 0) goto Target, else fall through
  Brz,        ///< if (A == 0) goto Target, else fall through
  Ret,        ///< return to caller (value already in RetReg)
  Call,       ///< call routine Sym (args already in ArgRegBase..)
  Print,      ///< emit A to program output
  Probe,      ///< profile counter Probe += 1
  Halt,       ///< stop the machine (end of program)
  Nop
};

/// Number of machine opcodes.
inline constexpr unsigned NumMOps = static_cast<unsigned>(MOp::Nop) + 1;

/// Returns a stable mnemonic for \p Op.
const char *mopName(MOp Op);

/// A machine operand: a physical register or an immediate.
struct MOperand {
  bool IsImm = false;
  uint8_t Reg = 0;
  int64_t Imm = 0;

  static MOperand reg(uint8_t R) {
    MOperand O;
    O.Reg = R;
    return O;
  }

  static MOperand imm(int64_t V) {
    MOperand O;
    O.IsImm = true;
    O.Imm = V;
    return O;
  }
};

/// One machine instruction. Before linking, Target is an instruction index
/// local to the routine and Sym is a GlobalId / RoutineId; the linker patches
/// Target to an absolute code address, Sym to a data offset (loads/stores)
/// or an executable routine index (calls).
struct MInstr {
  MOp Op = MOp::Nop;
  uint8_t Rd = 0;
  MOperand A;
  MOperand B;
  uint32_t Sym = InvalidId;
  uint32_t Target = InvalidId;
  uint32_t Probe = InvalidId;
  uint32_t Slot = 0; ///< Spill slot for LoadSpill/StoreSpill.
};

/// What an instruction's Sym names.
enum class SymKind : uint8_t { None, Routine, Global };

/// Call names a routine; LoadG, StoreG, LoadIdx and StoreIdx name a global.
inline SymKind symKind(MOp Op) {
  switch (Op) {
  case MOp::Call:
    return SymKind::Routine;
  case MOp::LoadG:
  case MOp::StoreG:
  case MOp::LoadIdx:
  case MOp::StoreIdx:
    return SymKind::Global;
  default:
    return SymKind::None;
  }
}

/// The program ids behind a cached unit's reference indices: in code that
/// carries a table, a routine Sym indexes Routines and a global Sym indexes
/// Globals. One table serves every routine of the unit.
struct SymRefs {
  std::vector<RoutineId> Routines; ///< Clones included.
  std::vector<GlobalId> Globals;

  /// Rewrites \p I's reference index to the program id it stands for.
  /// Returns false, leaving \p I untouched, if the index is past its table.
  bool resolve(MInstr &I) const;
};

/// LLO's output for one routine. Code holds NumInstrs instructions in the
/// dense encoding below — the only form lowered code takes between LLO and
/// the linker, in memory and in the incremental cache's unit artifacts.
/// Targets are local instruction indices. Sym is a RoutineId / GlobalId,
/// unless Refs is set: code loaded from a unit artifact keeps its stored
/// bytes, whose Sym fields index Refs, and the linker resolves them there.
struct MachineRoutine {
  RoutineId Routine = InvalidId;
  std::string Name;            ///< Display name (diagnostics, entry lookup).
  std::vector<uint8_t> Code;   ///< Encoded instructions (encodeMInstr).
  uint32_t NumInstrs = 0;      ///< Instructions in Code.
  uint32_t SpillSlots = 0;     ///< Frame size in slots.
  uint64_t EntryFreq = 0;      ///< Profile invocation count (for clustering).
  uint32_t SourceLines = 0;
  std::shared_ptr<const SymRefs> Refs; ///< Null for LLO output.
};

//===----------------------------------------------------------------------===//
// Dense code encoding
//===----------------------------------------------------------------------===//
//
// One instruction is an opcode byte, a field-presence mask (unsigned LEB128)
// and the present fields in mask-bit order. A field is present iff it differs
// from its MInstr default, so every MInstr round-trips exactly:
//
//   bit 0     Rd          one byte, 1..NumPhysRegs-1
//   bits 1-2  operand A   01 register (one byte, nonzero), 10 immediate
//                         (zig-zag varint), 11 raw (IsImm byte, register
//                         byte, zig-zag immediate) for the combinations the
//                         short forms cannot spell
//   bits 3-4  operand B   as A
//   bit 5     Slot        varint, nonzero
//   bit 6     Sym         varint, not InvalidId
//   bit 7     Target      varint, not InvalidId
//   bit 8     Probe       varint, not InvalidId
//
// Typical instructions take 3-5 bytes against sizeof(MInstr) == 56.

/// The smallest encoded instruction: an opcode and an empty mask.
inline constexpr size_t MinInstrBytes = 2;

/// The largest encoded instruction: opcode, a two-byte mask, Rd, two raw
/// operands (IsImm, register, ten-byte immediate) and four five-byte ids.
inline constexpr size_t MaxMInstrBytes = 1 + 2 + 1 + 2 * 12 + 4 * 5;

/// Writes the encoding of \p I at \p Out, which must have room for
/// MaxMInstrBytes, and returns the end of what it wrote.
uint8_t *encodeMInstr(uint8_t *Out, const MInstr &I);

/// Appends the encoding of \p I to \p Out.
void encodeMInstr(std::vector<uint8_t> &Out, const MInstr &I);

/// Validating decoder over one routine's encoded code: decodes exactly
/// NumInstrs instructions and rejects anything the encoder cannot produce
/// or the VM could not execute safely — an opcode >= NumMOps, a register
/// >= NumPhysRegs, a branch without a target or with one >= NumInstrs, a
/// spill slot >= SpillSlots, a non-canonical field or varint, and trailing
/// bytes. Sym is passed through; its meaning (RoutineId, GlobalId or an
/// index into the routine's Refs) is the caller's to check.
class MCodeReader {
public:
  MCodeReader(const uint8_t *Data, size_t Size, uint32_t NumInstrs,
              uint32_t SpillSlots);
  explicit MCodeReader(const MachineRoutine &MR)
      : MCodeReader(MR.Code.data(), MR.Code.size(), MR.NumInstrs,
                    MR.SpillSlots) {}

  /// Decodes the next instruction into \p Out. Returns false once all
  /// NumInstrs instructions were read or on malformed bytes; ok() tells
  /// which.
  bool next(MInstr &Out);

  /// Decodes every remaining instruction into consecutive slots from
  /// \p Dst on; returns ok().
  bool decodeAll(MInstr *Dst);

  /// True iff every instruction decoded and the bytes ended exactly there.
  bool ok() const { return !Bad && Left == 0 && In.atEnd(); }

private:
  bool fail() {
    Bad = true;
    return false;
  }

  ByteReader In;
  uint32_t NumInstrs;
  uint32_t SpillSlots;
  uint32_t Left;
  bool Bad = false;
};

} // namespace scmo

#endif // SCMO_LLO_MACHINECODE_H
