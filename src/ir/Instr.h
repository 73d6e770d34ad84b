//===- ir/Instr.h -----------------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The IL instruction set. The IL is a three-address, non-SSA register
/// machine over 64-bit integers — deliberately close in spirit to the 1998
/// HP-UX common intermediate language: mutable, language-neutral, simple
/// enough that every frontend can target it and that compact relocatable
/// encoding is straightforward.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_IR_INSTR_H
#define SCMO_IR_INSTR_H

#include "ir/Ids.h"
#include "support/Debug.h"

#include <cassert>
#include <cstdint>

namespace scmo {

/// IL opcodes. Terminators are Jmp, Br and Ret; every basic block ends with
/// exactly one terminator.
enum class Opcode : uint8_t {
  Mov,      ///< Dst = A
  Add,      ///< Dst = A + B
  Sub,      ///< Dst = A - B
  Mul,      ///< Dst = A * B
  Div,      ///< Dst = A / B (B==0 yields 0; the VM defines this)
  Rem,      ///< Dst = A % B (B==0 yields 0)
  Neg,      ///< Dst = -A
  CmpEq,    ///< Dst = (A == B)
  CmpNe,    ///< Dst = (A != B)
  CmpLt,    ///< Dst = (A < B)
  CmpLe,    ///< Dst = (A <= B)
  CmpGt,    ///< Dst = (A > B)
  CmpGe,    ///< Dst = (A >= B)
  LoadG,    ///< Dst = global[Sym]
  StoreG,   ///< global[Sym] = A
  LoadIdx,  ///< Dst = global[Sym][A]  (bounds-wrapped by the VM)
  StoreIdx, ///< global[Sym][A] = B
  Jmp,      ///< goto T1
  Br,       ///< if (A != 0) goto T1 else goto T2
  Ret,      ///< return A
  Call,     ///< Dst = call routine[Sym](Args[0..NumArgs))
  Print,    ///< emit A to the program's observable output stream
  Probe,    ///< profile counter ProbeId += 1 (inserted by instrumentation)
  Nop       ///< no operation (placeholder left by transformations)
};

/// Number of distinct opcodes (for tables and encodings).
inline constexpr unsigned NumOpcodes = static_cast<unsigned>(Opcode::Nop) + 1;

/// Returns a stable mnemonic for \p Op.
const char *opcodeName(Opcode Op);

/// True if \p Op ends a basic block.
inline bool isTerminator(Opcode Op) {
  return Op == Opcode::Jmp || Op == Opcode::Br || Op == Opcode::Ret;
}

/// True if \p Op produces a value in Dst (Call only when Dst != NoReg).
inline bool definesValue(Opcode Op) {
  switch (Op) {
  case Opcode::Mov:
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Div:
  case Opcode::Rem:
  case Opcode::Neg:
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::CmpLt:
  case Opcode::CmpLe:
  case Opcode::CmpGt:
  case Opcode::CmpGe:
  case Opcode::LoadG:
  case Opcode::LoadIdx:
  case Opcode::Call:
    return true;
  default:
    return false;
  }
}

/// True if \p Op has an effect beyond its Dst (must not be dead-code
/// eliminated even if Dst is unused).
inline bool hasSideEffects(Opcode Op) {
  switch (Op) {
  case Opcode::StoreG:
  case Opcode::StoreIdx:
  case Opcode::Call:
  case Opcode::Print:
  case Opcode::Probe:
  case Opcode::Jmp:
  case Opcode::Br:
  case Opcode::Ret:
    return true;
  default:
    return false;
  }
}

/// A value operand: a virtual register, an immediate, or absent. Packed to
/// nine bytes (the kind, then the payload) with alignment 1: every
/// instruction carries two operands and a call an array of them, and the
/// natural 16-byte layout spent seven of every sixteen bytes on padding.
/// The payload is only read and written by value (never by address), so
/// the unaligned accesses stay the compiler's business.
struct __attribute__((packed)) Operand {
  enum class Kind : uint8_t { None, Reg, Imm };

  Kind K = Kind::None;
  union {
    RegId Reg;
    int64_t Imm;
  };

  Operand() : Imm(0) {}

  static Operand none() { return Operand(); }

  static Operand reg(RegId R) {
    Operand O;
    O.K = Kind::Reg;
    O.Reg = R;
    return O;
  }

  static Operand imm(int64_t V) {
    Operand O;
    O.K = Kind::Imm;
    O.Imm = V;
    return O;
  }

  bool isNone() const { return K == Kind::None; }
  bool isReg() const { return K == Kind::Reg; }
  bool isImm() const { return K == Kind::Imm; }

  RegId asReg() const {
    assert(isReg() && "operand is not a register");
    return Reg;
  }

  int64_t asImm() const {
    assert(isImm() && "operand is not an immediate");
    return Imm;
  }

  bool operator==(const Operand &O) const {
    if (K != O.K)
      return false;
    if (isReg())
      return Reg == O.Reg;
    if (isImm())
      return Imm == O.Imm;
    return true;
  }
};

/// An IL instruction. Instances live in their routine's arena; transforms
/// mutate them in place or splice them out of block instruction lists, and
/// the garbage is reclaimed at the next compaction round trip (paper
/// Section 4.2.2: compaction doubles as garbage collection) or, for a body
/// LTRANS rewrote, when its task ends (RoutineBody::repack).
///
/// Fields run from the widest alignment down so the record has no interior
/// padding: the pointer, the six 32-bit fields, NumArgs, Op, then the two
/// byte-aligned operands, 53 bytes rounded up to 56.
struct Instr {
  Operand *Args = nullptr; ///< Call arguments (arena array of NumArgs).
  RegId Dst = NoReg;      ///< Defined register, NoReg if none.
  uint32_t Sym = InvalidId; ///< GlobalId or RoutineId, per opcode.
  BlockId T1 = InvalidId; ///< Jmp target / Br taken target.
  BlockId T2 = InvalidId; ///< Br fall-through target.
  uint32_t ProbeId = InvalidId; ///< Probe counter; Br taken-counter when
                                ///< instrumented.
  uint32_t Line = 0;       ///< Source line for diagnostics / debug info.
  uint16_t NumArgs = 0;    ///< Call: number of arguments.
  Opcode Op = Opcode::Nop;
  Operand A;              ///< First value operand.
  Operand B;              ///< Second value operand.

  bool isCall() const { return Op == Opcode::Call; }
  bool isTerm() const { return isTerminator(Op); }
};

static_assert(sizeof(Operand) == 9 && alignof(Operand) == 1,
              "Operand must stay a packed kind + 8-byte payload");
static_assert(sizeof(Instr) == 56, "Instr must stay free of interior padding");

/// Calls \p F for every register \p I reads: A, B, then the call arguments
/// (duplicates possible when one register appears as several operands).
template <typename Fn> void forEachUseReg(const Instr &I, Fn F) {
  if (I.A.isReg())
    F(I.A.asReg());
  if (I.B.isReg())
    F(I.B.asReg());
  for (unsigned A = 0; A != I.NumArgs; ++A)
    if (I.Args[A].isReg())
      F(I.Args[A].asReg());
}

} // namespace scmo

#endif // SCMO_IR_INSTR_H
