//===- llo/MachineCode.cpp ------------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "llo/MachineCode.h"

using namespace scmo;

namespace {

/// Presence-mask bits (see MachineCode.h).
enum : uint32_t {
  HasRd = 1u << 0,
  AShift = 1,
  BShift = 3,
  HasSlot = 1u << 5,
  HasSym = 1u << 6,
  HasTarget = 1u << 7,
  HasProbe = 1u << 8,
  AllFields = (1u << 9) - 1,
};

/// Two-bit operand kinds.
enum : unsigned { OpNone = 0, OpReg = 1, OpImm = 2, OpRaw = 3 };

unsigned operandKind(const MOperand &O) {
  if (!O.IsImm && O.Imm == 0)
    return O.Reg ? OpReg : OpNone;
  if (O.IsImm && O.Reg == 0)
    return OpImm;
  return OpRaw;
}

uint8_t *putVarUInt(uint8_t *Out, uint64_t Value) {
  do {
    uint8_t Byte = Value & 0x7f;
    Value >>= 7;
    if (Value)
      Byte |= 0x80;
    *Out++ = Byte;
  } while (Value);
  return Out;
}

uint8_t *putVarInt(uint8_t *Out, int64_t Value) {
  return putVarUInt(Out, (static_cast<uint64_t>(Value) << 1) ^
                             static_cast<uint64_t>(Value >> 63));
}

uint8_t *putOperand(uint8_t *Out, unsigned Kind, const MOperand &O) {
  switch (Kind) {
  case OpReg:
    *Out++ = O.Reg;
    break;
  case OpImm:
    Out = putVarInt(Out, O.Imm);
    break;
  case OpRaw:
    *Out++ = O.IsImm ? 1 : 0;
    *Out++ = O.Reg;
    Out = putVarInt(Out, O.Imm);
    break;
  }
  return Out;
}

bool isBranch(MOp Op) {
  return Op == MOp::Jmp || Op == MOp::Br || Op == MOp::Brz;
}

bool isSpill(MOp Op) { return Op == MOp::LoadSpill || Op == MOp::StoreSpill; }

} // namespace

uint8_t *scmo::encodeMInstr(uint8_t *Out, const MInstr &I) {
  unsigned AKind = operandKind(I.A), BKind = operandKind(I.B);
  uint32_t Mask = (AKind << AShift) | (BKind << BShift);
  if (I.Rd)
    Mask |= HasRd;
  if (I.Slot)
    Mask |= HasSlot;
  if (I.Sym != InvalidId)
    Mask |= HasSym;
  if (I.Target != InvalidId)
    Mask |= HasTarget;
  if (I.Probe != InvalidId)
    Mask |= HasProbe;
  *Out++ = static_cast<uint8_t>(I.Op);
  Out = putVarUInt(Out, Mask);
  if (Mask & HasRd)
    *Out++ = I.Rd;
  Out = putOperand(Out, AKind, I.A);
  Out = putOperand(Out, BKind, I.B);
  if (Mask & HasSlot)
    Out = putVarUInt(Out, I.Slot);
  if (Mask & HasSym)
    Out = putVarUInt(Out, I.Sym);
  if (Mask & HasTarget)
    Out = putVarUInt(Out, I.Target);
  if (Mask & HasProbe)
    Out = putVarUInt(Out, I.Probe);
  return Out;
}

void scmo::encodeMInstr(std::vector<uint8_t> &Out, const MInstr &I) {
  uint8_t Buf[MaxMInstrBytes];
  Out.insert(Out.end(), Buf, encodeMInstr(Buf, I));
}

MCodeReader::MCodeReader(const uint8_t *Data, size_t Size, uint32_t NumInstrs,
                         uint32_t SpillSlots)
    : In(Data, Size), NumInstrs(NumInstrs), SpillSlots(SpillSlots),
      Left(NumInstrs) {
  // A count the bytes cannot hold is rejected up front.
  if (NumInstrs > Size / MinInstrBytes)
    Bad = true;
}

bool MCodeReader::next(MInstr &Out) {
  if (Bad || Left == 0)
    return false;
  // Decode into locals the compiler can keep in registers; the reader and
  // Out are written only once the whole instruction has validated. A varint
  // error stays latched in R until the final check.
  ByteReader R = In;
  auto byte = [&R](uint8_t &B) { return R.readBytes(&B, 1); };
  uint8_t Op = 0, Rd = 0;
  if (!byte(Op) || Op >= NumMOps)
    return fail();
  uint64_t Mask = R.readVarUInt();
  if (Mask & ~uint64_t(AllFields))
    return fail();
  if ((Mask & HasRd) && (!byte(Rd) || Rd == 0 || Rd >= NumPhysRegs))
    return fail();
  MOperand Ops[2];
  for (unsigned K = 0; K != 2; ++K) {
    MOperand &O = Ops[K];
    switch ((Mask >> (K ? BShift : AShift)) & 3) {
    case OpNone:
      break;
    case OpReg:
      if (!byte(O.Reg) || O.Reg == 0 || O.Reg >= NumPhysRegs)
        return fail();
      break;
    case OpImm:
      O.IsImm = true;
      O.Imm = R.readVarInt();
      break;
    default: {
      uint8_t Flag = 0;
      if (!byte(Flag) || Flag > 1 || !byte(O.Reg) || O.Reg >= NumPhysRegs)
        return fail();
      O.IsImm = Flag != 0;
      O.Imm = R.readVarInt();
      // Canonical only: a raw operand the short forms could spell is
      // malformed.
      if (operandKind(O) != OpRaw)
        return fail();
    }
    }
  }
  MOp Opc = static_cast<MOp>(Op);
  uint32_t Slot = 0, Sym = InvalidId, Target = InvalidId, Probe = InvalidId;
  if (Mask & HasSlot) {
    Slot = R.readVarU32();
    if (Slot == 0 || Slot >= SpillSlots)
      return fail();
  } else if (isSpill(Opc) && SpillSlots == 0) {
    return fail(); // Slot 0 of an empty frame.
  }
  if (Mask & HasSym) {
    Sym = R.readVarU32();
    if (Sym == InvalidId)
      return fail();
  }
  if (Mask & HasTarget) {
    Target = R.readVarU32();
    if (Target >= NumInstrs)
      return fail();
  } else if (isBranch(Opc)) {
    return fail();
  }
  if (Mask & HasProbe) {
    Probe = R.readVarU32();
    if (Probe == InvalidId)
      return fail();
  }
  if (R.hadError())
    return fail();
  In = R;
  Out.Op = Opc;
  Out.Rd = Rd;
  Out.A = Ops[0];
  Out.B = Ops[1];
  Out.Sym = Sym;
  Out.Target = Target;
  Out.Probe = Probe;
  Out.Slot = Slot;
  --Left;
  return true;
}

bool MCodeReader::decodeAll(MInstr *Dst) {
  while (next(*Dst))
    ++Dst;
  return ok();
}

bool SymRefs::resolve(MInstr &I) const {
  SymKind Kind = symKind(I.Op);
  if (Kind == SymKind::None)
    return true;
  const std::vector<uint32_t> &Table =
      Kind == SymKind::Routine ? Routines : Globals;
  if (I.Sym >= Table.size())
    return false;
  I.Sym = Table[I.Sym];
  return true;
}
