//===- bytecode/Compact.cpp -----------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "bytecode/Compact.h"

#include "support/VarInt.h"

using namespace scmo;

namespace {

/// Operand encoding tags packed into one byte alongside small payloads.
enum OperandTag : uint8_t { TagNone = 0, TagReg = 1, TagImm = 2 };

void encodeOperand(std::vector<uint8_t> &Out, const Operand &O) {
  switch (O.K) {
  case Operand::Kind::None:
    Out.push_back(TagNone);
    return;
  case Operand::Kind::Reg:
    Out.push_back(TagReg);
    encodeVarUInt(Out, O.Reg);
    return;
  case Operand::Kind::Imm:
    Out.push_back(TagImm);
    encodeVarInt(Out, O.Imm);
    return;
  }
}

bool decodeOperand(ByteReader &Reader, Operand &O) {
  uint64_t Tag = Reader.readVarUInt();
  switch (Tag) {
  case TagNone:
    O = Operand::none();
    return true;
  case TagReg:
    O = Operand::reg(Reader.readVarU32());
    return true;
  case TagImm:
    O = Operand::imm(Reader.readVarInt());
    return true;
  default:
    return false;
  }
}

/// Per-opcode field presence. Encoding only what each opcode uses is the
/// "removal of unneeded fields" the paper credits with most of the space win.
struct OpShape {
  bool HasDst, HasA, HasB, HasSym, HasT1, HasT2, HasArgs;
};

OpShape shapeOf(Opcode Op) {
  switch (Op) {
  case Opcode::Mov:
  case Opcode::Neg:
    return {true, true, false, false, false, false, false};
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
  case Opcode::CmpGe:
    return {true, true, true, false, false, false, false};
  case Opcode::LoadG:
    return {true, false, false, true, false, false, false};
  case Opcode::StoreG:
    return {false, true, false, true, false, false, false};
  case Opcode::LoadIdx:
    return {true, true, false, true, false, false, false};
  case Opcode::StoreIdx:
    return {false, true, true, true, false, false, false};
  case Opcode::Jmp:
    return {false, false, false, false, true, false, false};
  case Opcode::Br:
    return {false, true, false, false, true, true, false};
  case Opcode::Ret:
    return {false, true, false, false, false, false, false};
  case Opcode::Call:
    return {true, false, false, true, false, false, true};
  case Opcode::Print:
    return {false, true, false, false, false, false, false};
  case Opcode::Probe:
    return {false, false, false, false, false, false, false};
  case Opcode::Nop:
    return {false, false, false, false, false, false, false};
  }
  scmo_unreachable("invalid opcode");
}

constexpr uint32_t FormatVersion = 1;

} // namespace

std::vector<uint8_t> scmo::compactRoutine(const RoutineBody &Body,
                                          const SymRemap &Remap) {
  std::vector<uint8_t> Out;
  Out.reserve(Body.instrCount() * 6 + 64);
  encodeVarUInt(Out, FormatVersion);
  encodeVarUInt(Out, Body.NumParams);
  encodeVarUInt(Out, Body.NextReg);
  encodeVarUInt(Out, Body.SourceLines);
  Out.push_back(Body.HasProfile ? 1 : 0);
  encodeVarUInt(Out, Body.Blocks.size());
  for (const BasicBlock &BB : Body.Blocks) {
    if (Body.HasProfile) {
      encodeVarUInt(Out, BB.Freq);
      encodeVarUInt(Out, BB.TakenFreq);
    }
    encodeVarUInt(Out, BB.Instrs.size());
    uint32_t PrevLine = 0;
    for (const Instr *I : BB.Instrs) {
      Out.push_back(static_cast<uint8_t>(I->Op));
      OpShape S = shapeOf(I->Op);
      if (S.HasDst)
        encodeVarUInt(Out, I->Dst == NoReg ? 0 : uint64_t(I->Dst) + 1);
      if (S.HasA)
        encodeOperand(Out, I->A);
      if (S.HasB)
        encodeOperand(Out, I->B);
      if (S.HasSym) {
        uint32_t Sym = I->Op == Opcode::Call ? Remap.mapRoutine(I->Sym)
                                             : Remap.mapGlobal(I->Sym);
        encodeVarUInt(Out, Sym);
      }
      if (S.HasT1)
        encodeVarUInt(Out, I->T1);
      if (S.HasT2)
        encodeVarUInt(Out, I->T2);
      if (S.HasArgs) {
        encodeVarUInt(Out, I->NumArgs);
        for (unsigned A = 0; A != I->NumArgs; ++A)
          encodeOperand(Out, I->Args[A]);
      }
      // Probe ids: present for Probe instructions, instrumented branches,
      // and calls (the inliner plants site tokens there mid-phase; losing
      // them across a compaction round trip would make code generation
      // depend on the memory budget — forbidden by Section 6.2).
      if (I->Op == Opcode::Probe || I->Op == Opcode::Br ||
          I->Op == Opcode::Call)
        encodeVarUInt(Out, I->ProbeId == InvalidId ? 0
                                                   : uint64_t(I->ProbeId) + 1);
      // Line numbers delta-encode well within a block.
      encodeVarInt(Out, int64_t(I->Line) - int64_t(PrevLine));
      PrevLine = I->Line;
    }
  }
  return Out;
}

std::unique_ptr<RoutineBody> scmo::expandRoutine(const uint8_t *Data,
                                                 size_t Size,
                                                 MemoryTracker *Tracker,
                                                 const SymRemap &Remap) {
  // Decoding is strict: every field must be in range for its type and the
  // encoding must end exactly at \p Size, so a body that decodes re-encodes
  // to the same bytes. Counts are bounded by the bytes left to hold them
  // before anything is sized from them.
  ByteReader Reader(Data, Size);
  if (Reader.readVarUInt() != FormatVersion)
    return nullptr;
  auto Body = std::make_unique<RoutineBody>(Tracker);
  Body->NumParams = Reader.readVarU32();
  Body->NextReg = Reader.readVarU32();
  Body->SourceLines = Reader.readVarU32();
  uint8_t HasProfile = 0;
  Reader.readBytes(&HasProfile, 1);
  Body->HasProfile = HasProfile != 0;
  uint64_t NumBlocks = Reader.readVarUInt();
  // A block costs at least its instruction count, plus two frequencies
  // under a profile.
  if (Reader.hadError() || HasProfile > 1 ||
      NumBlocks > Reader.remaining() / (HasProfile ? 3 : 1))
    return nullptr;
  Body->Blocks.resize(NumBlocks);
  for (uint64_t B = 0; B != NumBlocks; ++B) {
    BasicBlock &BB = Body->Blocks[B];
    if (Body->HasProfile) {
      BB.Freq = Reader.readVarUInt();
      BB.TakenFreq = Reader.readVarUInt();
    }
    // An instruction costs at least its opcode and line delta.
    uint64_t NumInstrs = Reader.readVarUInt();
    if (Reader.hadError() || NumInstrs > Reader.remaining() / 2)
      return nullptr;
    BB.Instrs.reserve(NumInstrs);
    uint32_t PrevLine = 0;
    for (uint64_t Idx = 0; Idx != NumInstrs; ++Idx) {
      uint8_t OpByte = 0;
      if (!Reader.readBytes(&OpByte, 1) || OpByte >= NumOpcodes)
        return nullptr;
      Opcode Op = static_cast<Opcode>(OpByte);
      Instr *I = Body->newInstr(Op);
      OpShape S = shapeOf(Op);
      if (S.HasDst) {
        uint32_t D = Reader.readVarU32();
        I->Dst = D == 0 ? NoReg : D - 1;
      }
      if (S.HasA && !decodeOperand(Reader, I->A))
        return nullptr;
      if (S.HasB && !decodeOperand(Reader, I->B))
        return nullptr;
      if (S.HasSym) {
        uint32_t Sym = Reader.readVarU32();
        I->Sym = Op == Opcode::Call ? Remap.mapRoutine(Sym)
                                    : Remap.mapGlobal(Sym);
      }
      if (S.HasT1)
        I->T1 = Reader.readVarU32();
      if (S.HasT2)
        I->T2 = Reader.readVarU32();
      if (S.HasArgs) {
        uint64_t N = Reader.readVarUInt();
        if (Reader.hadError() || N > 0xffff || N > Reader.remaining())
          return nullptr;
        I->NumArgs = static_cast<uint16_t>(N);
        I->Args = Body->newArgArray(I->NumArgs);
        for (unsigned A = 0; A != I->NumArgs; ++A)
          if (!decodeOperand(Reader, I->Args[A]))
            return nullptr;
      }
      if (Op == Opcode::Probe || Op == Opcode::Br || Op == Opcode::Call) {
        uint32_t Pr = Reader.readVarU32();
        I->ProbeId = Pr == 0 ? InvalidId : Pr - 1;
      }
      int64_t Delta = Reader.readVarInt();
      if (Delta < -int64_t(PrevLine) || Delta > int64_t(UINT32_MAX - PrevLine))
        return nullptr;
      I->Line = static_cast<uint32_t>(int64_t(PrevLine) + Delta);
      PrevLine = I->Line;
      BB.Instrs.push_back(I);
    }
  }
  if (Reader.hadError() || !Reader.atEnd())
    return nullptr;
  return Body;
}

std::unique_ptr<RoutineBody> scmo::expandRoutine(
    const std::vector<uint8_t> &Bytes, MemoryTracker *Tracker,
    const SymRemap &Remap) {
  return expandRoutine(Bytes.data(), Bytes.size(), Tracker, Remap);
}
