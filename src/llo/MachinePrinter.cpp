//===- llo/MachinePrinter.cpp ---------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "llo/MachinePrinter.h"

#include <sstream>

using namespace scmo;

namespace {

void printMOperand(std::ostringstream &OS, const MOperand &O) {
  if (O.IsImm)
    OS << "#" << O.Imm;
  else
    OS << "r" << unsigned(O.Reg);
}

} // namespace

std::string scmo::printMInstr(const MInstr &I, uint32_t Base) {
  std::ostringstream OS;
  OS << mopName(I.Op);
  switch (I.Op) {
  case MOp::Mov:
  case MOp::Neg:
    OS << " r" << unsigned(I.Rd) << ", ";
    printMOperand(OS, I.A);
    break;
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
    OS << " r" << unsigned(I.Rd) << ", ";
    printMOperand(OS, I.A);
    OS << ", ";
    printMOperand(OS, I.B);
    break;
  case MOp::LoadG:
    OS << " r" << unsigned(I.Rd) << ", [" << I.Sym << "]";
    break;
  case MOp::StoreG:
    OS << " [" << I.Sym << "], ";
    printMOperand(OS, I.A);
    break;
  case MOp::LoadIdx:
    OS << " r" << unsigned(I.Rd) << ", [" << I.Sym << " + ";
    printMOperand(OS, I.A);
    OS << " % " << I.Slot << "]";
    break;
  case MOp::StoreIdx:
    OS << " [" << I.Sym << " + ";
    printMOperand(OS, I.A);
    OS << " % " << I.Slot << "], ";
    printMOperand(OS, I.B);
    break;
  case MOp::LoadSpill:
    OS << " r" << unsigned(I.Rd) << ", frame[" << I.Slot << "]";
    break;
  case MOp::StoreSpill:
    OS << " frame[" << I.Slot << "], ";
    printMOperand(OS, I.A);
    break;
  case MOp::Jmp:
    OS << " @" << (I.Target - Base);
    break;
  case MOp::Br:
  case MOp::Brz:
    OS << " ";
    printMOperand(OS, I.A);
    OS << ", @" << (I.Target - Base);
    if (I.Probe != InvalidId)
      OS << "  ; taken-probe " << I.Probe;
    break;
  case MOp::Call:
    OS << " fn" << I.Sym;
    break;
  case MOp::Probe:
    OS << " " << I.Probe;
    break;
  case MOp::Ret:
  case MOp::Halt:
  case MOp::Nop:
    break;
  }
  return OS.str();
}

std::string scmo::printMachineRoutine(const MachineRoutine &MR) {
  std::ostringstream OS;
  OS << "machine " << MR.Name << " (" << MR.NumInstrs << " instrs, "
     << MR.SpillSlots << " slots)\n";
  MCodeReader Reader(MR);
  MInstr I;
  for (uint32_t Idx = 0; Reader.next(I); ++Idx) {
    if (MR.Refs && !MR.Refs->resolve(I)) {
      OS << "  <unresolvable reference>\n";
      return OS.str();
    }
    OS << "  " << Idx << ":\t" << printMInstr(I) << "\n";
  }
  if (!Reader.ok())
    OS << "  <malformed code>\n";
  return OS.str();
}

std::string scmo::printExeRoutine(const Executable &Exe,
                                  const std::string &Name) {
  for (const ExeRoutine &ER : Exe.Routines) {
    if (ER.Name != Name)
      continue;
    std::ostringstream OS;
    OS << "routine " << ER.Name << " @" << ER.CodeStart << " ("
       << ER.CodeLen << " instrs, " << ER.SpillSlots << " slots)\n";
    for (uint32_t Idx = 0; Idx != ER.CodeLen; ++Idx)
      OS << "  " << Idx << ":\t"
         << printMInstr(Exe.Code[ER.CodeStart + Idx], ER.CodeStart) << "\n";
    return OS.str();
  }
  return "";
}
