//===- link/Linker.cpp ----------------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "link/Linker.h"

#include "support/Hash.h"

#include <algorithm>

using namespace scmo;

namespace {

constexpr uint32_t None = InvalidId;

/// Greedy Pettis-Hansen-style chain merging: process call edges by
/// descending weight; whenever both endpoints sit at the boundary of
/// different chains, splice the chains so caller and callee become adjacent.
/// Hot chains are emitted first.
///
/// Chains are index lists: Head/Tail per chain, Next per routine, and a Rev
/// flag meaning the chain's order runs Tail to Head. Reversing a chain flips
/// the flag; a splice walks only the absorbed chain, relinking it in the
/// direction its new owner runs.
std::vector<uint32_t>
clusterOrder(const std::vector<MachineRoutine> &Machines,
             const std::vector<uint32_t> &IndexOf,
             const std::vector<CallEdgeWeight> &Edges) {
  uint32_t N = static_cast<uint32_t>(Machines.size());
  std::vector<uint32_t> Head(N), Tail(N), Next(N, None), ChainOf(N);
  std::vector<uint8_t> Rev(N, 0);
  for (uint32_t Idx = 0; Idx != N; ++Idx)
    Head[Idx] = Tail[Idx] = ChainOf[Idx] = Idx;
  auto front = [&](uint32_t C) { return Rev[C] ? Tail[C] : Head[C]; };
  auto back = [&](uint32_t C) { return Rev[C] ? Head[C] : Tail[C]; };

  std::vector<CallEdgeWeight> Sorted = Edges;
  std::stable_sort(Sorted.begin(), Sorted.end(),
                   [](const CallEdgeWeight &X, const CallEdgeWeight &Y) {
                     if (X.Weight != Y.Weight)
                       return X.Weight > Y.Weight;
                     if (X.From != Y.From)
                       return X.From < Y.From;
                     return X.To < Y.To;
                   });

  for (const CallEdgeWeight &E : Sorted) {
    if (E.From >= IndexOf.size() || E.To >= IndexOf.size())
      continue;
    uint32_t A = IndexOf[E.From], B = IndexOf[E.To];
    if (A == None || B == None)
      continue;
    uint32_t CA = ChainOf[A], CB = ChainOf[B];
    if (CA == CB)
      continue;
    // Orient so the caller ends chain A and the callee begins chain B.
    if (back(CA) != A) {
      if (front(CA) == A)
        Rev[CA] ^= 1;
      else
        continue; // A is interior; cannot make the pair adjacent.
    }
    if (front(CB) != B) {
      if (back(CB) == B)
        Rev[CB] ^= 1;
      else
        continue;
    }
    // Chain A's links run in its stored direction, so B's members join
    // them in that direction: relink B when the two directions differ.
    uint32_t H = Head[CB], T = Tail[CB];
    if (Rev[CA] != Rev[CB]) {
      uint32_t Prev = None;
      for (uint32_t Cur = H; Cur != None;) {
        uint32_t Nxt = Next[Cur];
        Next[Cur] = Prev;
        ChainOf[Cur] = CA;
        Prev = Cur;
        Cur = Nxt;
      }
      std::swap(H, T);
    } else {
      for (uint32_t Cur = H; Cur != None; Cur = Next[Cur])
        ChainOf[Cur] = CA;
    }
    if (Rev[CA]) {
      Next[T] = Head[CA];
      Head[CA] = H;
    } else {
      Next[Tail[CA]] = H;
      Tail[CA] = T;
    }
    Head[CB] = Tail[CB] = None;
  }

  // Order chains by their hottest member's entry count, hottest first.
  struct ChainRank {
    uint64_t Hotness;
    uint32_t Chain;
  };
  std::vector<ChainRank> Ranks;
  for (uint32_t C = 0; C != N; ++C) {
    if (Head[C] == None)
      continue;
    uint64_t Hot = 0;
    for (uint32_t Member = Head[C]; Member != None; Member = Next[Member])
      Hot = std::max(Hot, Machines[Member].EntryFreq);
    Ranks.push_back({Hot, C});
  }
  std::stable_sort(Ranks.begin(), Ranks.end(),
                   [](const ChainRank &X, const ChainRank &Y) {
                     if (X.Hotness != Y.Hotness)
                       return X.Hotness > Y.Hotness;
                     return X.Chain < Y.Chain;
                   });
  std::vector<uint32_t> Order;
  Order.reserve(N);
  for (const ChainRank &CR : Ranks) {
    size_t Begin = Order.size();
    for (uint32_t Member = Head[CR.Chain]; Member != None;
         Member = Next[Member])
      Order.push_back(Member);
    if (Rev[CR.Chain])
      std::reverse(Order.begin() + Begin, Order.end());
  }
  return Order;
}

std::string routineName(const Program &P, uint32_t Sym) {
  return Sym < P.numRoutines() ? P.displayName(Sym)
                               : "#" + std::to_string(Sym);
}

} // namespace

Executable scmo::linkProgram(const Program &P,
                             std::vector<MachineRoutine> Machines,
                             const LinkOptions &Opts, std::string &Error) {
  Executable Exe;
  Error.clear();
  auto fail = [&](std::string Message) {
    Error = std::move(Message);
    return Executable();
  };

  // Global data layout, in stable GlobalId order.
  Exe.GlobalOffset.resize(P.numGlobals(), 0);
  uint32_t DataSize = 0;
  for (GlobalId G = 0; G != P.numGlobals(); ++G) {
    Exe.GlobalOffset[G] = DataSize;
    DataSize += P.global(G).Size;
  }
  Exe.Data.assign(DataSize, 0);
  for (GlobalId G = 0; G != P.numGlobals(); ++G) {
    const GlobalVar &GV = P.global(G);
    if (GV.Size == 1)
      Exe.Data[Exe.GlobalOffset[G]] = GV.Init;
  }

  // Routine placement order.
  std::vector<uint32_t> MachineIndexOf(P.numRoutines(), None);
  for (uint32_t Idx = 0; Idx != Machines.size(); ++Idx) {
    const MachineRoutine &MR = Machines[Idx];
    if (MR.Routine >= MachineIndexOf.size())
      return fail("machine code for unknown routine #" +
                  std::to_string(MR.Routine));
    // Every instruction takes at least MinInstrBytes, which bounds the
    // image reserved below by the bytes actually handed in.
    if (MR.NumInstrs > MR.Code.size() / MinInstrBytes)
      return fail("malformed machine code in '" + MR.Name + "'");
    MachineIndexOf[MR.Routine] = Idx;
  }
  std::vector<uint32_t> Order;
  if (Opts.ClusterByProfile) {
    Order = clusterOrder(Machines, MachineIndexOf, Opts.EdgeWeights);
  } else {
    Order.resize(Machines.size());
    for (uint32_t Idx = 0; Idx != Machines.size(); ++Idx)
      Order[Idx] = Idx;
  }

  // First pass: assign code addresses in placement order.
  std::vector<uint32_t> ExeIndexOf(P.numRoutines(), None);
  uint64_t Addr = 0;
  Exe.Routines.reserve(Machines.size());
  for (uint32_t MIdx : Order) {
    const MachineRoutine &MR = Machines[MIdx];
    ExeRoutine ER;
    ER.Routine = MR.Routine;
    ER.Name = MR.Name;
    ER.CodeStart = static_cast<uint32_t>(Addr);
    ER.CodeLen = MR.NumInstrs;
    ER.SpillSlots = MR.SpillSlots;
    ExeIndexOf[MR.Routine] = static_cast<uint32_t>(Exe.Routines.size());
    Exe.Routines.push_back(std::move(ER));
    Addr += MR.NumInstrs;
  }
  if (Addr >= None)
    return fail("code image exceeds the machine's address space");

  // Second pass: decode each routine once, straight into its placement,
  // then patch it while it is still in cache. The encoded bytes are
  // dropped as soon as they are consumed.
  Exe.Code.reserve(Addr);
  for (size_t Pos = 0; Pos != Order.size(); ++Pos) {
    MachineRoutine &MR = Machines[Order[Pos]];
    const SymRefs *Refs = MR.Refs.get();
    const ExeRoutine &ER = Exe.Routines[Pos];
    Exe.Code.resize(ER.CodeStart + ER.CodeLen);
    MInstr *Begin = Exe.Code.data() + ER.CodeStart;
    if (!MCodeReader(MR).decodeAll(Begin))
      return fail("malformed machine code in '" + MR.Name + "'");
    std::vector<uint8_t>().swap(MR.Code);
    // Cached code indexes its unit's reference tables: map each routine and
    // global operand to its program id first, then patch as for LLO output.
    auto badRef = [&](const MInstr &I) {
      return fail("reference #" + std::to_string(I.Sym) +
                  " past the reference tables of '" + MR.Name + "'");
    };
    for (MInstr *I = Begin, *End = Begin + ER.CodeLen; I != End; ++I) {
      switch (I->Op) {
      case MOp::Jmp:
      case MOp::Br:
      case MOp::Brz:
        I->Target += ER.CodeStart;
        break;
      case MOp::Call: {
        if (Refs && !Refs->resolve(*I))
          return badRef(*I);
        if (I->Sym >= ExeIndexOf.size() || ExeIndexOf[I->Sym] == None)
          return fail("undefined routine '" + routineName(P, I->Sym) +
                      "' referenced from '" + MR.Name + "'");
        I->Sym = ExeIndexOf[I->Sym];
        break;
      }
      case MOp::LoadG:
      case MOp::StoreG:
      case MOp::LoadIdx:
      case MOp::StoreIdx:
        if (Refs && !Refs->resolve(*I))
          return badRef(*I);
        if (I->Sym >= P.numGlobals())
          return fail("undefined global #" + std::to_string(I->Sym) +
                      " referenced from '" + MR.Name + "'");
        // The VM wraps indices modulo the array size carried in Slot.
        if (I->Op == MOp::LoadIdx || I->Op == MOp::StoreIdx)
          I->Slot = P.global(I->Sym).Size;
        I->Sym = Exe.GlobalOffset[I->Sym];
        break;
      default:
        break;
      }
    }
  }

  // Entry point.
  Exe.Entry = InvalidId;
  for (uint32_t Idx = 0; Idx != Exe.Routines.size(); ++Idx)
    if (Exe.Routines[Idx].Name == "main")
      Exe.Entry = Idx;
  if (Exe.Entry == InvalidId)
    return fail("no main() routine in the link set");
  Exe.NumProbes = Opts.NumProbes;
  return Exe;
}

uint64_t scmo::hashExecutable(const Executable &Exe) {
  // Field-by-field so struct padding never leaks into the hash, streamed
  // so the serialization is never materialized.
  Xxh64Stream S;
  auto Op = [&S](const MOperand &O) {
    S.u64(O.IsImm ? 1 : 0);
    S.u64(O.Reg);
    S.u64(static_cast<uint64_t>(O.Imm));
  };
  S.u64(Exe.Code.size());
  for (const MInstr &I : Exe.Code) {
    S.u64(static_cast<uint64_t>(I.Op));
    S.u64(I.Rd);
    Op(I.A);
    Op(I.B);
    S.u64(I.Sym);
    S.u64(I.Target);
    S.u64(I.Probe);
    S.u64(I.Slot);
  }
  S.u64(Exe.Routines.size());
  for (const ExeRoutine &R : Exe.Routines) {
    S.update(reinterpret_cast<const uint8_t *>(R.Name.data()), R.Name.size());
    S.u64(R.Name.size());
    S.u64(R.CodeStart);
    S.u64(R.CodeLen);
    S.u64(R.SpillSlots);
  }
  S.u64(Exe.Data.size());
  for (int64_t D : Exe.Data)
    S.u64(static_cast<uint64_t>(D));
  S.u64(Exe.GlobalOffset.size());
  for (uint32_t G : Exe.GlobalOffset)
    S.u64(G);
  S.u64(Exe.Entry);
  S.u64(Exe.NumProbes);
  return S.digest();
}
