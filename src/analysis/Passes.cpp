//===- analysis/Passes.cpp ------------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "analysis/Passes.h"

#include "analysis/Dataflow.h"
#include "ir/Liveness.h"

#include <algorithm>
#include <map>
#include <string>

namespace scmo {

namespace {

Diagnostic makeDiag(CheckCode Code, RoutineId R, BlockId B, uint32_t InstrIdx,
                    uint32_t Line, std::string Msg) {
  Diagnostic D;
  D.Sev = defaultSeverity(Code);
  D.Code = Code;
  D.Routine = R;
  D.Block = B;
  D.InstrIdx = InstrIdx;
  D.Line = Line;
  D.Message = std::move(Msg);
  return D;
}

std::string regName(RegId R) { return "r" + std::to_string(R); }

/// Flags blocks with no path from entry. Frontend-synthesized merge blocks
/// (a lone implicit `ret 0` left after both branches of an if/else return)
/// are suppressed: they carry no user code.
void checkUnreachable(RoutineId R, const RoutineBody &Body,
                      const std::vector<bool> &Reach, RoutineFacts &Facts) {
  for (size_t B = 0; B != Body.Blocks.size(); ++B) {
    if (Reach[B])
      continue;
    // Suppress blocks holding nothing but a terminator: the frontend
    // synthesizes lone-ret merge blocks (if/else where both arms return)
    // and lone-jmp fallthrough stubs (an if arm that returns), and neither
    // carries user computation worth reporting.
    const std::vector<Instr *> &Instrs = Body.Blocks[B].Instrs;
    if (Instrs.size() == 1 && Instrs[0]->isTerm())
      continue;
    Facts.Diags.push_back(makeDiag(
        CheckCode::UnreachableBlock, R, static_cast<BlockId>(B), InvalidId,
        Instrs.empty() ? 0 : Instrs.front()->Line,
        "block is unreachable from entry"));
  }
}

void checkConstantTrap(RoutineId R, const RoutineBody &Body,
                       RoutineFacts &Facts) {
  for (size_t B = 0; B != Body.Blocks.size(); ++B) {
    const std::vector<Instr *> &Instrs = Body.Blocks[B].Instrs;
    for (size_t Idx = 0; Idx != Instrs.size(); ++Idx) {
      const Instr &I = *Instrs[Idx];
      if ((I.Op != Opcode::Div && I.Op != Opcode::Rem) || !I.B.isImm() ||
          I.B.asImm() != 0)
        continue;
      Facts.Diags.push_back(makeDiag(
          CheckCode::ConstantTrap, R, static_cast<BlockId>(B),
          static_cast<uint32_t>(Idx), I.Line,
          std::string(I.Op == Opcode::Div ? "division" : "remainder") +
              " by constant zero (the VM defines the result as 0)"));
    }
  }
}

/// Forward may-analysis over "registers that may still hold no definition".
/// Entry boundary: every register except the parameters. A block's defs kill
/// undefined-ness; nothing generates it. Unreachable blocks report nothing
/// (their In stays bottom), which matches the unreachable-block check
/// owning that territory.
uint64_t checkDefBeforeUse(RoutineId R, const RoutineBody &Body,
                           RoutineFacts &Facts, Arena &Scratch) {
  uint32_t U = Body.NextReg;
  if (!U)
    return 0;
  std::vector<BlockTransfer> T(Body.Blocks.size(),
                               BlockTransfer(U, &Scratch));
  for (size_t B = 0; B != Body.Blocks.size(); ++B)
    for (const Instr *I : Body.Blocks[B].Instrs)
      if (definesValue(I->Op) && I->Dst != NoReg)
        T[B].Kill.set(I->Dst);

  RegBitSet Entry(U, &Scratch);
  for (uint32_t Reg = Body.NumParams; Reg < U; ++Reg)
    Entry.set(Reg);

  DataflowResult DF =
      solveForward(Body, T, Entry, MeetOp::Union, U, &Scratch);

  for (size_t B = 0; B != Body.Blocks.size(); ++B) {
    RegBitSet MaybeUndef = DF.In[B];
    const std::vector<Instr *> &Instrs = Body.Blocks[B].Instrs;
    for (size_t Idx = 0; Idx != Instrs.size(); ++Idx) {
      const Instr &I = *Instrs[Idx];
      forEachUseReg(I, [&](RegId Use) {
        if (!MaybeUndef.test(Use))
          return;
        Facts.Diags.push_back(makeDiag(
            CheckCode::DefBeforeUse, R, static_cast<BlockId>(B),
            static_cast<uint32_t>(Idx), I.Line,
            "register " + regName(Use) + " may be read before it is set"));
        MaybeUndef.reset(Use); // One report per register per block.
      });
      if (definesValue(I.Op) && I.Dst != NoReg)
        MaybeUndef.reset(I.Dst);
    }
  }
  return DF.bytes() + uint64_t(2) * ((U + 63) / 64) * 8 * Body.Blocks.size();
}

/// Block liveness (ir/Liveness) walked backward through each block; a
/// side-effect-free definition whose register is dead immediately after the
/// instruction is a dead store. Calls are exempt by hasSideEffects;
/// unreachable blocks are skipped (everything in them is trivially dead, and
/// the unreachable-block check already fired). As a by-product, records into
/// \p CallLive — keyed (block << 32) | instr — whether each reachable call's
/// result register is live after the call, which is the summary's per-site
/// ResultUsed fact.
void checkDeadStore(RoutineId R, const RoutineBody &Body,
                    const std::vector<bool> &Reach, RoutineFacts &Facts,
                    std::map<uint64_t, bool> &CallLive) {
  if (!Body.NextReg)
    return;
  // Worker-lifetime buffers, as in DCE: a warm worker allocates nothing.
  thread_local Liveness LV;
  thread_local std::vector<uint64_t> Live;
  LV.solve(Body);
  auto IsLive = [&](RegId V) { return (Live[V >> 6] >> (V & 63)) & 1; };
  for (BlockId B = 0; B != Body.Blocks.size(); ++B) {
    if (!Reach[B])
      continue;
    Live.assign(LV.liveOut(B), LV.liveOut(B) + LV.words());
    const std::vector<Instr *> &Instrs = Body.Blocks[B].Instrs;
    for (size_t Idx = Instrs.size(); Idx-- != 0;) {
      const Instr &I = *Instrs[Idx];
      bool Defines = definesValue(I.Op) && I.Dst != NoReg;
      if (I.Op == Opcode::Call)
        CallLive[(static_cast<uint64_t>(B) << 32) | Idx] =
            I.Dst != NoReg && IsLive(I.Dst);
      if (Defines && !hasSideEffects(I.Op) && !IsLive(I.Dst))
        Facts.Diags.push_back(makeDiag(
            CheckCode::DeadStore, R, B, static_cast<uint32_t>(Idx), I.Line,
            "value stored to register " + regName(I.Dst) + " is never read"));
      if (Defines)
        Live[I.Dst >> 6] &= ~(1ull << (I.Dst & 63));
      forEachUseReg(I, [&](RegId Use) { Live[Use >> 6] |= 1ull << (Use & 63); });
    }
  }
}

/// Bitmask over the first 32 parameters; everything past bit 31 is handled
/// conservatively by the consumers.
uint32_t paramBit(uint32_t Reg, uint32_t NumParams) {
  return Reg < NumParams && Reg < 32 ? (1u << Reg) : 0;
}

/// Registers holding parameters that some instruction reassigns: their
/// occurrence in a call argument is a computed value, not a forwarded
/// parameter.
uint32_t modifiedParamMask(const RoutineBody &Body) {
  uint32_t Modified = 0;
  for (const BasicBlock &BB : Body.Blocks)
    for (const Instr *I : BB.Instrs)
      if (definesValue(I->Op) && I->Dst != NoReg)
        Modified |= paramBit(I->Dst, Body.NumParams);
  return Modified;
}

/// Callees invoked on every path from entry to some reachable Ret: a
/// forward must-analysis (intersect meet) over the distinct-callee
/// universe, intersected across all returning blocks. \returns scratch
/// bytes used.
uint64_t extractMustCallees(const RoutineBody &Body,
                            const std::vector<bool> &Reach,
                            AnalysisSummary &Sum, Arena &Scratch) {
  std::map<RoutineId, uint32_t> CalleeIdx;
  for (const AnalysisSummary::Site &S : Sum.Sites)
    CalleeIdx.emplace(S.Callee, 0);
  if (CalleeIdx.empty())
    return 0;
  uint32_t U = 0;
  for (auto &[Callee, Idx] : CalleeIdx)
    Idx = U++;

  std::vector<BlockTransfer> T(Body.Blocks.size(),
                               BlockTransfer(U, &Scratch));
  for (size_t B = 0; B != Body.Blocks.size(); ++B)
    for (const Instr *I : Body.Blocks[B].Instrs)
      if (I->Op == Opcode::Call)
        T[B].Gen.set(CalleeIdx.at(I->Sym));

  RegBitSet Entry(U, &Scratch); // Entry boundary: nothing called yet.
  DataflowResult DF =
      solveForward(Body, T, Entry, MeetOp::Intersect, U, &Scratch);

  // Every call in a block precedes its terminator, so the must-call set at
  // a Ret is exactly Out of the returning block.
  RegBitSet Must(U, &Scratch);
  bool AnyRet = false;
  for (size_t B = 0; B != Body.Blocks.size(); ++B) {
    if (!Reach[B] || Body.Blocks[B].Instrs.empty())
      continue;
    if (Body.Blocks[B].Instrs.back()->Op != Opcode::Ret)
      continue;
    if (!AnyRet) {
      Must = DF.Out[B];
      AnyRet = true;
    } else {
      Must.intersect(DF.Out[B]);
    }
  }
  if (AnyRet)
    for (const auto &[Callee, Idx] : CalleeIdx)
      if (Must.test(Idx))
        Sum.MustCallees.push_back(Callee); // Map order: ascending RoutineId.
  return DF.bytes();
}

/// Fills the full AnalysisSummary for a verified body. \p CallLive is the
/// dead-store pass's per-reachable-call result-liveness record.
uint64_t extractSummary(const RoutineBody &Body,
                        const std::vector<bool> &Reach,
                        const std::map<uint64_t, bool> &CallLive,
                        AnalysisSummary &Sum, Arena &Scratch) {
  Sum.NumParams = Body.NumParams;
  uint32_t Modified = modifiedParamMask(Body);

  for (size_t B = 0; B != Body.Blocks.size(); ++B) {
    const std::vector<Instr *> &Instrs = Body.Blocks[B].Instrs;
    for (size_t Idx = 0; Idx != Instrs.size(); ++Idx) {
      const Instr &I = *Instrs[Idx];
      switch (I.Op) {
      case Opcode::LoadG:
      case Opcode::LoadIdx:
        Sum.Loads.push_back({I.Sym, static_cast<BlockId>(B),
                             static_cast<uint32_t>(Idx), I.Line, Reach[B]});
        break;
      case Opcode::StoreG:
      case Opcode::StoreIdx:
        Sum.Stores.push_back({I.Sym, static_cast<BlockId>(B),
                              static_cast<uint32_t>(Idx), I.Line, Reach[B]});
        break;
      case Opcode::Ret:
        if (Reach[B] && I.A.isReg())
          Sum.HasComputedReturn = true;
        break;
      case Opcode::Div:
      case Opcode::Rem:
        if (Reach[B] && I.B.isReg()) {
          uint32_t Bit = paramBit(I.B.asReg(), Body.NumParams);
          if (Bit && !(Modified & Bit))
            Sum.TrapOnZeroParams |= Bit;
        }
        break;
      case Opcode::Call: {
        AnalysisSummary::Site S;
        S.Callee = I.Sym;
        S.Block = static_cast<BlockId>(B);
        S.InstrIdx = static_cast<uint32_t>(Idx);
        S.Line = I.Line;
        S.Reachable = Reach[B];
        if (Reach[B]) {
          auto It =
              CallLive.find((static_cast<uint64_t>(B) << 32) | Idx);
          S.ResultUsed = It == CallLive.end() ? true : It->second;
        } else {
          // The call never executes; claim the result is used so the site
          // suppresses rather than triggers ignored-return.
          S.ResultUsed = true;
        }
        S.Args.reserve(I.NumArgs);
        for (uint16_t A = 0; A != I.NumArgs; ++A) {
          AnalysisSummary::CallArg Arg;
          if (I.Args[A].isImm()) {
            Arg.Kind = AnalysisSummary::ArgKind::Constant;
            Arg.Imm = I.Args[A].asImm();
          } else if (I.Args[A].isReg()) {
            uint32_t Reg = I.Args[A].asReg();
            uint32_t Bit = paramBit(Reg, Body.NumParams);
            if (Bit && !(Modified & Bit)) {
              Arg.Kind = AnalysisSummary::ArgKind::ParamCopy;
              Arg.Param = static_cast<uint8_t>(Reg);
            }
          }
          S.Args.push_back(Arg);
        }
        Sum.Sites.push_back(std::move(S));
        break;
      }
      default:
        break;
      }

      // Direct parameter uses: any read outside a forwarded call-argument
      // position. Unreachable blocks count — a use is a use for the
      // optimistic dead-parameter fixpoint's purposes.
      if (I.Op == Opcode::Call) {
        for (uint16_t A = 0; A != I.NumArgs; ++A) {
          if (!I.Args[A].isReg())
            continue;
          uint32_t Reg = I.Args[A].asReg();
          uint32_t Bit = paramBit(Reg, Body.NumParams);
          if (Bit && !(Modified & Bit))
            continue; // Forwarded, resolved interprocedurally.
          Sum.DirectlyUsedParams |= Bit;
        }
      } else {
        forEachUseReg(I, [&](RegId Use) {
          Sum.DirectlyUsedParams |= paramBit(Use, Body.NumParams);
        });
      }
    }
  }

  return extractMustCallees(Body, Reach, Sum, Scratch);
}

} // namespace

void runLocalChecks(RoutineId R, const RoutineBody &Body,
                    RoutineFacts &Facts) {
  if (Body.Blocks.empty())
    return;
  std::vector<bool> Reach = reachableFromEntry(Body);

  checkUnreachable(R, Body, Reach, Facts);
  checkConstantTrap(R, Body, Facts);
  // One routine-lifetime pool for every bit-vector the forward solves
  // derive, reset between them so the footprint matches the ScratchBytes
  // model (sequential solves: peak = max, not sum). Untracked: ScratchBytes
  // is replayed through the tracker by the driver, for cache hits too, and
  // double-charging here would break that replay's byte identity.
  Arena Scratch(nullptr, MemCategory::HloDerived, /*SlabSize=*/16 * 1024);
  uint64_t Fwd = checkDefBeforeUse(R, Body, Facts, Scratch);
  Scratch.reset();
  std::map<uint64_t, bool> CallLive;
  checkDeadStore(R, Body, Reach, Facts, CallLive);
  uint64_t Sum = extractSummary(Body, Reach, CallLive, Facts.Summary, Scratch);
  Facts.ScratchBytes = std::max(Fwd, Sum);
}

void extractMinimalSummary(const Program &P, const RoutineBody &Body,
                           AnalysisSummary &Out) {
  Out.NumParams = Body.NumParams;
  Out.DirectlyUsedParams = ~0u;
  Out.HasComputedReturn = true;
  Out.Minimal = true;
  for (size_t B = 0; B != Body.Blocks.size(); ++B) {
    const std::vector<Instr *> &Instrs = Body.Blocks[B].Instrs;
    for (size_t Idx = 0; Idx != Instrs.size(); ++Idx) {
      const Instr &I = *Instrs[Idx];
      switch (I.Op) {
      case Opcode::LoadG:
      case Opcode::LoadIdx:
        if (I.Sym < P.numGlobals())
          Out.Loads.push_back({I.Sym, static_cast<BlockId>(B),
                               static_cast<uint32_t>(Idx), I.Line, true});
        break;
      case Opcode::StoreG:
      case Opcode::StoreIdx:
        if (I.Sym < P.numGlobals())
          Out.Stores.push_back({I.Sym, static_cast<BlockId>(B),
                                static_cast<uint32_t>(Idx), I.Line, true});
        break;
      case Opcode::Call:
        if (I.Sym < P.numRoutines()) {
          AnalysisSummary::Site S;
          S.Callee = I.Sym;
          S.Block = static_cast<BlockId>(B);
          S.InstrIdx = static_cast<uint32_t>(Idx);
          S.Line = I.Line;
          Out.Sites.push_back(std::move(S));
        }
        break;
      default:
        break;
      }
    }
  }
}

} // namespace scmo
