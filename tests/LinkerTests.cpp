//===- tests/LinkerTests.cpp ----------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "frontend/Frontend.h"
#include "llo/Codegen.h"
#include "llo/MachinePrinter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>

using namespace scmo;
using namespace scmo::test;

namespace {

struct LinkFixture {
  Program P;
  std::vector<MachineRoutine> Machines;

  explicit LinkFixture(const char *Src) {
    FrontendResult FR = compileSource(P, "m", Src);
    EXPECT_TRUE(FR.Ok) << FR.Error;
    for (RoutineId R = 0; R != P.numRoutines(); ++R)
      if (P.routine(R).IsDefined)
        Machines.push_back(lowerRoutine(P, R, P.body(R), LloOptions()));
  }
};

/// Pettis-Hansen chain merging written the plain way — one deque per
/// chain, physical reversal — as the oracle for the linker's index-list
/// version: both must place routines in exactly the same order.
std::vector<RoutineId>
referenceClusterOrder(const std::vector<MachineRoutine> &Machines,
                      const std::vector<CallEdgeWeight> &Edges) {
  size_t N = Machines.size();
  std::map<RoutineId, uint32_t> IndexOf;
  for (uint32_t Idx = 0; Idx != N; ++Idx)
    IndexOf[Machines[Idx].Routine] = Idx;
  std::vector<std::deque<uint32_t>> Chains(N);
  std::vector<uint32_t> ChainOf(N);
  for (uint32_t Idx = 0; Idx != N; ++Idx) {
    Chains[Idx].push_back(Idx);
    ChainOf[Idx] = Idx;
  }
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
    auto FromIt = IndexOf.find(E.From), ToIt = IndexOf.find(E.To);
    if (FromIt == IndexOf.end() || ToIt == IndexOf.end())
      continue;
    uint32_t A = FromIt->second, B = ToIt->second;
    uint32_t CA = ChainOf[A], CB = ChainOf[B];
    if (CA == CB)
      continue;
    std::deque<uint32_t> &ChA = Chains[CA], &ChB = Chains[CB];
    if (ChA.back() != A) {
      if (ChA.front() != A)
        continue;
      std::reverse(ChA.begin(), ChA.end());
    }
    if (ChB.front() != B) {
      if (ChB.back() != B)
        continue;
      std::reverse(ChB.begin(), ChB.end());
    }
    for (uint32_t Member : ChB) {
      ChA.push_back(Member);
      ChainOf[Member] = CA;
    }
    ChB.clear();
  }
  std::vector<std::pair<uint64_t, uint32_t>> Ranks; // (-hotness, chain)
  for (uint32_t C = 0; C != N; ++C) {
    if (Chains[C].empty())
      continue;
    uint64_t Hot = 0;
    for (uint32_t Member : Chains[C])
      Hot = std::max(Hot, Machines[Member].EntryFreq);
    Ranks.push_back({~Hot, C});
  }
  std::sort(Ranks.begin(), Ranks.end());
  std::vector<RoutineId> Order;
  for (const auto &[NegHot, C] : Ranks)
    for (uint32_t Member : Chains[C])
      Order.push_back(Machines[Member].Routine);
  return Order;
}

/// \p Machines as a unit artifact hands them to the linker: every routine
/// and global operand rewritten to an index into one shared table. The
/// tables list ids in reverse first-use order, so no index equals its id.
std::vector<MachineRoutine>
withRefTables(const std::vector<MachineRoutine> &Machines) {
  auto Refs = std::make_shared<SymRefs>();
  std::map<uint32_t, uint32_t> RIdx, GIdx;
  for (const MachineRoutine &MR : Machines)
    for (const MInstr &I : decodeMachine(MR)) {
      SymKind Kind = symKind(I.Op);
      if (Kind == SymKind::Routine && !RIdx.count(I.Sym)) {
        RIdx[I.Sym] = 0;
        Refs->Routines.insert(Refs->Routines.begin(), I.Sym);
      } else if (Kind == SymKind::Global && !GIdx.count(I.Sym)) {
        GIdx[I.Sym] = 0;
        Refs->Globals.insert(Refs->Globals.begin(), I.Sym);
      }
    }
  for (uint32_t Idx = 0; Idx != Refs->Routines.size(); ++Idx)
    RIdx[Refs->Routines[Idx]] = Idx;
  for (uint32_t Idx = 0; Idx != Refs->Globals.size(); ++Idx)
    GIdx[Refs->Globals[Idx]] = Idx;
  std::vector<MachineRoutine> Out;
  for (const MachineRoutine &MR : Machines) {
    MachineRoutine T = MR;
    T.Code.clear();
    for (MInstr I : decodeMachine(MR)) {
      if (symKind(I.Op) == SymKind::Routine)
        I.Sym = RIdx[I.Sym];
      else if (symKind(I.Op) == SymKind::Global)
        I.Sym = GIdx[I.Sym];
      encodeMInstr(T.Code, I);
    }
    T.Refs = Refs;
    Out.push_back(std::move(T));
  }
  return Out;
}

/// Rewrites the Sym of \p MR's first instruction for which \p Pick holds.
bool setFirstSym(MachineRoutine &MR, bool (*Pick)(MOp), uint32_t Sym) {
  std::vector<MInstr> Code = decodeMachine(MR);
  auto It = std::find_if(Code.begin(), Code.end(),
                         [&](const MInstr &I) { return Pick(I.Op); });
  if (It == Code.end())
    return false;
  It->Sym = Sym;
  MR.Code.clear();
  for (const MInstr &I : Code)
    encodeMInstr(MR.Code, I);
  return true;
}

} // namespace

TEST(Linker, ReferenceTablesResolveLikeProgramIds) {
  const char *Src = R"(
global g = 3;
global arr[9];
func add(a, b) { return a + b + g; }
func fill(n) {
  var i = 0;
  while (i < n) { arr[i] = add(i, 1); i = i + 1; }
  return arr[n - 1];
}
func main() {
  g = 2;
  print fill(12);
  return add(arr[4], g);
}
)";
  LinkFixture F(Src);
  std::vector<MachineRoutine> Tabled = withRefTables(F.Machines);
  ASSERT_FALSE(Tabled[0].Refs->Routines.empty());
  ASSERT_FALSE(Tabled[0].Refs->Globals.empty());
  for (size_t I = 0; I != Tabled.size(); ++I)
    EXPECT_EQ(printMachineRoutine(Tabled[I]),
              printMachineRoutine(F.Machines[I]));

  LinkOptions Opts;
  std::string Err;
  Executable Direct = linkProgram(F.P, F.Machines, Opts, Err);
  ASSERT_TRUE(Err.empty()) << Err;
  Executable Resolved = linkProgram(F.P, Tabled, Opts, Err);
  ASSERT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(hashExecutable(Resolved), hashExecutable(Direct));
  RunResult Run = runExecutable(Resolved);
  ASSERT_TRUE(Run.Ok) << Run.Error;
  EXPECT_EQ(Run.OutputChecksum, runExecutable(Direct).OutputChecksum);

  // An index past the table is a link error, never an out-of-bounds read.
  auto isCall = [](MOp Op) { return Op == MOp::Call; };
  auto isStoreIdx = [](MOp Op) { return Op == MOp::StoreIdx; };
  for (auto Pick : {+isCall, +isStoreIdx}) {
    std::vector<MachineRoutine> Bad = Tabled;
    bool Damaged = false;
    for (MachineRoutine &MR : Bad)
      if (!Damaged)
        Damaged = setFirstSym(MR, Pick, 1000);
    ASSERT_TRUE(Damaged);
    Executable Exe = linkProgram(F.P, std::move(Bad), Opts, Err);
    EXPECT_NE(Err.find("past the reference tables"), std::string::npos)
        << Err;
    EXPECT_TRUE(Exe.Code.empty());
  }
}

TEST(Linker, LaysOutGlobalDataWithInitializers) {
  LinkFixture F(R"(
global a = 7;
global arr[5];
global b = -3;
func main() { return a + b; }
)");
  LinkOptions Opts;
  std::string Err;
  Executable Exe = linkProgram(F.P, std::move(F.Machines), Opts, Err);
  ASSERT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(Exe.Data.size(), 7u); // 1 + 5 + 1.
  GlobalId A = F.P.findGlobal("a");
  GlobalId B = F.P.findGlobal("b");
  EXPECT_EQ(Exe.Data[Exe.GlobalOffset[A]], 7);
  EXPECT_EQ(Exe.Data[Exe.GlobalOffset[B]], -3);
  RunResult Run = runExecutable(Exe);
  EXPECT_EQ(Run.ExitValue, 4);
}

TEST(Linker, ReportsUndefinedRoutineWithNames) {
  LinkFixture F("func main() { return missing(); }");
  LinkOptions Opts;
  std::string Err;
  linkProgram(F.P, std::move(F.Machines), Opts, Err);
  EXPECT_NE(Err.find("undefined routine"), std::string::npos);
  EXPECT_NE(Err.find("missing"), std::string::npos);
  EXPECT_NE(Err.find("main"), std::string::npos);
}

TEST(Linker, ReportsMissingMain) {
  LinkFixture F("func notmain() { return 1; }");
  LinkOptions Opts;
  std::string Err;
  linkProgram(F.P, std::move(F.Machines), Opts, Err);
  EXPECT_NE(Err.find("main"), std::string::npos);
}

TEST(Linker, ClusteringPutsHotCalleesAdjacent) {
  LinkFixture F(R"(
func cold1(x) { return x; }
func hotCallee(x) { return x * 2; }
func cold2(x) { return x; }
func main() {
  var s = 0;
  s = s + hotCallee(1);
  s = s + cold1(2) + cold2(3);
  return s;
}
)");
  // Mark entry frequencies so main and hotCallee look hot, with a heavy
  // call edge main -> hotCallee.
  for (MachineRoutine &MR : F.Machines) {
    if (MR.Name == "main")
      MR.EntryFreq = 1000;
    if (MR.Name == "hotCallee")
      MR.EntryFreq = 900;
  }
  LinkOptions Opts;
  Opts.ClusterByProfile = true;
  CallEdgeWeight E;
  E.From = F.P.findRoutine("main");
  E.To = F.P.findRoutine("hotCallee");
  E.Weight = 900;
  Opts.EdgeWeights.push_back(E);
  std::string Err;
  Executable Exe = linkProgram(F.P, std::move(F.Machines), Opts, Err);
  ASSERT_TRUE(Err.empty()) << Err;
  // main and hotCallee occupy the first two slots, adjacent.
  EXPECT_EQ(Exe.Routines[0].Name, "main");
  EXPECT_EQ(Exe.Routines[1].Name, "hotCallee");
  RunResult Run = runExecutable(Exe);
  EXPECT_TRUE(Run.Ok);
  EXPECT_EQ(Run.ExitValue, 7);
}

TEST(Linker, ClusteringIsDeterministic) {
  auto linkOnce = [&]() {
    LinkFixture F(R"(
func a(x) { return x; }
func b(x) { return x; }
func c(x) { return x; }
func main() { return a(1) + b(2) + c(3); }
)");
    LinkOptions Opts;
    Opts.ClusterByProfile = true;
    std::string Err;
    Executable Exe = linkProgram(F.P, std::move(F.Machines), Opts, Err);
    std::vector<std::string> Names;
    for (const ExeRoutine &ER : Exe.Routines)
      Names.push_back(ER.Name);
    return Names;
  };
  EXPECT_EQ(linkOnce(), linkOnce());
}

TEST(Linker, IndexedOpsCarryArraySizes) {
  LinkFixture F(R"(
global arr[17];
func main() {
  arr[20] = 5;
  return arr[3];
}
)");
  LinkOptions Opts;
  std::string Err;
  Executable Exe = linkProgram(F.P, std::move(F.Machines), Opts, Err);
  ASSERT_TRUE(Err.empty());
  bool SawIdx = false;
  for (const MInstr &I : Exe.Code)
    if (I.Op == MOp::StoreIdx || I.Op == MOp::LoadIdx) {
      EXPECT_EQ(I.Slot, 17u);
      SawIdx = true;
    }
  EXPECT_TRUE(SawIdx);
  RunResult Run = runExecutable(Exe);
  EXPECT_EQ(Run.ExitValue, 5); // arr[20] wrapped onto arr[3].
}

TEST(Linker, BranchTargetsAreAbsoluteAndInRange) {
  LinkFixture F(R"(
func f(n) {
  var s = 0;
  while (n > 0) { s = s + n; n = n - 1; }
  return s;
}
func main() { return f(4); }
)");
  LinkOptions Opts;
  std::string Err;
  Executable Exe = linkProgram(F.P, std::move(F.Machines), Opts, Err);
  ASSERT_TRUE(Err.empty());
  for (const MInstr &I : Exe.Code)
    if (I.Op == MOp::Jmp || I.Op == MOp::Br || I.Op == MOp::Brz)
      EXPECT_LT(I.Target, Exe.Code.size());
  RunResult Run = runExecutable(Exe);
  EXPECT_EQ(Run.ExitValue, 10);
}

TEST(Linker, ProbeCountPropagates) {
  LinkFixture F("func main() { return 0; }");
  LinkOptions Opts;
  Opts.NumProbes = 42;
  std::string Err;
  Executable Exe = linkProgram(F.P, std::move(F.Machines), Opts, Err);
  ASSERT_TRUE(Err.empty());
  EXPECT_EQ(Exe.NumProbes, 42u);
  RunResult Run = runExecutable(Exe);
  EXPECT_EQ(Run.Probes.size(), 42u);
}

TEST(Linker, RejectsMalformedMachineCode) {
  for (int Damage = 0; Damage != 3; ++Damage) {
    LinkFixture F(R"(
func f(n) {
  var s = 0;
  while (n > 0) { s = s + n; n = n - 1; }
  return s;
}
func main() { return f(4); }
)");
    MachineRoutine &MR = F.Machines[0];
    if (Damage == 0)
      MR.Code.pop_back(); // Truncated.
    else if (Damage == 1)
      MR.NumInstrs = UINT32_MAX; // A count the bytes cannot hold.
    else
      MR.Code[0] = uint8_t(NumMOps); // An opcode past the table.
    std::string Err;
    Executable Exe =
        linkProgram(F.P, std::move(F.Machines), LinkOptions(), Err);
    EXPECT_NE(Err.find("malformed machine code"), std::string::npos)
        << "damage " << Damage << ": " << Err;
    EXPECT_TRUE(Exe.Code.empty());
  }
}

TEST(Linker, ClusteringMatchesTheChainMergingOracle) {
  // Random hotness and random weighted edges (self edges, duplicates and
  // edges to routines outside the link set included) over many routines:
  // the placement must equal the plain deque-based chain merge.
  std::string Src;
  const unsigned N = 40;
  for (unsigned I = 0; I != N; ++I)
    Src += "func f" + std::to_string(I) + "(x) { return x + " +
           std::to_string(I) + "; }\n";
  Src += "func main() { return f0(1); }\n";
  Prng Rng(0xc1u);
  for (int Round = 0; Round != 60; ++Round) {
    LinkFixture F(Src.c_str());
    for (MachineRoutine &MR : F.Machines)
      MR.EntryFreq = Rng.nextBelow(4) == 0 ? 0 : Rng.nextBelow(50);
    LinkOptions Opts;
    Opts.ClusterByProfile = true;
    RoutineId Span = RoutineId(F.P.numRoutines() + 2);
    for (uint64_t E = 0, NE = Rng.nextBelow(3 * N); E != NE; ++E)
      Opts.EdgeWeights.push_back({RoutineId(Rng.nextBelow(Span)),
                                  RoutineId(Rng.nextBelow(Span)),
                                  Rng.nextBelow(8)});
    std::vector<RoutineId> Want =
        referenceClusterOrder(F.Machines, Opts.EdgeWeights);
    std::string Err;
    Executable Exe = linkProgram(F.P, std::move(F.Machines), Opts, Err);
    ASSERT_TRUE(Err.empty()) << Err;
    std::vector<RoutineId> Got;
    for (const ExeRoutine &ER : Exe.Routines)
      Got.push_back(ER.Routine);
    ASSERT_EQ(Got, Want) << "round " << Round;
  }
}
