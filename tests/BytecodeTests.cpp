//===- tests/BytecodeTests.cpp --------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compact relocatable encoding and IL object files. The central property:
/// compact -> expand is the identity on everything the optimizer can
/// observe, for *any* valid body (randomized bodies included) — the paper's
/// determinism requirement hinges on it. The decoders read bytes from disk,
/// so a seeded mutation fuzzer checks that every corrupted input either
/// fails with the program untouched or decodes to exactly what it encodes.
/// The same fuzzer covers the dense machine-code encoding and the unit
/// artifacts that carry it: a mutant is rejected or decodes to code the VM
/// can run safely. It also covers the profile database's text: a mutant is
/// rejected or round-trips through serialize(); and the NAIM repository's
/// record frames: a fetch from a mutated file fails or returns exactly the
/// stored record. The analysis cache's entries: a mutant misses with
/// nothing loaded or decodes to facts that re-encode to its bytes.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/SummaryCache.h"
#include "bytecode/Compact.h"
#include "bytecode/ObjectFile.h"
#include "cache/ArtifactCache.h"
#include "cache/CacheFormat.h"
#include "frontend/Frontend.h"
#include "llo/Codegen.h"
#include "naim/Repository.h"
#include "profile/ProfileDb.h"
#include "support/Hash.h"
#include "support/VarInt.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <unistd.h>

using namespace scmo;
using namespace scmo::test;

TEST(Compact, EmptyishBodyRoundTrips) {
  RoutineBody Body;
  Body.NumParams = 2;
  Body.NextReg = 2;
  Body.newBlock();
  Instr *Ret = Body.newInstr(Opcode::Ret);
  Ret->A = Operand::reg(0);
  Body.Blocks[0].Instrs.push_back(Ret);
  auto Bytes = compactRoutine(Body);
  auto Out = expandRoutine(Bytes, nullptr);
  ASSERT_NE(Out, nullptr);
  std::string Why;
  EXPECT_TRUE(bodiesEqual(Body, *Out, &Why)) << Why;
}

/// Property test: random bodies round-trip exactly, with and without profile
/// annotations.
TEST(Compact, RandomBodiesRoundTripExactly) {
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    Prng Rng(Seed);
    auto Body = randomBody(Rng, /*NumGlobals=*/8, /*NumRoutines=*/5,
                           /*WithProfile=*/Seed % 2 == 0);
    auto Bytes = compactRoutine(*Body);
    auto Out = expandRoutine(Bytes, nullptr);
    ASSERT_NE(Out, nullptr) << "seed " << Seed;
    std::string Why;
    EXPECT_TRUE(bodiesEqual(*Body, *Out, &Why)) << "seed " << Seed << ": "
                                                << Why;
  }
}

TEST(Compact, DoubleRoundTripIsStable) {
  Prng Rng(99);
  auto Body = randomBody(Rng, 4, 4, true);
  auto Bytes1 = compactRoutine(*Body);
  auto Out1 = expandRoutine(Bytes1, nullptr);
  ASSERT_NE(Out1, nullptr);
  auto Bytes2 = compactRoutine(*Out1);
  EXPECT_EQ(Bytes1, Bytes2); // Byte-identical re-encoding (determinism).
}

TEST(Compact, CompactFormIsSubstantiallySmaller) {
  Prng Rng(7);
  auto Body = randomBody(Rng, 8, 5, false);
  MemoryTracker T;
  // Re-expand into a tracked arena to get an expanded-size measurement.
  auto Bytes = compactRoutine(*Body);
  auto Expanded = expandRoutine(Bytes, &T);
  ASSERT_NE(Expanded, nullptr);
  // The paper's ratio: ~1.7KB/line expanded vs ~0.9KB/line compacted — we
  // expect at least 3x here since expanded Instr objects are padded structs.
  EXPECT_LT(Bytes.size() * 3, Expanded->irBytes());
}

TEST(Compact, SymbolRemappingApplies) {
  RoutineBody Body;
  Body.NumParams = 0;
  Body.NextReg = 1;
  Body.newBlock();
  Instr *Load = Body.newInstr(Opcode::LoadG);
  Load->Dst = 0;
  Load->Sym = 3;
  Body.Blocks[0].Instrs.push_back(Load);
  Instr *Ret = Body.newInstr(Opcode::Ret);
  Ret->A = Operand::reg(0);
  Body.Blocks[0].Instrs.push_back(Ret);

  SymRemap Enc;
  Enc.Global = [](GlobalId G) { return G + 100; };
  auto Bytes = compactRoutine(Body, Enc);
  SymRemap Dec;
  Dec.Global = [](GlobalId G) { return G - 100; };
  auto Out = expandRoutine(Bytes, nullptr, Dec);
  ASSERT_NE(Out, nullptr);
  EXPECT_EQ(Out->Blocks[0].Instrs[0]->Sym, 3u);
}

TEST(Compact, TruncatedInputYieldsNull) {
  Prng Rng(5);
  auto Body = randomBody(Rng, 2, 2, false);
  auto Bytes = compactRoutine(*Body);
  for (size_t Cut : {size_t(1), Bytes.size() / 2, Bytes.size() - 1}) {
    std::vector<uint8_t> Truncated(Bytes.begin(), Bytes.begin() + Cut);
    EXPECT_EQ(expandRoutine(Truncated, nullptr), nullptr)
        << "cut at " << Cut;
  }
}

TEST(Compact, GarbageInputYieldsNull) {
  std::vector<uint8_t> Garbage = {0xff, 0xfe, 0x01, 0x80, 0x80, 0x80};
  EXPECT_EQ(expandRoutine(Garbage, nullptr), nullptr);
}

TEST(Compact, ChargesTrackerOnExpand) {
  Prng Rng(11);
  auto Body = randomBody(Rng, 2, 2, false);
  auto Bytes = compactRoutine(*Body);
  MemoryTracker T;
  auto Out = expandRoutine(Bytes, &T);
  ASSERT_NE(Out, nullptr);
  EXPECT_GT(T.liveBytes(MemCategory::HloIr), 0u);
  Out.reset();
  EXPECT_EQ(T.liveBytes(MemCategory::HloIr), 0u);
}

//===----------------------------------------------------------------------===//
// Object files
//===----------------------------------------------------------------------===//

namespace {

const char *LibSrc = R"(
global shared = 9;
static hidden;
func add2(a, b) { return a + b; }
static func helper(x) { return x * shared; }
func uselib(x) { hidden = x; return helper(add2(x, 1)); }
)";

const char *AppSrc = R"(
func main() {
  print uselib(4);
  print add2(10, 20);
  return 0;
}
)";

} // namespace

TEST(ObjectFile, WholeModuleRoundTripPreservesBodies) {
  Program P1;
  FrontendResult FR = compileSource(P1, "lib", LibSrc);
  ASSERT_TRUE(FR.Ok) << FR.Error;
  std::vector<uint8_t> Obj = writeObject(P1, FR.Module);
  EXPECT_GT(Obj.size(), 0u);

  Program P2;
  std::string Err;
  ModuleId M2 = readObject(P2, Obj, Err);
  ASSERT_NE(M2, InvalidId) << Err;
  EXPECT_EQ(P2.module(M2).SourceLines, P1.module(FR.Module).SourceLines);
  // Per-routine structural equality.
  for (const char *Name : {"add2", "uselib"}) {
    RoutineId R1 = P1.findRoutine(Name);
    RoutineId R2 = P2.findRoutine(Name);
    ASSERT_NE(R1, InvalidId);
    ASSERT_NE(R2, InvalidId);
    std::string Why;
    EXPECT_TRUE(bodiesEqual(P1.body(R1), P2.body(R2), &Why))
        << Name << ": " << Why;
  }
  // Debug records survive.
  EXPECT_EQ(P2.module(M2).Symtab.records().size(),
            P1.module(FR.Module).Symtab.records().size());
}

TEST(ObjectFile, ExternsLinkAcrossObjects) {
  // Compile modules into separate programs, write objects, link both into a
  // third program — the separate-compilation flow.
  std::vector<std::vector<uint8_t>> Objects;
  for (const auto &[Name, Src] :
       std::vector<std::pair<std::string, const char *>>{{"lib", LibSrc},
                                                         {"app", AppSrc}}) {
    Program P;
    FrontendResult FR = compileSource(P, Name, Src);
    ASSERT_TRUE(FR.Ok) << FR.Error;
    Objects.push_back(writeObject(P, FR.Module));
  }
  Program Linked;
  std::string Err;
  for (const auto &Obj : Objects)
    ASSERT_NE(readObject(Linked, Obj, Err), InvalidId) << Err;
  RoutineId Main = Linked.findRoutine("main");
  RoutineId Uselib = Linked.findRoutine("uselib");
  ASSERT_NE(Main, InvalidId);
  ASSERT_NE(Uselib, InvalidId);
  EXPECT_TRUE(Linked.routine(Uselib).IsDefined);
  // The app's call to uselib must reference the same routine id.
  bool Found = false;
  for (const Instr *I : Linked.body(Main).Blocks[0].Instrs)
    if (I->Op == Opcode::Call && I->Sym == Uselib)
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(ObjectFile, BadMagicIsRejected) {
  Program P;
  std::string Err;
  std::vector<uint8_t> Junk = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(readObject(P, Junk, Err), InvalidId);
  EXPECT_FALSE(Err.empty());
}

TEST(ObjectFile, DuplicateDefinitionIsRejected) {
  Program P1;
  FrontendResult FR = compileSource(P1, "lib", LibSrc);
  ASSERT_TRUE(FR.Ok);
  std::vector<uint8_t> Obj = writeObject(P1, FR.Module);
  Program P2;
  std::string Err;
  ASSERT_NE(readObject(P2, Obj, Err), InvalidId) << Err;
  EXPECT_EQ(readObject(P2, Obj, Err), InvalidId); // Same externs again.
  EXPECT_NE(Err.find("duplicate"), std::string::npos) << Err;
}

TEST(ObjectFile, FileIoRoundTrip) {
  std::vector<uint8_t> Bytes = {0, 1, 2, 255, 128, 7};
  std::string Path = "/tmp/scmo-test-obj.bin";
  ASSERT_TRUE(writeFile(Path, Bytes));
  std::vector<uint8_t> Read;
  ASSERT_TRUE(readFile(Path, Read));
  EXPECT_EQ(Read, Bytes);
  std::remove(Path.c_str());
  EXPECT_FALSE(readFile(Path, Read));
}

TEST(ObjectFile, ReadBackReproducesTheFrontendsIds) {
  // An object replays its module's symbol operations in the frontend's
  // order, so reading every module's object into a fresh program must
  // rebuild the symbol tables id for id — the property that lets a cached
  // object stand in for its source without changing the executable. The
  // generated modules exercise calls ahead of a callee's definition, calls
  // in nested blocks laid out after the loop exit, and globals referenced
  // before they are declared elsewhere.
  WorkloadParams Params;
  Params.Seed = 41;
  Params.NumModules = 6;
  Params.ColdRoutinesPerModule = 6;
  Params.WarmRoutines = 8;
  GeneratedProgram GP = generateProgram(Params);
  Program P1;
  for (const GeneratedModule &GM : GP.Modules)
    ASSERT_TRUE(compileSource(P1, GM.Name, GM.Source).Ok) << GM.Name;
  std::vector<std::vector<uint8_t>> Objects;
  for (ModuleId M = 0; M != P1.numModules(); ++M)
    Objects.push_back(writeObject(P1, M));

  Program P2;
  std::string Err;
  for (const std::vector<uint8_t> &Obj : Objects)
    ASSERT_NE(readObject(P2, Obj, Err), InvalidId) << Err;
  ASSERT_EQ(P2.Strings.size(), P1.Strings.size());
  for (StrId S = 0; S != P1.Strings.size(); ++S)
    EXPECT_EQ(P2.Strings.text(S), P1.Strings.text(S));
  ASSERT_EQ(P2.numRoutines(), P1.numRoutines());
  for (RoutineId R = 0; R != P1.numRoutines(); ++R) {
    const RoutineInfo &A = P1.routine(R), &B = P2.routine(R);
    EXPECT_EQ(A.Name, B.Name) << R;
    EXPECT_EQ(A.Owner, B.Owner) << R;
    EXPECT_EQ(A.NumParams, B.NumParams) << R;
    EXPECT_EQ(A.IsStatic, B.IsStatic) << R;
    ASSERT_EQ(A.IsDefined, B.IsDefined) << R;
    std::string Why;
    if (A.IsDefined) {
      EXPECT_TRUE(bodiesEqual(P1.body(R), P2.body(R), &Why)) << R << Why;
    }
  }
  ASSERT_EQ(P2.numGlobals(), P1.numGlobals());
  for (GlobalId G = 0; G != P1.numGlobals(); ++G) {
    EXPECT_EQ(P1.global(G).Name, P2.global(G).Name) << G;
    EXPECT_EQ(P1.global(G).Owner, P2.global(G).Owner) << G;
    EXPECT_EQ(P1.global(G).Size, P2.global(G).Size) << G;
    EXPECT_EQ(P1.global(G).Init, P2.global(G).Init) << G;
  }
  for (ModuleId M = 0; M != P1.numModules(); ++M) {
    EXPECT_EQ(P1.module(M).Routines, P2.module(M).Routines) << M;
    EXPECT_EQ(P1.module(M).Globals, P2.module(M).Globals) << M;
    // And the re-read module writes the same object back.
    EXPECT_EQ(writeObject(P2, M), Objects[M]) << M;
  }
}

TEST(ObjectFile, FrontendObjectsArePinnedToTheFormatVersion) {
  // Source-keyed cache entries (ArtifactCache::loadSource) are invalidated
  // by the source bytes and ObjectFormatVersion only, so a frontend change
  // that alters the IL it lowers would otherwise replay stale objects from
  // an existing cache directory. This golden hashes the objects of a fixed
  // generated program. If a change to the frontend or the object layout
  // moves it, bump ObjectFormatVersion and update both values here. (A
  // change to the workload generator alone moves it too; that one needs no
  // bump.)
  static_assert(ObjectFormatVersion == 2,
                "update the golden below together with the version");
  constexpr uint64_t Golden = 0xd6431cec323d4a49ull;
  WorkloadParams Params;
  Params.Seed = 43;
  Params.NumModules = 6;
  Params.ColdRoutinesPerModule = 4;
  Params.WarmRoutines = 6;
  GeneratedProgram GP = generateProgram(Params);
  Program P;
  std::vector<uint8_t> All;
  for (const GeneratedModule &GM : GP.Modules) {
    FrontendResult FR = compileSource(P, GM.Name, GM.Source);
    ASSERT_TRUE(FR.Ok) << FR.Error;
    std::vector<uint8_t> Obj = writeObject(P, FR.Module);
    All.insert(All.end(), Obj.begin(), Obj.end());
  }
  EXPECT_EQ(hashBytes(All.data(), All.size()), Golden)
      << std::hex << hashBytes(All.data(), All.size());
}

TEST(ObjectFile, FailedReadLeavesTheProgramUntouched) {
  // The context check happens before anything is declared: "app" calls
  // add2 with three arguments in a program where lib's add2 takes two.
  Program P1;
  ASSERT_TRUE(compileSource(P1, "app", "func main() { return add2(1, 2, 3); }")
                  .Ok);
  std::vector<uint8_t> Obj = writeObject(P1, 0);
  Program P2;
  ASSERT_TRUE(compileSource(P2, "lib", LibSrc).Ok);
  size_t Modules = P2.numModules(), Routines = P2.numRoutines(),
         Strings = P2.Strings.size();
  std::string Err;
  EXPECT_EQ(readObject(P2, Obj, Err), InvalidId);
  EXPECT_NE(Err.find("add2"), std::string::npos) << Err;
  EXPECT_EQ(P2.numModules(), Modules);
  EXPECT_EQ(P2.numRoutines(), Routines);
  EXPECT_EQ(P2.Strings.size(), Strings);
}

TEST(ObjectFile, CommitAgainstAChangedProgramIsFatal) {
  // parseObject's ids are predictions for one program state; committing
  // them after the program moved on would bind bodies to the wrong symbols,
  // so commitObject refuses at run time (not only in assert builds).
  Program P1;
  FrontendResult FR = compileSource(P1, "lib", LibSrc);
  ASSERT_TRUE(FR.Ok) << FR.Error;
  std::vector<uint8_t> Obj = writeObject(P1, FR.Module);
  EXPECT_DEATH(
      {
        Program P2;
        ObjectImage Img;
        std::string Err;
        if (!parseObject(P2, Obj.data(), Obj.size(), Img, Err))
          std::abort();
        compileSource(P2, "other", "func g() { return 1; }");
        commitObject(P2, std::move(Img));
      },
      "changed since parseObject");
}

TEST(Compact, HugeCountsAreErrorsNotAllocations) {
  // A block count of 2^40 in a 12-byte body: bounded by the bytes left,
  // rejected before anything is sized from it.
  std::vector<uint8_t> Bytes = {1, 0, 0, 0, 0};
  encodeVarUInt(Bytes, uint64_t(1) << 40);
  EXPECT_EQ(expandRoutine(Bytes, nullptr), nullptr);
  // Same for an instruction count.
  Bytes = {1, 0, 0, 0, 0, 1};
  encodeVarUInt(Bytes, uint64_t(1) << 40);
  EXPECT_EQ(expandRoutine(Bytes, nullptr), nullptr);
  // And for an object's symbol, record and body counts.
  Program P;
  FrontendResult FR = compileSource(P, "m", "");
  ASSERT_TRUE(FR.Ok) << FR.Error;
  std::vector<uint8_t> Obj = writeObject(P, FR.Module);
  std::string Err;
  for (size_t Cut = 1; Cut <= Obj.size(); ++Cut) {
    std::vector<uint8_t> Big(Obj.begin(), Obj.begin() + Cut);
    encodeVarUInt(Big, uint64_t(1) << 40);
    Program Q;
    EXPECT_EQ(readObject(Q, Big, Err), InvalidId) << Cut;
    EXPECT_EQ(Q.numModules(), 0u);
  }
}

TEST(Compact, NonCanonicalVarintsAreRejected) {
  std::vector<uint8_t> Overlong = {0x81, 0x00}; // 1, spelled in two bytes.
  ByteReader R1(Overlong);
  R1.readVarUInt();
  EXPECT_TRUE(R1.hadError());
  std::vector<uint8_t> Wide(9, 0xff);
  Wide.push_back(0x02); // Bit 64.
  ByteReader R2(Wide);
  R2.readVarUInt();
  EXPECT_TRUE(R2.hadError());
  std::vector<uint8_t> Max(9, 0xff);
  Max.push_back(0x01);
  ByteReader R3(Max);
  EXPECT_EQ(R3.readVarUInt(), ~uint64_t(0));
  EXPECT_FALSE(R3.hadError());
}

//===----------------------------------------------------------------------===//
// Mutation fuzzing of the on-disk decoders the warm build reads
//===----------------------------------------------------------------------===//

namespace {

/// Everything a failed decode must leave alone, hashed.
uint64_t programFingerprint(const Program &P) {
  std::vector<uint8_t> B;
  auto Put = [&B](uint64_t V) { encodeVarUInt(B, V); };
  Put(P.numModules());
  Put(P.numRoutines());
  Put(P.numGlobals());
  Put(P.Strings.size());
  for (ModuleId M = 0; M != P.numModules(); ++M) {
    const ModuleInfo &MI = P.module(M);
    Put(MI.Name);
    Put(MI.SourceLines);
    Put(MI.Touches.size());
    Put(MI.Symtab.state() == PoolState::Expanded ? MI.Symtab.records().size()
                                                 : MI.Symtab.compactSize());
    for (RoutineId R : MI.Routines)
      Put(R);
    for (GlobalId G : MI.Globals)
      Put(G);
  }
  for (RoutineId R = 0; R != P.numRoutines(); ++R) {
    const RoutineInfo &RI = P.routine(R);
    Put(RI.Name);
    Put(RI.Owner);
    Put(RI.NumParams);
    Put(RI.IsStatic);
    Put(RI.IsDefined);
    Put(RI.SourceLines);
  }
  for (GlobalId G = 0; G != P.numGlobals(); ++G) {
    const GlobalVar &GV = P.global(G);
    Put(GV.Name);
    Put(GV.Owner);
    Put(GV.Size);
    Put(uint64_t(GV.Init));
    Put(GV.IsStatic);
  }
  return hashBytes(B.data(), B.size());
}

/// One structure-blind mutation of \p A: bit flips, a truncation, an
/// overlong varint, an inflated length, or a splice with \p B.
std::vector<uint8_t> mutate(Prng &Rng, const std::vector<uint8_t> &A,
                            const std::vector<uint8_t> &B) {
  std::vector<uint8_t> M = A;
  size_t Pos = Rng.nextBelow(M.size());
  switch (Rng.nextBelow(5)) {
  case 0:
    for (uint64_t K = 0, N = 1 + Rng.nextBelow(4); K != N; ++K)
      M[Rng.nextBelow(M.size())] ^= uint8_t(1u << Rng.nextBelow(8));
    break;
  case 1:
    M.resize(Pos);
    break;
  case 2:
    // Re-spell the varint ending at Pos (if one does) with a needless
    // trailing zero group.
    for (; Pos != M.size() && M[Pos] >= 0x80; ++Pos) {
    }
    if (Pos != M.size()) {
      M[Pos] |= 0x80;
      M.insert(M.begin() + Pos + 1, 0x00);
    }
    break;
  case 3: {
    const uint8_t Big[] = {0xff, 0xff, 0xff, 0xff, 0x0f};
    M[Pos] = Big[0];
    M.insert(M.begin() + Pos + 1, Big + 1, Big + 5);
    break;
  }
  case 4: {
    size_t Cut = Rng.nextBelow(B.size() + 1);
    M.resize(Pos);
    M.insert(M.end(), B.begin() + Cut, B.end());
    break;
  }
  }
  return M;
}

/// A small generated program, the context for reading module \p Target:
/// every earlier module compiled, as the driver reads modules in order.
struct FuzzCorpus {
  GeneratedProgram GP;
  size_t Target = 2;
  std::vector<uint8_t> Object, Other;
  std::vector<uint64_t> Hashes;

  FuzzCorpus() {
    WorkloadParams Params;
    Params.Seed = 77;
    Params.NumModules = 4;
    Params.ColdRoutinesPerModule = 3;
    Params.HotRoutines = 4;
    GP = generateProgram(Params);
    Program Full;
    for (const GeneratedModule &GM : GP.Modules)
      EXPECT_TRUE(compileSource(Full, GM.Name, GM.Source).Ok);
    Object = writeObject(Full, ModuleId(Target));
    Other = writeObject(Full, ModuleId(Target + 1));
    for (const SymbolTouch &T : Full.module(ModuleId(Target)).Touches)
      if (T.K == SymbolTouch::Kind::Define)
        Hashes.push_back(contentHash(Full, Full.body(T.Id)));
  }

  std::unique_ptr<Program> context() const {
    auto P = std::make_unique<Program>();
    for (size_t I = 0; I != Target; ++I)
      EXPECT_TRUE(
          compileSource(*P, GP.Modules[I].Name, GP.Modules[I].Source).Ok);
    return P;
  }

  const std::string &name() const { return GP.Modules[Target].Name; }
  const std::string &source() const { return GP.Modules[Target].Source; }
};

} // namespace

TEST(DecoderFuzz, CompactBodyMutantsFailOrReencodeExactly) {
  Prng Rng(0x5eed1);
  unsigned Decoded = 0;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    Prng BodyRng(Seed);
    std::vector<uint8_t> A = compactRoutine(
        *randomBody(BodyRng, 8, 5, /*WithProfile=*/Seed % 2 == 0));
    std::vector<uint8_t> B =
        compactRoutine(*randomBody(BodyRng, 8, 5, Seed % 2 != 0));
    for (int I = 0; I != 2500; ++I) {
      std::vector<uint8_t> M = mutate(Rng, A, B);
      auto Body = expandRoutine(M, nullptr);
      if (!Body)
        continue;
      ++Decoded;
      ASSERT_EQ(compactRoutine(*Body), M) << "seed " << Seed << " mutant "
                                          << I;
    }
  }
  EXPECT_GT(Decoded, 0u); // Some flips land in immediates and survive.
}

TEST(DecoderFuzz, ObjectMutantsFailCleanlyOrReencodeExactly) {
  FuzzCorpus C;
  {
    // The unmutated object reads in its context and writes back as is.
    auto P = C.context();
    std::string Err;
    ModuleId M = readObject(*P, C.Object, Err);
    ASSERT_NE(M, InvalidId) << Err;
    ASSERT_EQ(writeObject(*P, M), C.Object);
  }
  Prng Rng(0x5eed2);
  auto P = C.context();
  uint64_t Before = programFingerprint(*P);
  unsigned Decoded = 0;
  for (int I = 0; I != 20000; ++I) {
    std::vector<uint8_t> Mutant = mutate(Rng, C.Object, C.Other);
    std::string Err;
    ModuleId M = readObject(*P, Mutant, Err);
    if (M == InvalidId) {
      EXPECT_FALSE(Err.empty()) << "mutant " << I;
      ASSERT_EQ(programFingerprint(*P), Before) << "mutant " << I << ": "
                                                << Err;
      continue;
    }
    ++Decoded;
    ASSERT_EQ(writeObject(*P, M), Mutant) << "mutant " << I;
    P = C.context(); // The mutant is installed; start over.
  }
  EXPECT_GT(Decoded, 0u);
}

TEST(DecoderFuzz, SourceEntryMutantsMissCleanlyOrReencodeExactly) {
  FuzzCorpus C;
  ArtifactCache::EntryKey K = ArtifactCache::sourceKey(C.name(), C.source());
  std::vector<uint8_t> Entry = encodeSourceEntry(K, C.Object, C.Hashes);
  std::vector<uint8_t> OtherEntry = encodeSourceEntry(
      ArtifactCache::sourceKey(C.GP.Modules[C.Target + 1].Name,
                               C.GP.Modules[C.Target + 1].Source),
      C.Other, {});
  {
    auto P = C.context();
    std::vector<uint64_t> Hashes;
    ModuleId M = readSourceEntry(*P, Entry, K, Hashes);
    ASSERT_NE(M, InvalidId);
    EXPECT_EQ(Hashes, C.Hashes);
    EXPECT_EQ(encodeSourceEntry(K, writeObject(*P, M), Hashes), Entry);
  }
  Prng Rng(0x5eed3);
  auto P = C.context();
  uint64_t Before = programFingerprint(*P);
  for (int I = 0; I != 4000; ++I) {
    // Half the mutants hit the file as stored; the other half mutate the
    // object or drop a hash and are framed afresh, so they get past the
    // checksum into the parse and hash-count checks.
    std::vector<uint8_t> Mutant;
    if (I % 2 == 0) {
      Mutant = mutate(Rng, Entry, OtherEntry);
    } else {
      std::vector<uint64_t> Fewer = C.Hashes;
      if (Rng.nextBelow(4) == 0 && !Fewer.empty())
        Fewer.pop_back();
      Mutant = encodeSourceEntry(
          K, Fewer.size() == C.Hashes.size() ? mutate(Rng, C.Object, C.Other)
                                             : C.Object,
          Fewer);
    }
    std::vector<uint64_t> Hashes;
    ModuleId M = readSourceEntry(*P, Mutant, K, Hashes);
    if (M == InvalidId) {
      ASSERT_EQ(programFingerprint(*P), Before) << "mutant " << I;
      continue;
    }
    ASSERT_EQ(encodeSourceEntry(K, writeObject(*P, M), Hashes), Mutant)
        << "mutant " << I;
    P = C.context();
  }
}

TEST(DecoderFuzz, AnalysisEntryMutantsMissCleanlyOrReencodeExactly) {
  // A program with every planted lint defect, compiled whole. The lint-bait
  // module's records carry local findings, global and call sites, every
  // reference by name; a second module's records are the splice donor.
  WorkloadParams Params;
  Params.Seed = 78;
  Params.NumModules = 4;
  Params.ColdRoutinesPerModule = 3;
  Params.HotRoutines = 4;
  Params.PlantDefects = true;
  GeneratedProgram GP = generateProgram(Params);
  Program P;
  ModuleId Bait = InvalidId;
  for (const GeneratedModule &GM : GP.Modules) {
    FrontendResult FR = compileSource(P, GM.Name, GM.Source);
    ASSERT_TRUE(FR.Ok) << FR.Error;
    if (GM.Source.find("lint_zero") != std::string::npos)
      Bait = FR.Module;
  }
  ASSERT_NE(Bait, InvalidId);
  using Facts = std::vector<std::pair<RoutineId, RoutineFacts>>;
  auto Scan = [&](ModuleId M) {
    Facts Out;
    for (RoutineId R : P.module(M).Routines)
      if (P.routine(R).IsDefined && P.routine(R).Owner == M) {
        Out.emplace_back(R, RoutineFacts());
        runLocalChecks(R, P.body(R), Out.back().second);
      }
    return Out;
  };
  const AnalysisSummaryCache::ModuleKey K{0x1234, 0x5678};
  auto Encode = [&](const Facts &Records) {
    std::vector<std::pair<RoutineId, const RoutineFacts *>> Ptrs;
    for (const auto &[R, F] : Records)
      Ptrs.emplace_back(R, &F);
    return encodeAnalysisEntry(P, K, Ptrs);
  };
  Facts Records = Scan(Bait);
  std::vector<uint8_t> Entry = Encode(Records);
  std::vector<uint8_t> Other = Encode(Scan(ModuleId(Bait == 0 ? 1 : 0)));
  {
    Facts Loaded;
    ASSERT_TRUE(readAnalysisEntry(P, Bait, Entry, K, Loaded));
    ASSERT_EQ(Loaded.size(), Records.size());
    size_t Diags = 0, Loads = 0, Sites = 0;
    for (const auto &Rec : Loaded) {
      Diags += Rec.second.Diags.size();
      Loads += Rec.second.Summary.Loads.size();
      Sites += Rec.second.Summary.Sites.size();
    }
    EXPECT_GT(Diags, 0u);
    EXPECT_GT(Loads, 0u);
    EXPECT_GT(Sites, 0u);
    EXPECT_EQ(Encode(Loaded), Entry);
  }
  {
    // A severity byte past Error is rejected like a bad check code, not
    // rendered as `?[scmo-...]`.
    Facts Bad = Scan(Bait);
    for (auto &Rec : Bad)
      for (Diagnostic &D : Rec.second.Diags)
        D.Sev = static_cast<Severity>(3);
    Facts Loaded;
    EXPECT_FALSE(readAnalysisEntry(P, Bait, Encode(Bad), K, Loaded));
  }
  std::vector<uint8_t> Payload(Entry.begin() + cachefmt::FrameBytes,
                               Entry.end());
  std::vector<uint8_t> OtherPayload(Other.begin() + cachefmt::FrameBytes,
                                    Other.end());
  Prng Rng(0x5eed4);
  size_t Decoded = 0;
  for (int I = 0; I != 4000; ++I) {
    // Half the mutants hit the file as stored; the other half mutate the
    // payload and are framed afresh, so they get past the checksum into the
    // reference tables and records.
    std::vector<uint8_t> Mutant;
    if (I % 2 == 0) {
      Mutant = mutate(Rng, Entry, Other);
    } else {
      std::vector<uint8_t> Body = mutate(Rng, Payload, OtherPayload);
      cachefmt::Sink File;
      cachefmt::frameArtifact(File, Body);
      Mutant = File.Bytes;
      Mutant.insert(Mutant.end(), Body.begin(), Body.end());
    }
    Facts Loaded(1);
    if (!readAnalysisEntry(P, Bait, Mutant, K, Loaded)) {
      ASSERT_EQ(Loaded.size(), 1u) << "mutant " << I;
      continue;
    }
    ++Decoded;
    ASSERT_EQ(Encode(Loaded), Mutant) << "mutant " << I;
  }
  EXPECT_GT(Decoded, 0u);
}

namespace {

/// The FuzzCorpus program compiled whole and lowered: every defined
/// routine's machine code, ascending RoutineId.
struct MachineCorpus {
  GeneratedProgram GP;
  std::unique_ptr<Program> P;
  std::vector<MachineRoutine> Machines;
  std::vector<CallEdgeWeight> Edges;

  MachineCorpus() {
    GP = FuzzCorpus().GP;
    P = context();
    for (RoutineId R = 0; R != P->numRoutines(); ++R) {
      if (!P->routine(R).IsDefined)
        continue;
      LloOptions Opts;
      Opts.RegAlloc = R % 2 == 0; // Spill-heavy and register-heavy code.
      Machines.push_back(lowerRoutine(*P, R, P->body(R), Opts));
      if (R)
        Edges.push_back({R - 1, R, 10 * R});
    }
  }

  std::unique_ptr<Program> context() const {
    auto Q = std::make_unique<Program>();
    for (const GeneratedModule &GM : GP.Modules)
      EXPECT_TRUE(compileSource(*Q, GM.Name, GM.Source).Ok);
    return Q;
  }

  /// The routine with the most instructions other than \p Not.
  const MachineRoutine &largest(size_t Not = SIZE_MAX) const {
    size_t Best = Not == 0 ? 1 : 0;
    for (size_t I = 0; I != Machines.size(); ++I)
      if (I != Not && Machines[I].NumInstrs > Machines[Best].NumInstrs)
        Best = I;
    return Machines[Best];
  }
};

/// Decodes \p MR; true iff it is well formed with every operand safe to
/// execute, every reference index inside MR.Refs (when it has one) and
/// every resolved symbol inside \p P.
bool codeIsSafe(const Program &P, const MachineRoutine &MR) {
  MCodeReader Reader(MR);
  MInstr I;
  while (Reader.next(I)) {
    bool IsCall = symKind(I.Op) == SymKind::Routine;
    bool IsGlobal = symKind(I.Op) == SymKind::Global;
    if (MR.Refs && (IsCall || IsGlobal)) {
      const std::vector<uint32_t> &Table =
          IsCall ? MR.Refs->Routines : MR.Refs->Globals;
      if (I.Sym >= Table.size())
        return false;
      I.Sym = Table[I.Sym];
    }
    if (static_cast<unsigned>(I.Op) >= NumMOps || I.Rd >= NumPhysRegs ||
        I.A.Reg >= NumPhysRegs || I.B.Reg >= NumPhysRegs)
      return false;
    if ((I.Op == MOp::Jmp || I.Op == MOp::Br || I.Op == MOp::Brz) &&
        I.Target >= MR.NumInstrs)
      return false;
    if ((I.Op == MOp::LoadSpill || I.Op == MOp::StoreSpill) &&
        I.Slot >= MR.SpillSlots)
      return false;
    if (IsCall && I.Sym >= P.numRoutines())
      return false;
    if (IsGlobal && I.Sym >= P.numGlobals())
      return false;
  }
  return Reader.ok();
}

} // namespace

TEST(MachineCode, EveryFieldRoundTrips) {
  // The presence mask must spell every MInstr, including operand
  // combinations LLO never emits, so executables stay byte-identical.
  std::vector<MInstr> Cases;
  MInstr Plain;
  Plain.Op = MOp::Ret;
  Cases.push_back(Plain);
  MInstr Full;
  Full.Op = MOp::StoreIdx;
  Full.Rd = 31;
  Full.A = MOperand::imm(INT64_MIN);
  Full.B = MOperand::reg(7);
  Full.Sym = 0;
  Full.Target = 2;
  Full.Probe = 0x7fffffff;
  Full.Slot = 2;
  Cases.push_back(Full);
  MInstr Raw;
  Raw.Op = MOp::Mov;
  Raw.A.IsImm = true;
  Raw.A.Reg = 5;
  Raw.A.Imm = -1;
  Raw.B.Imm = 9; // A register operand with a stray immediate.
  Raw.Target = 0;
  Cases.push_back(Raw);
  std::vector<uint8_t> Bytes;
  for (const MInstr &I : Cases)
    encodeMInstr(Bytes, I);
  MCodeReader Reader(Bytes.data(), Bytes.size(), uint32_t(Cases.size()), 4);
  for (const MInstr &Want : Cases) {
    MInstr Got;
    ASSERT_TRUE(Reader.next(Got));
    EXPECT_EQ(Got.Op, Want.Op);
    EXPECT_EQ(Got.Rd, Want.Rd);
    EXPECT_EQ(Got.A.IsImm, Want.A.IsImm);
    EXPECT_EQ(Got.A.Reg, Want.A.Reg);
    EXPECT_EQ(Got.A.Imm, Want.A.Imm);
    EXPECT_EQ(Got.B.IsImm, Want.B.IsImm);
    EXPECT_EQ(Got.B.Reg, Want.B.Reg);
    EXPECT_EQ(Got.B.Imm, Want.B.Imm);
    EXPECT_EQ(Got.Sym, Want.Sym);
    EXPECT_EQ(Got.Target, Want.Target);
    EXPECT_EQ(Got.Probe, Want.Probe);
    EXPECT_EQ(Got.Slot, Want.Slot);
  }
  MInstr Extra;
  EXPECT_FALSE(Reader.next(Extra));
  EXPECT_TRUE(Reader.ok());
}

TEST(MachineCode, DecoderRejectsUnsafeFields) {
  auto decodes = [](const MInstr &I, uint32_t NumInstrs, uint32_t Slots) {
    std::vector<uint8_t> Bytes;
    encodeMInstr(Bytes, I);
    // Pad the count with returns so NumInstrs is satisfiable.
    MInstr Ret;
    Ret.Op = MOp::Ret;
    for (uint32_t K = 1; K < NumInstrs; ++K)
      encodeMInstr(Bytes, Ret);
    MCodeReader Reader(Bytes.data(), Bytes.size(), NumInstrs, Slots);
    MInstr Out;
    while (Reader.next(Out)) {
    }
    return Reader.ok();
  };
  MInstr Mov;
  Mov.Op = MOp::Mov;
  Mov.Rd = 3;
  Mov.A = MOperand::reg(4);
  EXPECT_TRUE(decodes(Mov, 1, 0));
  MInstr BadRd = Mov;
  BadRd.Rd = NumPhysRegs;
  EXPECT_FALSE(decodes(BadRd, 1, 0));
  MInstr BadA = Mov;
  BadA.A = MOperand::reg(200);
  EXPECT_FALSE(decodes(BadA, 1, 0));
  MInstr BadB = Mov;
  BadB.B = MOperand::reg(NumPhysRegs);
  EXPECT_FALSE(decodes(BadB, 1, 0));
  MInstr Jmp;
  Jmp.Op = MOp::Jmp;
  Jmp.Target = 1;
  EXPECT_TRUE(decodes(Jmp, 2, 0));
  EXPECT_FALSE(decodes(Jmp, 1, 0)); // Target past the routine.
  MInstr NoTarget;
  NoTarget.Op = MOp::Br;
  EXPECT_FALSE(decodes(NoTarget, 1, 0));
  MInstr Spill;
  Spill.Op = MOp::LoadSpill;
  Spill.Rd = 5;
  Spill.Slot = 2;
  EXPECT_TRUE(decodes(Spill, 1, 3));
  EXPECT_FALSE(decodes(Spill, 1, 2));
  Spill.Slot = 0;
  EXPECT_FALSE(decodes(Spill, 1, 0)); // Slot 0 of an empty frame.
  // An opcode past the table.
  std::vector<uint8_t> BadOp = {uint8_t(NumMOps), 0};
  MCodeReader OpReader(BadOp.data(), BadOp.size(), 1, 0);
  MInstr Out;
  EXPECT_FALSE(OpReader.next(Out));
  EXPECT_FALSE(OpReader.ok());
  // A count the bytes cannot hold fails before decoding anything.
  std::vector<uint8_t> Two = {uint8_t(MOp::Ret), 0};
  MCodeReader Greedy(Two.data(), Two.size(), 0x40000000, 0);
  EXPECT_FALSE(Greedy.next(Out));
  EXPECT_FALSE(Greedy.ok());
}

TEST(DecoderFuzz, MachineCodeMutantsFailOrReencodeExactly) {
  MachineCorpus C;
  const MachineRoutine &A = C.largest();
  const MachineRoutine &B = C.largest(size_t(&A - C.Machines.data()));
  ASSERT_TRUE(codeIsSafe(*C.P, A));
  Prng Rng(0x5eed4);
  unsigned Decoded = 0;
  for (int I = 0; I != 20000; ++I) {
    std::vector<uint8_t> M = mutate(Rng, A.Code, B.Code);
    // Now and then the header lies too: a different count or frame size.
    uint32_t NumInstrs = A.NumInstrs, Slots = A.SpillSlots;
    switch (Rng.nextBelow(8)) {
    case 0:
      NumInstrs += uint32_t(Rng.nextBelow(3)) - 1;
      break;
    case 1:
      Slots = uint32_t(Rng.nextBelow(Slots + 1));
      break;
    case 2:
      NumInstrs = UINT32_MAX;
      break;
    }
    MachineRoutine MR = A;
    MR.Code = M;
    MR.NumInstrs = NumInstrs;
    MR.SpillSlots = Slots;
    MCodeReader Reader(MR);
    std::vector<uint8_t> Re;
    MInstr Instr;
    while (Reader.next(Instr))
      encodeMInstr(Re, Instr);
    if (!Reader.ok())
      continue;
    ++Decoded;
    ASSERT_EQ(Re, M) << "mutant " << I;
    // Sym is the caller's to check; every other field must be safe.
    MCodeReader Again(MR);
    while (Again.next(Instr)) {
      ASSERT_LT(Instr.Rd, NumPhysRegs);
      ASSERT_LT(Instr.A.Reg, NumPhysRegs);
      ASSERT_LT(Instr.B.Reg, NumPhysRegs);
      if (Instr.Op == MOp::Jmp || Instr.Op == MOp::Br || Instr.Op == MOp::Brz) {
        ASSERT_LT(Instr.Target, NumInstrs);
      }
      if (Instr.Op == MOp::LoadSpill || Instr.Op == MOp::StoreSpill) {
        ASSERT_LT(Instr.Slot, Slots);
      }
    }
  }
  EXPECT_GT(Decoded, 0u); // Some flips land in immediates and survive.
}

TEST(DecoderFuzz, UnitArtifactMutantsMissCleanlyOrLoadSafeCode) {
  MachineCorpus C;
  ArtifactCache::EntryKey K{0x1234, 0x5678};
  RoutineId CloneBase = RoutineId(C.P->numRoutines());
  std::vector<uint8_t> Entry =
      encodeUnitEntry(*C.P, K, C.Machines, CloneBase, C.Edges);
  std::vector<MachineRoutine> Half(C.Machines.begin(),
                                   C.Machines.begin() + C.Machines.size() / 2);
  std::vector<uint8_t> OtherEntry =
      encodeUnitEntry(*C.P, K, Half, CloneBase, {});
  {
    // The unmutated entry loads in a fresh context to the very same code:
    // stored reference indices, which resolve through the unit's one shared
    // table to exactly the corpus's instructions.
    auto P = C.context();
    CachedUnit Out;
    ASSERT_TRUE(readUnitEntry(*P, Entry, K, Out));
    ASSERT_EQ(Out.Machines.size(), C.Machines.size());
    for (size_t I = 0; I != Out.Machines.size(); ++I) {
      const MachineRoutine &Got = Out.Machines[I];
      EXPECT_EQ(Got.Routine, C.Machines[I].Routine);
      EXPECT_EQ(Got.NumInstrs, C.Machines[I].NumInstrs);
      ASSERT_NE(Got.Refs, nullptr);
      EXPECT_EQ(Got.Refs, Out.Machines[0].Refs);
      ASSERT_TRUE(codeIsSafe(*P, Got)) << Got.Name;
      std::vector<MInstr> Resolved = decodeMachine(Got);
      for (MInstr &Instr : Resolved)
        ASSERT_TRUE(Got.Refs->resolve(Instr));
      std::vector<uint8_t> Bytes;
      for (const MInstr &Instr : Resolved)
        encodeMInstr(Bytes, Instr);
      EXPECT_EQ(Bytes, C.Machines[I].Code) << Got.Name;
    }
    EXPECT_EQ(Out.Edges.size(), C.Edges.size());
    EXPECT_EQ(encodeUnitEntry(*P, K, Out.Machines, CloneBase, Out.Edges),
              Entry);
  }
  Prng Rng(0x5eed5);
  auto P = C.context();
  uint64_t Before = programFingerprint(*P);
  unsigned Hits = 0;
  for (int I = 0; I != 6000; ++I) {
    // Half the mutants hit the file as stored (the frame checksum rejects
    // nearly all of them); the other half mutate the payload and are
    // framed afresh, so they reach the reference tables and the code.
    std::vector<uint8_t> Mutant;
    if (I % 2 == 0) {
      Mutant = mutate(Rng, Entry, OtherEntry);
    } else {
      std::vector<uint8_t> Payload(Entry.begin() + cachefmt::FrameBytes,
                                   Entry.end());
      std::vector<uint8_t> OtherPayload(
          OtherEntry.begin() + cachefmt::FrameBytes, OtherEntry.end());
      Payload = mutate(Rng, Payload, OtherPayload);
      cachefmt::Sink File;
      cachefmt::frameArtifact(File, Payload);
      Mutant = std::move(File.Bytes);
      Mutant.insert(Mutant.end(), Payload.begin(), Payload.end());
    }
    CachedUnit Out;
    if (!readUnitEntry(*P, Mutant, K, Out)) {
      ASSERT_EQ(programFingerprint(*P), Before) << "mutant " << I;
      continue;
    }
    ++Hits;
    for (const MachineRoutine &MR : Out.Machines)
      ASSERT_TRUE(codeIsSafe(*P, MR)) << "mutant " << I << ": " << MR.Name;
    for (const CallEdgeWeight &E : Out.Edges) {
      ASSERT_LT(E.From, P->numRoutines());
      ASSERT_LT(E.To, P->numRoutines());
    }
    P = C.context();
  }
  EXPECT_GT(Hits, 0u); // Immediates and frequencies are free to change.
}

namespace {

/// One mutation of a profile db's text: the structure-blind mutations above,
/// or one number replaced by a count no file of this size could back.
std::string mutateProfile(Prng &Rng, const std::string &A,
                          const std::string &B) {
  auto bytes = [](const std::string &S) {
    return std::vector<uint8_t>(S.begin(), S.end());
  };
  if (Rng.nextBelow(4) != 0) {
    std::vector<uint8_t> M = mutate(Rng, bytes(A), bytes(B));
    return std::string(M.begin(), M.end());
  }
  static const char *const Huge[] = {"1099511627776", "300000000",
                                     "18446744073709551615",
                                     "99999999999999999999"};
  std::string M = A;
  size_t Pos = Rng.nextBelow(M.size());
  while (Pos != 0 && std::isdigit(static_cast<unsigned char>(M[Pos - 1])))
    --Pos;
  size_t End = Pos;
  while (End != M.size() && std::isdigit(static_cast<unsigned char>(M[End])))
    ++End;
  M.replace(Pos, End - Pos, Huge[Rng.nextBelow(4)]);
  return M;
}

} // namespace

TEST(DecoderFuzz, ProfileDbMutantsFailCleanlyOrRoundTrip) {
  // The profile db is text a build reads from disk: a mutant either fails
  // with the caller's db untouched, or parses to a db whose serialization
  // parses back to the same db, with the same fingerprint.
  std::string Error;
  ProfileDb Trained = trainProfile(FuzzCorpus().GP, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  ASSERT_GT(Trained.size(), 2u);
  std::string Text = Trained.serialize();
  {
    ProfileDb Back;
    ASSERT_TRUE(ProfileDb::parse(Text, Back));
    ASSERT_EQ(Back.serialize(), Text);
    ASSERT_EQ(Back.fingerprint(), Trained.fingerprint());
  }
  ProfileDb Other;
  RoutineProfile RP;
  RP.Checksum = 99;
  RP.BlockCounts = {7, 3};
  RP.TakenCounts = {0, 2};
  Other.insert("other:routine", RP);
  std::string OtherText = Other.serialize();

  Prng Rng(0x5eed6);
  unsigned Parsed = 0;
  for (int I = 0; I != 6000; ++I) {
    std::string Mutant = mutateProfile(Rng, Text, OtherText);
    ProfileDb Out = Other;
    if (!ProfileDb::parse(Mutant, Out)) {
      ASSERT_EQ(Out.serialize(), OtherText) << "mutant " << I;
      ASSERT_EQ(Out.fingerprint(), Other.fingerprint()) << "mutant " << I;
      continue;
    }
    ++Parsed;
    std::string Again = Out.serialize();
    ProfileDb Back;
    ASSERT_TRUE(ProfileDb::parse(Again, Back)) << "mutant " << I;
    ASSERT_EQ(Back.serialize(), Again) << "mutant " << I;
    ASSERT_EQ(Back.fingerprint(), Out.fingerprint()) << "mutant " << I;
  }
  EXPECT_GT(Parsed, 0u); // Flipped count digits still parse.
}

TEST(DecoderFuzz, RepositoryFrameMutantsFailOrFetchExactly) {
  // A repository file holding the compact records of a generated program.
  // Each mutant overwrites that file in place (the repository keeps reading
  // the same inode) and every record is fetched back: the fetch must fail
  // with a Status or return exactly the stored bytes, and must never size
  // its buffer past what the directory entry asked for.
  FuzzCorpus C;
  Program P;
  for (const GeneratedModule &GM : C.GP.Modules)
    ASSERT_TRUE(compileSource(P, GM.Name, GM.Source).Ok);
  std::string Path =
      "/tmp/scmo-fuzz-repo-" + std::to_string(::getpid()) + ".naim";
  std::remove(Path.c_str());
  struct Record {
    uint64_t Offset;
    std::vector<uint8_t> Bytes;
  };
  std::vector<Record> Records;
  Repository Repo(Path);
  for (RoutineId R = 0; R != P.numRoutines(); ++R) {
    if (!P.routine(R).IsDefined)
      continue;
    std::vector<uint8_t> Bytes = compactRoutine(P.body(R));
    Expected<uint64_t> Off = Repo.store(Bytes);
    ASSERT_TRUE(Off.ok()) << Off.status().toString();
    Records.push_back({*Off, std::move(Bytes)});
  }
  ASSERT_GT(Records.size(), 8u);
  std::vector<uint8_t> File;
  ASSERT_TRUE(readFile(Path, File));
  // The splice donor: the same records stored in reverse order, so its
  // valid frames sit at other offsets.
  std::vector<uint8_t> Reversed;
  for (auto It = Records.rbegin(); It != Records.rend(); ++It) {
    size_t Begin = It->Offset;
    size_t End = Begin + Repository::FrameHeaderBytes + It->Bytes.size();
    Reversed.insert(Reversed.end(), File.begin() + Begin, File.begin() + End);
  }

  auto WriteInPlace = [&](const std::vector<uint8_t> &Bytes) {
    std::FILE *F = std::fopen(Path.c_str(), "wb"); // Truncates, same inode.
    ASSERT_NE(F, nullptr);
    if (!Bytes.empty()) {
      ASSERT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
    }
    ASSERT_EQ(std::fclose(F), 0);
  };
  auto FetchAll = [&](int Mutant, unsigned &Exact) {
    for (const Record &Rec : Records) {
      std::vector<uint8_t> Out;
      Status S = Repo.fetch(Rec.Offset, Rec.Bytes.size(), Out);
      ASSERT_LE(Out.capacity(), Rec.Bytes.size()) << "mutant " << Mutant;
      if (!S.ok())
        continue;
      ASSERT_EQ(Out, Rec.Bytes) << "mutant " << Mutant << " offset "
                                << Rec.Offset;
      ++Exact;
    }
  };

  unsigned Exact = 0;
  FetchAll(-1, Exact);
  ASSERT_EQ(Exact, Records.size()); // The pristine file reads back whole.

  Prng Rng(0x5eed7);
  for (int I = 0; I != 3000; ++I) {
    std::vector<uint8_t> M;
    const Record &Victim = Records[Rng.nextBelow(Records.size())];
    switch (Rng.nextBelow(4)) {
    case 0: // Bit flips, truncation, inflated varints, tail splices.
      M = mutate(Rng, File, Reversed);
      break;
    case 1: { // An inflated size field in one frame header.
      M = File;
      static const uint32_t Sizes[] = {0xffffffffu, 0x40000001u, 0x10000u};
      uint32_t Size = Rng.nextBool(0.5)
                          ? Sizes[Rng.nextBelow(3)]
                          : uint32_t(Victim.Bytes.size() + 1 +
                                     Rng.nextBelow(64));
      std::memcpy(M.data() + Victim.Offset + 4, &Size, 4);
      break;
    }
    case 2: { // A whole valid frame copied over another one.
      M = File;
      const Record &Donor = Records[Rng.nextBelow(Records.size())];
      size_t Len = Repository::FrameHeaderBytes + Donor.Bytes.size();
      if (Victim.Offset + Len > M.size())
        M.resize(Victim.Offset + Len);
      std::memcpy(M.data() + Victim.Offset, File.data() + Donor.Offset, Len);
      break;
    }
    case 3: // Truncation at a frame boundary or inside a header.
      M.assign(File.begin(), File.begin() + Victim.Offset +
                                 Rng.nextBelow(Repository::FrameHeaderBytes));
      break;
    }
    WriteInPlace(M);
    FetchAll(I, Exact);
    // Directory entries claiming more than the file holds are rejected
    // before any allocation.
    std::vector<uint8_t> Out;
    const uint64_t Inflated[] = {File.size(), Repository::MaxRecordBytes,
                                 Repository::MaxRecordBytes + 1,
                                 ~uint64_t(0) - 8};
    for (uint64_t Size : Inflated) {
      EXPECT_FALSE(Repo.fetch(Victim.Offset, Size, Out).ok());
      ASSERT_EQ(Out.capacity(), 0u) << "mutant " << I << " size " << Size;
    }
  }
  EXPECT_GT(Exact, Records.size()); // Records the mutation missed survive.
}
