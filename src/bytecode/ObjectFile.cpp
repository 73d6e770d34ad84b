//===- bytecode/ObjectFile.cpp --------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "bytecode/ObjectFile.h"

#include "bytecode/Compact.h"
#include "support/Debug.h"
#include "support/VarInt.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <unistd.h>
#include <unordered_map>
#include <unordered_set>

using namespace scmo;

namespace {

constexpr uint64_t ObjectMagic = 0x534353d04f4c4931ull; // "SCMO-IL1"-ish.

using Kind = SymbolTouch::Kind;
constexpr uint8_t NumKinds = uint8_t(Kind::Define) + 1;

void encodeString(std::vector<uint8_t> &Out, const std::string &S) {
  encodeVarUInt(Out, S.size());
  Out.insert(Out.end(), S.begin(), S.end());
}

bool decodeString(ByteReader &Reader, std::string &S) {
  uint64_t Len = Reader.readVarUInt();
  if (Reader.hadError() || Len > Reader.remaining())
    return false;
  S.assign(Len, '\0');
  return Reader.readBytes(reinterpret_cast<uint8_t *>(S.data()), Len);
}

/// Predicts, without touching the program, the ids that replaying an
/// object's symbol entries through Program's declare/lookup calls will
/// produce, and rejects every entry the frontend would have rejected in this
/// program (or that a frontend could never have written). Each method
/// mirrors the Program call commitObject makes for the same entry.
class Resolver {
public:
  explicit Resolver(const Program &P)
      : P(P), BaseR(RoutineId(P.numRoutines())),
        BaseG(GlobalId(P.numGlobals())) {}

  /// declareRoutine(M, Name, Params, IsStatic) + arity override.
  RoutineId declRoutine(std::string_view Name, uint32_t Params,
                        bool IsStatic) {
    RoutineId R;
    if (IsStatic) {
      auto It = StaticR.find(Name);
      R = It != StaticR.end() ? It->second : newRoutine(Name, true, Params);
    } else {
      R = externRoutine(Name);
      if (R == InvalidId)
        R = newRoutine(Name, false, Params);
    }
    ParamsOf[R] = Params;
    return R;
  }

  /// findRoutineInModule, else an implicit extern declaration.
  RoutineId refRoutine(std::string_view Name, uint32_t Arity, bool IsStatic,
                       std::string &Error) {
    auto It = ModR.find(Name);
    RoutineId R = It != ModR.end() ? It->second : externRoutine(Name);
    if (R == InvalidId)
      R = newRoutine(Name, false, Arity);
    if (params(R) != Arity || isStatic(R) != IsStatic) {
      Error = "call to '" + std::string(Name) + "' no longer links";
      return InvalidId;
    }
    return R;
  }

  /// defineRoutine(R, M, Body): re-homes a routine declared elsewhere.
  bool define(RoutineId R, std::string &Error) {
    if (!Defined.insert(R).second ||
        (R < BaseR && P.routine(R).IsDefined)) {
      Error = "duplicate definition of routine " + std::string(nameOf(R));
      return false;
    }
    if (R < BaseR)
      ModR.emplace(nameOf(R), R);
    return true;
  }

  /// addGlobal(M, Name, ...).
  GlobalId declGlobal(std::string_view Name, bool IsStatic) {
    if (IsStatic) {
      auto It = StaticG.find(Name);
      return It != StaticG.end() ? It->second : newGlobal(Name, true);
    }
    GlobalId G = externGlobal(Name);
    return G != InvalidId ? G : newGlobal(Name, false);
  }

  /// findGlobalInModule.
  GlobalId refGlobal(std::string_view Name, bool IsStatic,
                     std::string &Error) {
    auto It = ModG.find(Name);
    GlobalId G = It != ModG.end() ? It->second : externGlobal(Name);
    bool GStatic = G != InvalidId && (G < BaseG ? P.global(G).IsStatic
                                                : NewGlobalStatic[G - BaseG]);
    if (G == InvalidId || GStatic != IsStatic) {
      Error = "variable '" + std::string(Name) + "' no longer links";
      return InvalidId;
    }
    return G;
  }

private:
  RoutineId externRoutine(std::string_view Name) const {
    RoutineId R = P.findRoutine(Name);
    if (R != InvalidId)
      return R;
    auto It = ExternR.find(Name);
    return It != ExternR.end() ? It->second : InvalidId;
  }

  GlobalId externGlobal(std::string_view Name) const {
    GlobalId G = P.findGlobal(Name);
    if (G != InvalidId)
      return G;
    auto It = ExternG.find(Name);
    return It != ExternG.end() ? It->second : InvalidId;
  }

  RoutineId newRoutine(std::string_view Name, bool IsStatic, uint32_t Params) {
    RoutineId R = BaseR + RoutineId(NewRoutines.size());
    NewRoutines.push_back({Name, IsStatic});
    (IsStatic ? StaticR : ExternR).emplace(Name, R);
    ModR.emplace(Name, R); // The first routine of a name in the list wins.
    ParamsOf[R] = Params;
    return R;
  }

  GlobalId newGlobal(std::string_view Name, bool IsStatic) {
    GlobalId G = BaseG + GlobalId(NewGlobalStatic.size());
    NewGlobalStatic.push_back(IsStatic);
    (IsStatic ? StaticG : ExternG).emplace(Name, G);
    ModG.emplace(Name, G);
    return G;
  }

  std::string_view nameOf(RoutineId R) const {
    return R < BaseR ? std::string_view(P.Strings.text(P.routine(R).Name))
                     : NewRoutines[R - BaseR].Name;
  }
  bool isStatic(RoutineId R) const {
    return R < BaseR ? P.routine(R).IsStatic : NewRoutines[R - BaseR].IsStatic;
  }
  uint32_t params(RoutineId R) const {
    auto It = ParamsOf.find(R);
    return It != ParamsOf.end() ? It->second : P.routine(R).NumParams;
  }

  struct NewRoutine {
    std::string_view Name;
    bool IsStatic;
  };
  using NameMap = std::unordered_map<std::string_view, uint32_t>;

  const Program &P;
  RoutineId BaseR;
  GlobalId BaseG;
  std::vector<NewRoutine> NewRoutines;
  std::vector<bool> NewGlobalStatic;
  NameMap ExternR, StaticR, ExternG, StaticG;
  NameMap ModR, ModG; ///< The new module's routine/global lists, by name.
  std::unordered_map<RoutineId, uint32_t> ParamsOf;
  std::unordered_set<RoutineId> Defined;
};

} // namespace

std::vector<uint8_t> scmo::writeObject(Program &P, ModuleId M) {
  ModuleInfo &Mod = P.module(M);
  // The symbol table may have been compacted by the loader; the object file
  // needs its records.
  if (Mod.Symtab.state() == PoolState::Compact)
    Mod.Symtab.expand();
  const std::vector<SymbolTouch> &Syms = Mod.Touches;

  // Bodies refer to symbols through their reference entries; definitions
  // name their declaration entry. The frontend traces the first reference
  // of every symbol a body uses and declares every routine it defines, so
  // each lookup below finds its entry.
  std::unordered_map<uint32_t, uint32_t> RefOfRoutine, RefOfGlobal, DeclOf;
  for (uint32_t I = 0; I != Syms.size(); ++I) {
    const SymbolTouch &T = Syms[I];
    if (T.K == Kind::RefRoutine)
      RefOfRoutine.emplace(T.Id, I);
    else if (T.K == Kind::RefGlobal)
      RefOfGlobal.emplace(T.Id, I);
    else if (T.K == Kind::DeclRoutine)
      DeclOf.emplace(T.Id, I);
  }
  auto EntryOf = [](const std::unordered_map<uint32_t, uint32_t> &Map,
                    uint32_t Id) {
    auto It = Map.find(Id);
    if (It == Map.end())
      reportFatalError("writeObject: symbol missing from the module's trace");
    return It->second;
  };
  SymRemap Remap;
  Remap.Routine = [&](RoutineId R) { return EntryOf(RefOfRoutine, R); };
  Remap.Global = [&](GlobalId G) { return EntryOf(RefOfGlobal, G); };
  std::vector<std::vector<uint8_t>> Bodies;
  for (const SymbolTouch &T : Syms)
    if (T.K == Kind::Define)
      Bodies.push_back(compactRoutine(P.body(T.Id), Remap));

  std::vector<uint8_t> Out;
  encodeVarUInt(Out, ObjectMagic);
  encodeVarUInt(Out, ObjectFormatVersion);
  encodeString(Out, P.Strings.text(Mod.Name));
  encodeVarUInt(Out, Mod.SourceLines);

  encodeVarUInt(Out, Syms.size());
  for (const SymbolTouch &T : Syms) {
    Out.push_back(uint8_t(T.K));
    if (T.K == Kind::Define) {
      encodeVarUInt(Out, EntryOf(DeclOf, T.Id));
      continue;
    }
    bool Routine = T.K == Kind::DeclRoutine || T.K == Kind::RefRoutine;
    StrId Name = Routine ? P.routine(T.Id).Name : P.global(T.Id).Name;
    encodeString(Out, P.Strings.text(Name));
    if (T.K != Kind::RefGlobal)
      encodeVarUInt(Out, T.Arg);
    if (T.K == Kind::DeclGlobal)
      encodeVarInt(Out, T.Init);
    Out.push_back(Routine ? P.routine(T.Id).IsStatic : P.global(T.Id).IsStatic);
  }

  // Debug records (module symbol table bulk data).
  encodeVarUInt(Out, Mod.Symtab.records().size());
  for (const std::string &Rec : Mod.Symtab.records())
    encodeString(Out, Rec);

  // Bodies, in definition order.
  encodeVarUInt(Out, Bodies.size());
  for (const std::vector<uint8_t> &Body : Bodies) {
    encodeVarUInt(Out, Body.size());
    Out.insert(Out.end(), Body.begin(), Body.end());
  }
  return Out;
}

bool scmo::parseObject(const Program &P, const uint8_t *Data, size_t Size,
                       ObjectImage &Img, std::string &Error) {
  Img = ObjectImage();
  Img.BaseModules = P.numModules();
  Img.BaseRoutines = P.numRoutines();
  Img.BaseGlobals = P.numGlobals();
  auto Fail = [&](std::string Why) {
    Error = std::move(Why);
    Img = ObjectImage();
    return false;
  };
  ByteReader Reader(Data, Size);
  if (Reader.readVarUInt() != ObjectMagic)
    return Fail("bad object magic");
  if (Reader.readVarUInt() != ObjectFormatVersion)
    return Fail("unsupported object format version");
  if (!decodeString(Reader, Img.ModuleName))
    return Fail("truncated object header");
  Img.SourceLines = Reader.readVarU32();

  // Symbol entries, resolved in order. Every entry costs at least two bytes.
  uint64_t NumSyms = Reader.readVarUInt();
  if (Reader.hadError() || NumSyms > Reader.remaining() / 2)
    return Fail("truncated object symbol table");
  Img.Symbols.resize(NumSyms);
  Resolver Res(P);
  std::unordered_set<uint32_t> SeenDecl, SeenRefR, SeenRefG;
  size_t NumDecls = 0;
  for (uint32_t I = 0; I != NumSyms; ++I) {
    ObjectImage::Symbol &S = Img.Symbols[I];
    uint8_t KindByte = NumKinds;
    Reader.readBytes(&KindByte, 1);
    if (KindByte >= NumKinds)
      return Fail("bad object symbol kind");
    S.K = Kind(KindByte);
    if (S.K == Kind::Define) {
      S.Arg = Reader.readVarU32();
      if (Reader.hadError() || S.Arg >= I ||
          Img.Symbols[S.Arg].K != Kind::DeclRoutine)
        return Fail("object definition names no declaration");
      S.Id = Img.Symbols[S.Arg].Id;
      if (!Res.define(S.Id, Error))
        return Fail(Error);
      continue;
    }
    if (!decodeString(Reader, S.Name))
      return Fail("truncated object symbol");
    if (S.K != Kind::RefGlobal)
      S.Arg = Reader.readVarU32();
    if (S.K == Kind::DeclGlobal)
      S.Init = Reader.readVarInt();
    uint8_t Static = 2;
    Reader.readBytes(&Static, 1);
    if (Reader.hadError() || Static > 1)
      return Fail("truncated object symbol");
    S.IsStatic = Static;
    switch (S.K) {
    case Kind::DeclRoutine:
      S.Id = Res.declRoutine(S.Name, S.Arg, S.IsStatic);
      ++NumDecls;
      if (!SeenDecl.insert(S.Id).second)
        return Fail("duplicate definition of routine " + S.Name);
      break;
    case Kind::DeclGlobal:
      S.Id = Res.declGlobal(S.Name, S.IsStatic);
      break;
    case Kind::RefRoutine:
      S.Id = Res.refRoutine(S.Name, S.Arg, S.IsStatic, Error);
      if (S.Id == InvalidId || !SeenRefR.insert(S.Id).second)
        return Fail(S.Id == InvalidId ? Error : "duplicate object symbol");
      break;
    case Kind::RefGlobal:
      S.Id = Res.refGlobal(S.Name, S.IsStatic, Error);
      if (S.Id == InvalidId || !SeenRefG.insert(S.Id).second)
        return Fail(S.Id == InvalidId ? Error : "duplicate object symbol");
      break;
    case Kind::Define:
      break;
    }
  }

  // Debug records.
  uint64_t NumRecords = Reader.readVarUInt();
  if (Reader.hadError() || NumRecords > Reader.remaining())
    return Fail("truncated object debug records");
  Img.Records.resize(NumRecords);
  for (std::string &Rec : Img.Records)
    if (!decodeString(Reader, Rec))
      return Fail("truncated object debug records");

  // Bodies: one per definition, in definition order, every declaration
  // defined exactly once.
  std::vector<uint32_t> Defines;
  for (uint32_t I = 0; I != NumSyms; ++I)
    if (Img.Symbols[I].K == Kind::Define)
      Defines.push_back(I);
  if (Reader.readVarUInt() != Defines.size() || Defines.size() != NumDecls)
    return Fail("object body count mismatch");
  bool BadRef = false;
  auto Bind = [&](uint32_t Local, Kind Want) -> uint32_t {
    if (Local < NumSyms && Img.Symbols[Local].K == Want)
      return Img.Symbols[Local].Id;
    BadRef = true;
    return InvalidId;
  };
  SymRemap Remap;
  Remap.Routine = [&](uint32_t L) { return Bind(L, Kind::RefRoutine); };
  Remap.Global = [&](uint32_t L) { return Bind(L, Kind::RefGlobal); };
  for (uint32_t DefIdx : Defines) {
    uint64_t Len = Reader.readVarUInt();
    if (Reader.hadError() || Len > Reader.remaining())
      return Fail("truncated object body");
    size_t Offset = Size - Reader.remaining();
    auto Body = expandRoutine(Data + Offset, Len, P.tracker(), Remap);
    const ObjectImage::Symbol &Decl = Img.Symbols[Img.Symbols[DefIdx].Arg];
    if (!Body || BadRef || Body->NumParams != Decl.Arg)
      return Fail("corrupt routine body in object");
    Body->repack(); // Resident from commit on: keep no slab tail.
    Reader.skip(Len);
    Img.BodyRanges.push_back({Offset, size_t(Len)});
    Img.Bodies.push_back(std::move(Body));
  }
  if (Reader.hadError() || !Reader.atEnd())
    return Fail("trailing bytes in object");
  Error.clear();
  return true;
}

ModuleId scmo::commitObject(Program &P, ObjectImage &&Img,
                            ObjectIndex *Index) {
  if (P.numModules() != Img.BaseModules ||
      P.numRoutines() != Img.BaseRoutines || P.numGlobals() != Img.BaseGlobals)
    reportFatalError("commitObject: program changed since parseObject");
  ModuleId M = P.addModule(Img.ModuleName);
  P.module(M).SourceLines = Img.SourceLines;
  std::vector<SymbolTouch> Touches;
  Touches.reserve(Img.Symbols.size());
  ObjectIndex Idx;
  Idx.Symbols.reserve(Img.Symbols.size());
  size_t NextBody = 0;
  for (ObjectImage::Symbol &S : Img.Symbols) {
    uint32_t Id = InvalidId;
    switch (S.K) {
    case Kind::DeclRoutine:
      Id = P.declareRoutine(M, S.Name, S.Arg, S.IsStatic);
      P.routine(Id).NumParams = S.Arg;
      break;
    case Kind::DeclGlobal:
      Id = P.addGlobal(M, S.Name, S.Arg, S.Init, S.IsStatic);
      break;
    case Kind::RefRoutine:
      Id = P.findRoutineInModule(M, S.Name);
      if (Id == InvalidId)
        Id = P.declareRoutine(M, S.Name, S.Arg, /*IsStatic=*/false);
      break;
    case Kind::RefGlobal:
      Id = P.findGlobalInModule(M, S.Name);
      break;
    case Kind::Define:
      P.defineRoutine(S.Id, M, std::move(Img.Bodies[NextBody++]));
      Idx.DefinedHere.push_back(S.Id);
      Touches.push_back({S.K, S.Id, 0, 0});
      Idx.Symbols.push_back(InvalidId);
      continue;
    }
    // parseObject decoded the bodies against the predicted ids; a replay
    // that binds differently would silently miscompile, so it is fatal.
    if (Id != S.Id)
      reportFatalError("object replay diverged from parseObject's prediction");
    Touches.push_back({S.K, Id, S.Arg, S.Init});
    Idx.Symbols.push_back(Id);
  }
  ModuleInfo &Mod = P.module(M);
  for (std::string &Rec : Img.Records)
    Mod.Symtab.addRecord(std::move(Rec));
  Mod.Touches = std::move(Touches);
  if (Index) {
    Idx.Bodies = std::move(Img.BodyRanges);
    *Index = std::move(Idx);
  }
  return M;
}

ModuleId scmo::readObject(Program &P, const std::vector<uint8_t> &Bytes,
                          std::string &Error, ObjectIndex *Index) {
  ObjectImage Img;
  if (!parseObject(P, Bytes.data(), Bytes.size(), Img, Error))
    return InvalidId;
  return commitObject(P, std::move(Img), Index);
}

std::unique_ptr<RoutineBody> scmo::expandBodyFromObject(
    const std::vector<uint8_t> &Bytes, const ObjectIndex &Index,
    size_t BodyIdx, MemoryTracker *Tracker) {
  if (BodyIdx >= Index.Bodies.size())
    return nullptr;
  ObjectIndex::BodyRange Range = Index.Bodies[BodyIdx];
  if (Range.Offset > Bytes.size() || Range.Len > Bytes.size() - Range.Offset)
    return nullptr;
  SymRemap Remap;
  auto Bind = [&Index](uint32_t Local) -> uint32_t {
    return Local < Index.Symbols.size() ? Index.Symbols[Local] : InvalidId;
  };
  Remap.Global = Bind;
  Remap.Routine = Bind;
  auto Body =
      expandRoutine(Bytes.data() + Range.Offset, Range.Len, Tracker, Remap);
  if (Body)
    Body->repack();
  return Body;
}

bool scmo::writeFile(const std::string &Path,
                     const std::vector<uint8_t> &Bytes) {
  // Crash-safe emission: write a process-unique temporary next to the
  // target, flush it all the way to the platter, then atomically rename it
  // into place. A build killed mid-write leaves at worst a stale .tmp file
  // (cheap to ignore), never a truncated object a later link would trust.
  std::string Tmp = Path + ".tmp." + std::to_string(uint64_t(::getpid()));
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return false;
  size_t Written = Bytes.empty() ? 0 : std::fwrite(Bytes.data(), 1,
                                                   Bytes.size(), F);
  bool Ok = Written == Bytes.size() && std::fflush(F) == 0 &&
            ::fsync(::fileno(F)) == 0;
  Ok = std::fclose(F) == 0 && Ok;
  if (Ok)
    Ok = std::rename(Tmp.c_str(), Path.c_str()) == 0;
  if (!Ok)
    std::remove(Tmp.c_str());
  return Ok;
}

bool scmo::writeFileWithFaults(const std::string &Path,
                               const std::vector<uint8_t> &Bytes,
                               FaultInjector *FI, FaultInjector::Site S,
                               size_t CorruptSkip) {
  using Action = FaultInjector::Action;
  Action A = FI ? FI->next(S) : Action::None;
  switch (A) {
  case Action::FailIo:
  case Action::FailNoSpace:
    // The failed syscall happened before anything durable changed; the
    // caller's degradation ladder takes it from here.
    return false;
  case Action::Crash: {
    // Torture point: leave a torn prefix in the process-unique temporary,
    // make sure it is really on disk, then die without the rename. This is
    // the worst crash the protocol can produce — a reader must never see it
    // under the real name, and GC must be able to sweep it.
    std::string Tmp = Path + ".tmp." + std::to_string(uint64_t(::getpid()));
    std::FILE *F = std::fopen(Tmp.c_str(), "wb");
    if (F) {
      std::fwrite(Bytes.data(), 1, Bytes.size() / 2 + 1, F);
      std::fflush(F);
      ::fsync(::fileno(F));
      std::fclose(F);
    }
    ::kill(::getpid(), SIGKILL);
    std::abort(); // not reached
  }
  case Action::Corrupt: {
    // Persistent silent corruption: the bytes on disk differ from the bytes
    // whose checksum the caller framed, at an offset past CorruptSkip so the
    // flip lands in checksummed payload, not in a length field a bounds
    // check would reject before the checksum gets its say.
    std::vector<uint8_t> Bad = Bytes;
    if (Bad.size() > CorruptSkip)
      FI->corruptBytes(Bad.data() + CorruptSkip, Bad.size() - CorruptSkip);
    return writeFile(Path, Bad);
  }
  case Action::ShortWrite:
  case Action::Eintr:
    // Transparent: the write loop below is the "resume after a short write /
    // retry after EINTR" loop collapsed to its fixpoint.
    break;
  case Action::None:
    break;
  }
  return writeFile(Path, Bytes);
}

bool scmo::readFileWithFaults(const std::string &Path,
                              std::vector<uint8_t> &Bytes, FaultInjector *FI,
                              FaultInjector::Site S) {
  using Action = FaultInjector::Action;
  Action A = FI ? FI->next(S) : Action::None;
  if (A == Action::FailIo || A == Action::FailNoSpace)
    return false;
  if (A == Action::Crash) {
    ::kill(::getpid(), SIGKILL);
    std::abort(); // not reached
  }
  if (!readFile(Path, Bytes))
    return false;
  if (A == Action::Corrupt && !Bytes.empty())
    FI->corruptBytes(Bytes.data(), Bytes.size()); // in-memory only
  return true;
}

bool scmo::readFile(const std::string &Path, std::vector<uint8_t> &Bytes) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  std::fseek(F, 0, SEEK_END);
  long Size = std::ftell(F);
  std::fseek(F, 0, SEEK_SET);
  if (Size < 0) {
    std::fclose(F);
    return false;
  }
  Bytes.resize(static_cast<size_t>(Size));
  size_t Read =
      Bytes.empty() ? 0 : std::fread(Bytes.data(), 1, Bytes.size(), F);
  std::fclose(F);
  return Read == Bytes.size();
}
