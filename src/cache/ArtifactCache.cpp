//===- cache/ArtifactCache.cpp --------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "cache/ArtifactCache.h"

#include "bytecode/ObjectFile.h"
#include "cache/CacheDir.h"
#include "cache/CacheFormat.h"
#include "support/Hash.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <map>
#include <sys/stat.h>

using namespace scmo;
using cachefmt::FrameBytes;
using cachefmt::Reader;
using cachefmt::Sink;

namespace {

/// Current payload format. Bump on any layout change: an old artifact then
/// fails the version check and reads as a miss. (The frame envelope and
/// codecs live in cache/CacheFormat.h, shared with the analysis summary
/// cache; this version covers only the machine-code payload layout.)
/// Version 2: code sections hold the dense MachineCode encoding.
constexpr uint32_t FormatVersion = 2;

//===----------------------------------------------------------------------===//
// Symbol reference tables
//===----------------------------------------------------------------------===//

/// A routine reference: by (owner, name, linkage) for routines the frontend
/// declared, by creation index for the cloner's declarations (clone names
/// are synthesized and their ids replayed, so the index is the stable part).
struct RoutineRef {
  uint8_t Kind = 0; ///< 0 = named, 1 = clone.
  std::string Owner;
  std::string Name;
  bool IsStatic = false;
  uint32_t CloneIdx = 0;
};

struct GlobalRef {
  std::string Owner;
  std::string Name;
  bool IsStatic = false;
};

struct CloneDecl {
  std::string Owner;
  std::string Name;
  uint32_t NumParams = 0;
};

/// Builds reference tables while serializing: RoutineId -> table index.
struct RefBuilder {
  const Program &P;
  RoutineId CloneBase;
  std::vector<RoutineRef> Routines;
  std::vector<GlobalRef> Globals;
  std::map<RoutineId, uint32_t> RIdx;
  std::map<GlobalId, uint32_t> GIdx;

  RefBuilder(const Program &Prog, RoutineId CloneBase)
      : P(Prog), CloneBase(CloneBase) {}

  uint32_t routineRef(RoutineId R) {
    auto It = RIdx.find(R);
    if (It != RIdx.end())
      return It->second;
    RoutineRef Ref;
    if (R >= CloneBase) {
      Ref.Kind = 1;
      Ref.CloneIdx = R - CloneBase;
    } else {
      const RoutineInfo &RI = P.routine(R);
      Ref.Name = P.Strings.text(RI.Name);
      Ref.IsStatic = RI.IsStatic;
      if (RI.Owner != InvalidId)
        Ref.Owner = P.Strings.text(P.module(RI.Owner).Name);
    }
    uint32_t Idx = static_cast<uint32_t>(Routines.size());
    Routines.push_back(std::move(Ref));
    RIdx.emplace(R, Idx);
    return Idx;
  }

  uint32_t globalRef(GlobalId G) {
    auto It = GIdx.find(G);
    if (It != GIdx.end())
      return It->second;
    const GlobalVar &GV = P.global(G);
    GlobalRef Ref;
    Ref.Name = P.Strings.text(GV.Name);
    Ref.IsStatic = GV.IsStatic;
    if (GV.Owner != InvalidId)
      Ref.Owner = P.Strings.text(P.module(GV.Owner).Name);
    uint32_t Idx = static_cast<uint32_t>(Globals.size());
    Globals.push_back(std::move(Ref));
    GIdx.emplace(G, Idx);
    return Idx;
  }
};

ModuleId findModule(const Program &P, const std::string &Name) {
  return cachefmt::findModuleByName(P, Name);
}

/// Resolves a named routine reference against the current program.
RoutineId resolveRoutine(const Program &P, const RoutineRef &Ref) {
  return cachefmt::resolveRoutineByName(P, Ref.Name, Ref.IsStatic, Ref.Owner);
}

GlobalId resolveGlobal(const Program &P, const GlobalRef &Ref) {
  return cachefmt::resolveGlobalByName(P, Ref.Name, Ref.IsStatic, Ref.Owner);
}

} // namespace

//===----------------------------------------------------------------------===//
// IL content hashing
//===----------------------------------------------------------------------===//

namespace {

void hashOperand(Sink &S, const Operand &O) {
  S.u8(static_cast<uint8_t>(O.K));
  if (O.isReg())
    S.u64(O.asReg());
  else if (O.isImm())
    S.i64(O.asImm());
}

void hashSymbol(Sink &S, const Program &P, Opcode Op, uint32_t Sym) {
  // Reference by name + linkage + owner: stable across the id shifts that
  // editing *other* modules causes.
  if (Op == Opcode::Call) {
    const RoutineInfo &RI = P.routine(Sym);
    S.str(P.Strings.text(RI.Name));
    S.u8(RI.IsStatic ? 1 : 0);
    if (RI.IsStatic && RI.Owner != InvalidId)
      S.str(P.Strings.text(P.module(RI.Owner).Name));
  } else {
    const GlobalVar &GV = P.global(Sym);
    S.str(P.Strings.text(GV.Name));
    S.u8(GV.IsStatic ? 1 : 0);
    if (GV.IsStatic && GV.Owner != InvalidId)
      S.str(P.Strings.text(P.module(GV.Owner).Name));
  }
}

} // namespace

uint64_t scmo::contentHash(const Program &P, const RoutineBody &Body) {
  Sink S;
  S.u32(Body.NumParams);
  S.u32(static_cast<uint32_t>(Body.Blocks.size()));
  for (const BasicBlock &B : Body.Blocks) {
    S.u32(static_cast<uint32_t>(B.Instrs.size()));
    for (const Instr *I : B.Instrs) {
      S.u8(static_cast<uint8_t>(I->Op));
      S.u64(I->Dst);
      hashOperand(S, I->A);
      hashOperand(S, I->B);
      if (I->Op == Opcode::Call || I->Op == Opcode::LoadG ||
          I->Op == Opcode::StoreG || I->Op == Opcode::LoadIdx ||
          I->Op == Opcode::StoreIdx)
        hashSymbol(S, P, I->Op, I->Sym);
      S.u32(I->T1);
      S.u32(I->T2);
      S.u32(I->NumArgs);
      for (uint16_t A = 0; A != I->NumArgs; ++A)
        hashOperand(S, I->Args[A]);
    }
  }
  return hashBytes(S.Bytes.data(), S.Bytes.size());
}

//===----------------------------------------------------------------------===//
// Key material
//===----------------------------------------------------------------------===//

namespace {

std::vector<uint8_t> keyMaterial(const Program &P, const CacheUnit &U,
                                 const std::vector<uint64_t> &ContentHashes,
                                 uint64_t OptFingerprint,
                                 uint64_t ProfileEpoch) {
  Sink S;
  S.str(U.IsCmoUnit ? "unit" : "module");
  S.u64(OptFingerprint);
  S.u64(ProfileEpoch);
  S.u8(U.WholeProgram ? 1 : 0);
  S.u32(static_cast<uint32_t>(U.Modules.size()));
  for (ModuleId M : U.Modules) {
    const ModuleInfo &MI = P.module(M);
    S.str(P.Strings.text(MI.Name));
    // Owned routines only: foreign routines this module references are
    // covered by the owned bodies' content hashes (callee names) and by
    // calleeArities below.
    for (RoutineId R : MI.Routines) {
      const RoutineInfo &RI = P.routine(R);
      if (RI.Owner != M)
        continue;
      S.str(P.Strings.text(RI.Name));
      S.u64(R < ContentHashes.size() ? ContentHashes[R] : 0);
      S.u32(RI.NumParams);
      S.u8(RI.IsStatic ? 1 : 0);
      S.u8(RI.IsDefined ? 1 : 0);
      S.u8(RI.Selected ? 1 : 0);
      S.u8(static_cast<uint8_t>(RI.Tier));
    }
    S.str("|globals");
    for (GlobalId G : MI.Globals) {
      const GlobalVar &GV = P.global(G);
      if (GV.Owner != M)
        continue;
      S.str(P.Strings.text(GV.Name));
      S.u32(GV.Size);
      S.i64(GV.Init);
      S.u8(GV.IsStatic ? 1 : 0);
    }
    cachefmt::calleeArities(S, P, M);
    S.str("|end");
  }
  return std::move(S.Bytes);
}

} // namespace

//===----------------------------------------------------------------------===//
// ArtifactCache
//===----------------------------------------------------------------------===//

ArtifactCache::ArtifactCache(std::string Dir,
                             std::shared_ptr<FaultInjector> Injector,
                             Statistics &Stats)
    : Dir(std::move(Dir)), Injector(std::move(Injector)), Stats(Stats) {
  ::mkdir(this->Dir.c_str(), 0755); // Best-effort; writes report failures.
  Writable = cachedir::dirWritable(this->Dir);
}

std::string ArtifactCache::pathFor(const CacheUnit &U, uint64_t Key) const {
  return Dir + "/" + (U.IsCmoUnit ? "unit-" : "mod-") + cachefmt::hexKey(Key) +
         ".art";
}

std::string ArtifactCache::sourcePathFor(uint64_t Key) const {
  return Dir + "/src-" + cachefmt::hexKey(Key) + ".art";
}

ArtifactCache::EntryKey
ArtifactCache::keys(const Program &P, const CacheUnit &U,
                    const std::vector<uint64_t> &ContentHashes,
                    uint64_t OptFingerprint, uint64_t ProfileEpoch) const {
  std::vector<uint8_t> Material =
      keyMaterial(P, U, ContentHashes, OptFingerprint, ProfileEpoch);
  EntryKey K;
  K.Key = hashBytes(Material.data(), Material.size(), /*Seed=*/0);
  K.Check = hashBytes(Material.data(), Material.size(), /*Seed=*/1);
  return K;
}

bool ArtifactCache::load(Program &P, const CacheUnit &U, const EntryKey &K,
                         CachedUnit &Out) {
  // Any miss after the entry was successfully read off disk means the bytes
  // under this key are not usable: remember the key so this build's store
  // overwrites the entry (self-heal) instead of skipping it as present.
  //
  // Fault hooks on the read path (site cache-load): an injected I/O failure
  // is a miss; an injected EINTR is transparent (the read loop retries the
  // syscall); an injected in-memory flip is caught by the frame checksum
  // and degrades to a miss. A successful load refreshes the entry's
  // eviction epoch (its mtime) — lock-free, like the read itself.
  std::vector<uint8_t> Bytes;
  if (!cachedir::loadEntry(pathFor(U, K.Key), Bytes, Injector.get())) {
    Stats.add("cache.misses");
    return false;
  }
  if (!readUnitEntry(P, Bytes, K, Out)) {
    Stats.add("cache.misses");
    InvalidOnDisk.push_back(K.Key);
    return false;
  }
  Stats.add("cache.hits");
  return true;
}

void ArtifactCache::store(const Program &P, const CacheUnit &U,
                          const EntryKey &K,
                          const std::vector<MachineRoutine> &Machines,
                          RoutineId CloneBase,
                          const std::vector<CallEdgeWeight> &Edges) {
  storeEntry(pathFor(U, K.Key), K.Key,
             encodeUnitEntry(P, K, Machines, CloneBase, Edges),
             Injector.get(), "cache.");
}

bool scmo::readUnitEntry(Program &P, const std::vector<uint8_t> &Bytes,
                         const ArtifactCache::EntryKey &K, CachedUnit &Out) {
  // Frame validation.
  if (!cachefmt::checkArtifactFrame(Bytes))
    return false;
  Reader R(Bytes, FrameBytes);
  if (R.u32() != FormatVersion)
    return false;
  if (R.u64() != K.Check) // Key collision or stale content: not ours.
    return false;

  // Reference tables. Every count is checked against the bytes left before
  // anything is sized by it (each record takes at least one byte).
  auto count = [&R] {
    uint32_t N = R.u32();
    return N <= size_t(R.End - R.P) ? N : (R.Bad = true, 0u);
  };
  std::vector<RoutineRef> RRefs(count());
  for (RoutineRef &Ref : RRefs) {
    Ref.Kind = R.u8();
    if (Ref.Kind == 0) {
      Ref.Name = R.str();
      Ref.IsStatic = R.u8() != 0;
      Ref.Owner = R.str();
    } else {
      Ref.CloneIdx = R.u32();
    }
  }
  std::vector<GlobalRef> GRefs(count());
  for (GlobalRef &Ref : GRefs) {
    Ref.Name = R.str();
    Ref.IsStatic = R.u8() != 0;
    Ref.Owner = R.str();
  }
  std::vector<CloneDecl> Clones(count());
  for (CloneDecl &C : Clones) {
    C.Owner = R.str();
    C.Name = R.str();
    C.NumParams = R.u32();
  }
  if (R.Bad)
    return false;

  // Phase 1 — resolve everything read-only. Named references resolve
  // against the current program; clone references resolve to the ids the
  // phase-2 replay *will* assign. Nothing is declared until every
  // resolution has succeeded, so a failed load leaves the program
  // untouched.
  RoutineId CloneStart = static_cast<RoutineId>(P.numRoutines());
  auto Refs = std::make_shared<SymRefs>();
  std::vector<RoutineId> &RMap = Refs->Routines;
  RMap.assign(RRefs.size(), InvalidId);
  for (size_t I = 0; I != RRefs.size(); ++I) {
    if (RRefs[I].Kind == 1) {
      if (RRefs[I].CloneIdx >= Clones.size())
        return false;
      RMap[I] = CloneStart + RRefs[I].CloneIdx;
    } else {
      RMap[I] = resolveRoutine(P, RRefs[I]);
      if (RMap[I] == InvalidId)
        return false;
    }
  }
  std::vector<GlobalId> &GMap = Refs->Globals;
  GMap.assign(GRefs.size(), InvalidId);
  std::vector<ModuleId> CloneOwner(Clones.size(), InvalidId);
  for (size_t I = 0; I != GRefs.size(); ++I) {
    GMap[I] = resolveGlobal(P, GRefs[I]);
    if (GMap[I] == InvalidId)
      return false;
  }
  for (size_t I = 0; I != Clones.size(); ++I) {
    CloneOwner[I] = findModule(P, Clones[I].Owner);
    if (CloneOwner[I] == InvalidId)
      return false;
  }

  // Machine code: one validating walk per routine checks every instruction
  // and every reference index against the tables. The code is kept as
  // stored; the linker resolves its indices through Refs.
  uint32_t NumMachines = count();
  if (R.Bad)
    return false;
  std::vector<MachineRoutine> Machines;
  Machines.reserve(NumMachines);
  for (uint32_t MI = 0; MI != NumMachines; ++MI) {
    MachineRoutine MR;
    uint32_t Ref = R.u32();
    if (Ref >= RMap.size())
      return false;
    MR.Routine = RMap[Ref];
    MR.Name = R.str();
    MR.SpillSlots = R.u32();
    MR.EntryFreq = R.u64();
    MR.SourceLines = R.u32();
    MR.NumInstrs = R.u32();
    uint32_t CodeLen = R.u32();
    if (!R.need(CodeLen))
      return false;
    MCodeReader Code(R.P, CodeLen, MR.NumInstrs, MR.SpillSlots);
    MInstr I;
    while (Code.next(I))
      if (!Refs->resolve(I))
        return false;
    if (!Code.ok())
      return false;
    MR.Code.assign(R.P, R.P + CodeLen);
    MR.Refs = Refs;
    R.P += CodeLen;
    Machines.push_back(std::move(MR));
  }

  // Edge-weight contributions.
  uint32_t NumEdges = count();
  if (R.Bad)
    return false;
  std::vector<CallEdgeWeight> Edges;
  Edges.reserve(NumEdges);
  for (uint32_t EI = 0; EI != NumEdges; ++EI) {
    uint32_t From = R.u32();
    uint32_t To = R.u32();
    uint64_t W = R.u64();
    if (From >= RMap.size() || To >= RMap.size())
      return false;
    Edges.push_back({RMap[From], RMap[To], W});
  }
  if (R.Bad || R.P != R.End)
    return false;

  // Phase 2 — commit. Replay the cloner's declarations in creation order:
  // the frontend left the routine table exactly as it was when the cold
  // build ran HLO, so each declareRoutine here hands back the same id the
  // cold cloner got, and the ascending-id link order reproduces.
  for (size_t I = 0; I != Clones.size(); ++I)
    P.declareRoutine(CloneOwner[I], Clones[I].Name, Clones[I].NumParams,
                     /*IsStatic=*/true);

  Out.Machines = std::move(Machines);
  Out.Edges = std::move(Edges);
  Out.ClonesReplayed = static_cast<uint32_t>(Clones.size());
  return true;
}

std::vector<uint8_t>
scmo::encodeUnitEntry(const Program &P, const ArtifactCache::EntryKey &K,
                      const std::vector<MachineRoutine> &Machines,
                      RoutineId CloneBase,
                      const std::vector<CallEdgeWeight> &Edges) {
  // Build the reference tables by walking everything that names a symbol.
  // Code is re-encoded with every routine and global operand rewritten to
  // its reference index (code loaded from an artifact is first resolved
  // through its own tables).
  RefBuilder Refs(P, CloneBase);
  Sink Body;
  Body.u32(static_cast<uint32_t>(Machines.size()));
  for (const MachineRoutine &MR : Machines) {
    Body.u32(Refs.routineRef(MR.Routine));
    Body.str(MR.Name);
    Body.u32(MR.SpillSlots);
    Body.u64(MR.EntryFreq);
    Body.u32(MR.SourceLines);
    Body.u32(MR.NumInstrs);
    size_t LenAt = Body.Bytes.size();
    Body.u32(0); // Code length, patched below.
    MCodeReader Code(MR);
    MInstr I;
    while (Code.next(I)) {
      [[maybe_unused]] bool Resolved = !MR.Refs || MR.Refs->resolve(I);
      assert(Resolved && "reference index past the unit's tables");
      switch (symKind(I.Op)) {
      case SymKind::Routine:
        I.Sym = Refs.routineRef(I.Sym);
        break;
      case SymKind::Global:
        I.Sym = Refs.globalRef(I.Sym);
        break;
      case SymKind::None:
        break;
      }
      encodeMInstr(Body.Bytes, I);
    }
    assert(Code.ok() && "LLO produced malformed code");
    uint32_t Len = static_cast<uint32_t>(Body.Bytes.size() - LenAt - 4);
    for (int B = 0; B != 4; ++B)
      Body.Bytes[LenAt + B] = static_cast<uint8_t>(Len >> (B * 8));
  }
  Body.u32(static_cast<uint32_t>(Edges.size()));
  for (const CallEdgeWeight &E : Edges) {
    Body.u32(Refs.routineRef(E.From));
    Body.u32(Refs.routineRef(E.To));
    Body.u64(E.Weight);
  }

  // Clone declarations, creation order == id order.
  Sink CloneSec;
  uint32_t NumClones = 0;
  for (RoutineId R = CloneBase; R < P.numRoutines(); ++R) {
    const RoutineInfo &RI = P.routine(R);
    CloneSec.str(RI.Owner != InvalidId
                     ? P.Strings.text(P.module(RI.Owner).Name)
                     : "");
    CloneSec.str(P.Strings.text(RI.Name));
    CloneSec.u32(RI.NumParams);
    ++NumClones;
  }

  // Assemble the payload: header, ref tables, clones, machines+edges.
  Sink Payload;
  Payload.u32(FormatVersion);
  Payload.u64(K.Check);
  Payload.u32(static_cast<uint32_t>(Refs.Routines.size()));
  for (const RoutineRef &Ref : Refs.Routines) {
    Payload.u8(Ref.Kind);
    if (Ref.Kind == 0) {
      Payload.str(Ref.Name);
      Payload.u8(Ref.IsStatic ? 1 : 0);
      Payload.str(Ref.Owner);
    } else {
      Payload.u32(Ref.CloneIdx);
    }
  }
  Payload.u32(static_cast<uint32_t>(Refs.Globals.size()));
  for (const GlobalRef &Ref : Refs.Globals) {
    Payload.str(Ref.Name);
    Payload.u8(Ref.IsStatic ? 1 : 0);
    Payload.str(Ref.Owner);
  }
  Payload.u32(NumClones);
  Payload.Bytes.insert(Payload.Bytes.end(), CloneSec.Bytes.begin(),
                       CloneSec.Bytes.end());
  Payload.Bytes.insert(Payload.Bytes.end(), Body.Bytes.begin(),
                       Body.Bytes.end());

  // Frame it. The checksum is computed over the *clean* payload; an
  // injected corrupt flips bytes past the frame (CorruptSkip = FrameBytes)
  // inside writeFileWithFaults, mirroring real silent disk corruption: the
  // frame looks intact, the checksum catches it at read time.
  Sink File;
  cachefmt::frameArtifact(File, Payload.Bytes);
  File.Bytes.insert(File.Bytes.end(), Payload.Bytes.begin(),
                    Payload.Bytes.end());
  return std::move(File.Bytes);
}

void ArtifactCache::storeEntry(const std::string &Path, uint64_t Key,
                               const std::vector<uint8_t> &File,
                               FaultInjector *FI, std::string_view Prefix) {
  auto Count = [&](std::string_view What) {
    Stats.add(std::string(Prefix).append(What));
  };
  if (!Writable) {
    // Read-only shared cache: load-only operation, the driver surfaces one
    // scmo-cache-degraded warning. Never an error — the cache accelerates.
    Count("store_skips");
    return;
  }

  bool Overwrite = std::find(InvalidOnDisk.begin(), InvalidOnDisk.end(),
                             Key) != InvalidOnDisk.end();
  using SO = cachedir::StoreOutcome;
  switch (cachedir::storeEntry(Path, File, FI, /*CorruptSkip=*/FrameBytes,
                               /*LockWaitMs=*/2000, Overwrite)) {
  case SO::Stored:
    Count("stores");
    break;
  case SO::AlreadyPresent: // A racing builder installed identical bytes.
    Count("store_present");
    break;
  case SO::Contended: // Lock held past the bounded wait; holder stores it.
    Count("store_contended");
    break;
  case SO::Failed:
    Count("store_failures");
    break;
  }
}

//===----------------------------------------------------------------------===//
// Source-keyed IL objects
//===----------------------------------------------------------------------===//

namespace {

/// Source-entry payload layout version: version, check, hash count, hashes,
/// object. (ObjectFormatVersion, part of the key, covers the object.)
constexpr uint32_t SourceEntryVersion = 1;

} // namespace

ArtifactCache::EntryKey ArtifactCache::sourceKey(std::string_view ModuleName,
                                                 std::string_view Source) {
  Sink S;
  S.u32(ObjectFormatVersion);
  S.str(std::string(ModuleName));
  S.Bytes.insert(S.Bytes.end(), Source.begin(), Source.end());
  EntryKey K;
  K.Key = hashBytes(S.Bytes.data(), S.Bytes.size(), /*Seed=*/0);
  K.Check = hashBytes(S.Bytes.data(), S.Bytes.size(), /*Seed=*/1);
  return K;
}

std::vector<uint8_t> scmo::encodeSourceEntry(
    const ArtifactCache::EntryKey &K, const std::vector<uint8_t> &Object,
    const std::vector<uint64_t> &Hashes) {
  Sink Payload;
  Payload.u32(SourceEntryVersion);
  Payload.u64(K.Check);
  Payload.u32(static_cast<uint32_t>(Hashes.size()));
  for (uint64_t H : Hashes)
    Payload.u64(H);
  Payload.Bytes.insert(Payload.Bytes.end(), Object.begin(), Object.end());
  Sink File;
  cachefmt::frameArtifact(File, Payload.Bytes);
  File.Bytes.insert(File.Bytes.end(), Payload.Bytes.begin(),
                    Payload.Bytes.end());
  return std::move(File.Bytes);
}

ModuleId scmo::readSourceEntry(Program &P, const std::vector<uint8_t> &Entry,
                               const ArtifactCache::EntryKey &K,
                               std::vector<uint64_t> &Hashes) {
  // Everything is checked before the program is touched: the frame and
  // check hash here, the object's structure and its links into the current
  // program in parseObject.
  if (!cachefmt::checkArtifactFrame(Entry))
    return InvalidId;
  Reader R(Entry, FrameBytes);
  if (R.u32() != SourceEntryVersion || R.u64() != K.Check)
    return InvalidId;
  uint32_t NumHashes = R.u32();
  if (R.Bad || NumHashes > size_t(R.End - R.P) / 8)
    return InvalidId;
  Hashes.resize(NumHashes);
  for (uint64_t &H : Hashes)
    H = R.u64();
  size_t ObjectOffset = Entry.size() - size_t(R.End - R.P);
  ObjectImage Img;
  std::string Error;
  if (R.Bad ||
      !parseObject(P, Entry.data() + ObjectOffset, Entry.size() - ObjectOffset,
                   Img, Error) ||
      Img.Bodies.size() != Hashes.size())
    return InvalidId;
  return commitObject(P, std::move(Img));
}

ModuleId ArtifactCache::loadSource(Program &P, const EntryKey &K,
                                   std::vector<uint64_t> &Hashes) {
  std::vector<uint8_t> Bytes;
  if (!cachedir::loadEntry(sourcePathFor(K.Key), Bytes, Injector.get())) {
    Stats.add("cache.source_misses");
    return InvalidId;
  }
  ModuleId M = readSourceEntry(P, Bytes, K, Hashes);
  if (M == InvalidId) {
    Stats.add("cache.source_misses");
    InvalidOnDisk.push_back(K.Key);
    return InvalidId;
  }
  Stats.add("cache.source_hits");
  return M;
}

void ArtifactCache::storeSource(const EntryKey &K,
                                const std::vector<uint8_t> &Object,
                                const std::vector<uint64_t> &Hashes) {
  // No injector: cache-store faults address the unit artifacts (header).
  storeEntry(sourcePathFor(K.Key), K.Key, encodeSourceEntry(K, Object, Hashes),
             /*FI=*/nullptr, "cache.source_");
}
