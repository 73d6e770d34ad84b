//===- analysis/SummaryCache.cpp --------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "analysis/SummaryCache.h"

#include "bytecode/ObjectFile.h"
#include "cache/CacheDir.h"
#include "cache/CacheFormat.h"
#include "support/FaultInjector.h"
#include "support/Hash.h"

#include <algorithm>
#include <map>
#include <sys/stat.h>

using namespace scmo;
using cachefmt::Reader;
using cachefmt::Sink;

namespace {

/// Payload layout version — bump when the record encoding below changes.
constexpr uint32_t AnaFormatVersion = 2;

/// The module's analysis inputs, in declaration order: every owned defined
/// routine. This is both the key-material roster and the positional record
/// order inside the artifact.
std::vector<RoutineId> ownedDefined(const Program &P, ModuleId M) {
  std::vector<RoutineId> Out;
  for (RoutineId R : P.module(M).Routines) {
    const RoutineInfo &Info = P.routine(R);
    if (Info.IsDefined && Info.Owner == M)
      Out.push_back(R);
  }
  return Out;
}

std::vector<uint8_t> keyMaterial(const Program &P, ModuleId M,
                                 const std::vector<uint64_t> &ContentHashes,
                                 bool Verify, uint32_t NumProbes) {
  Sink S;
  S.str("analysis");
  S.u32(AnaFormatVersion);
  S.u8(Verify ? 1 : 0);
  S.u32(NumProbes);
  S.str(P.Strings.text(P.module(M).Name));
  // The module's own routines: identity, shape, and full IL content.
  std::vector<RoutineId> Owned = ownedDefined(P, M);
  S.u32(static_cast<uint32_t>(Owned.size()));
  for (RoutineId R : Owned) {
    const RoutineInfo &Info = P.routine(R);
    S.str(P.Strings.text(Info.Name));
    S.u64(R < ContentHashes.size() ? ContentHashes[R] : 0);
    S.u32(Info.NumParams);
    S.u8(Info.IsStatic ? 1 : 0);
  }
  // No global's shape: the zero-read checks read it from the program at
  // replay time, so editing an initializer invalidates nothing.
  cachefmt::calleeArities(S, P, M);
  return std::move(S.Bytes);
}

//===----------------------------------------------------------------------===//
// Symbol reference tables
//===----------------------------------------------------------------------===//
//
// Artifacts refer to routines and globals through per-artifact reference
// tables — each referenced symbol is written once as (name, linkage, owner
// module), in first-reference order, and record fields store the table
// index. Loading resolves the whole table up front; one unresolvable name
// fails the load before any record is decoded.

/// One reference table: symbol ids in first-reference order.
struct RefTable {
  std::vector<uint32_t> Ids;
  std::map<uint32_t, uint32_t> Pos; ///< Writing: id -> index.

  /// Writing: the index of \p Id, appending it on first reference.
  uint32_t ref(uint32_t Id) {
    auto [It, New] = Pos.emplace(Id, static_cast<uint32_t>(Ids.size()));
    if (New)
      Ids.push_back(Id);
    return It->second;
  }

  /// Reading: rebinds a record's reference; false when out of range.
  bool bind(uint32_t Ref, uint32_t &Out) const {
    if (Ref >= Ids.size())
      return false;
    Out = Ids[Ref];
    return true;
  }

  /// Reading: one table of (name, linkage, owner) entries; false when a
  /// name no longer resolves.
  template <typename ResolveFn>
  bool read(const Program &P, Reader &R, ResolveFn Resolve) {
    uint32_t N = R.u32();
    for (uint32_t I = 0; I != N && !R.Bad; ++I) {
      std::string Name = R.str();
      bool IsStatic = R.u8() != 0;
      std::string Owner = R.str();
      uint32_t Id = Resolve(P, Name, IsStatic, Owner);
      if (Id == InvalidId)
        return false;
      Ids.push_back(Id);
    }
    return !R.Bad;
  }
};

/// Spells a global or routine as (name, linkage, owner module of a static).
template <typename Sym> void spell(const Program &P, const Sym &X, Sink &S) {
  S.str(P.Strings.text(X.Name));
  S.u8(X.IsStatic ? 1 : 0);
  S.str(X.IsStatic ? P.Strings.text(P.module(X.Owner).Name) : "");
}

struct RefTables {
  RefTable Globals, Routines;

  void emit(const Program &P, Sink &S) const {
    S.u32(static_cast<uint32_t>(Globals.Ids.size()));
    for (GlobalId G : Globals.Ids)
      spell(P, P.global(G), S);
    S.u32(static_cast<uint32_t>(Routines.Ids.size()));
    for (RoutineId R : Routines.Ids)
      spell(P, P.routine(R), S);
  }

  bool read(const Program &P, Reader &R) {
    return Globals.read(P, R, cachefmt::resolveGlobalByName) &&
           Routines.read(P, R, cachefmt::resolveRoutineByName);
  }
};

//===----------------------------------------------------------------------===//
// Record encoding
//===----------------------------------------------------------------------===//

void encodeFacts(const Program &P, const RoutineFacts &F, RefTables &Refs,
                 Sink &S) {
  S.u32(static_cast<uint32_t>(F.Diags.size()));
  for (const Diagnostic &D : F.Diags) {
    S.u8(static_cast<uint8_t>(D.Sev));
    S.u8(static_cast<uint8_t>(D.Code));
    S.u32(D.Block);
    S.u32(D.InstrIdx);
    S.u32(D.Line);
    S.str(D.Message);
  }
  const AnalysisSummary &Sum = F.Summary;
  S.u32(Sum.NumParams);
  S.u32(Sum.DirectlyUsedParams);
  S.u32(Sum.TrapOnZeroParams);
  S.u8(Sum.HasComputedReturn ? 1 : 0);
  S.u8(Sum.Minimal ? 1 : 0);
  for (const auto *List : {&Sum.Loads, &Sum.Stores}) {
    S.u32(static_cast<uint32_t>(List->size()));
    for (const AnalysisSummary::GlobalSite &GS : *List) {
      S.u32(Refs.Globals.ref(GS.Global));
      S.u32(GS.Block);
      S.u32(GS.InstrIdx);
      S.u32(GS.Line);
      S.u8(GS.Reachable ? 1 : 0);
    }
  }
  S.u32(static_cast<uint32_t>(Sum.Sites.size()));
  for (const AnalysisSummary::Site &Site : Sum.Sites) {
    S.u32(Refs.Routines.ref(Site.Callee));
    S.u32(Site.Block);
    S.u32(Site.InstrIdx);
    S.u32(Site.Line);
    S.u8(Site.ResultUsed ? 1 : 0);
    S.u8(Site.Reachable ? 1 : 0);
    S.u32(static_cast<uint32_t>(Site.Args.size()));
    for (const AnalysisSummary::CallArg &A : Site.Args) {
      S.u8(static_cast<uint8_t>(A.Kind));
      S.i64(A.Imm);
      S.u8(A.Param);
    }
  }
  S.u32(static_cast<uint32_t>(Sum.MustCallees.size()));
  for (RoutineId Callee : Sum.MustCallees)
    S.u32(Refs.Routines.ref(Callee));
  S.u64(F.ScratchBytes);
}

/// Decodes one routine record, rebinding symbol references through \p Refs
/// and stamping \p Self as the diagnostics' routine. False on any
/// malformation — the caller treats the whole artifact as a miss.
bool decodeFacts(Reader &R, const RefTables &Refs, RoutineId Self,
                 RoutineFacts &F) {
  uint32_t NDiags = R.u32();
  for (uint32_t I = 0; I != NDiags && !R.Bad; ++I) {
    Diagnostic D;
    uint8_t Sev = R.u8();
    uint8_t Code = R.u8();
    if (Sev > static_cast<uint8_t>(Severity::Error) ||
        Code >= static_cast<uint8_t>(CheckCode::NumCheckCodes))
      return false;
    D.Sev = static_cast<Severity>(Sev);
    D.Code = static_cast<CheckCode>(Code);
    D.Routine = Self;
    D.Block = R.u32();
    D.InstrIdx = R.u32();
    D.Line = R.u32();
    D.Message = R.str();
    F.Diags.push_back(std::move(D));
  }
  AnalysisSummary &Sum = F.Summary;
  Sum.NumParams = R.u32();
  Sum.DirectlyUsedParams = R.u32();
  Sum.TrapOnZeroParams = R.u32();
  Sum.HasComputedReturn = R.u8() != 0;
  Sum.Minimal = R.u8() != 0;
  for (auto *List : {&Sum.Loads, &Sum.Stores}) {
    uint32_t N = R.u32();
    for (uint32_t I = 0; I != N && !R.Bad; ++I) {
      AnalysisSummary::GlobalSite GS;
      if (!Refs.Globals.bind(R.u32(), GS.Global))
        return false;
      GS.Block = R.u32();
      GS.InstrIdx = R.u32();
      GS.Line = R.u32();
      GS.Reachable = R.u8() != 0;
      List->push_back(GS);
    }
  }
  uint32_t NSites = R.u32();
  for (uint32_t I = 0; I != NSites && !R.Bad; ++I) {
    AnalysisSummary::Site Site;
    if (!Refs.Routines.bind(R.u32(), Site.Callee))
      return false;
    Site.Block = R.u32();
    Site.InstrIdx = R.u32();
    Site.Line = R.u32();
    Site.ResultUsed = R.u8() != 0;
    Site.Reachable = R.u8() != 0;
    uint32_t NArgs = R.u32();
    for (uint32_t J = 0; J != NArgs && !R.Bad; ++J) {
      AnalysisSummary::CallArg A;
      uint8_t Kind = R.u8();
      if (Kind > static_cast<uint8_t>(AnalysisSummary::ArgKind::ParamCopy))
        return false;
      A.Kind = static_cast<AnalysisSummary::ArgKind>(Kind);
      A.Imm = R.i64();
      A.Param = R.u8();
      Site.Args.push_back(A);
    }
    Sum.Sites.push_back(std::move(Site));
  }
  uint32_t NMust = R.u32();
  for (uint32_t I = 0; I != NMust && !R.Bad; ++I) {
    RoutineId Callee = InvalidId;
    if (!Refs.Routines.bind(R.u32(), Callee))
      return false;
    Sum.MustCallees.push_back(Callee);
  }
  F.ScratchBytes = R.u64();
  return !R.Bad;
}

} // namespace

//===----------------------------------------------------------------------===//
// AnalysisSummaryCache
//===----------------------------------------------------------------------===//

AnalysisSummaryCache::AnalysisSummaryCache(
    std::string Dir, std::shared_ptr<FaultInjector> Injector)
    : Dir(std::move(Dir)), Injector(std::move(Injector)) {
  ::mkdir(this->Dir.c_str(), 0755); // Best-effort; writes report failures.
  Writable = cachedir::dirWritable(this->Dir);
}

std::string AnalysisSummaryCache::pathFor(uint64_t Key) const {
  return Dir + "/ana-" + cachefmt::hexKey(Key) + ".art";
}

AnalysisSummaryCache::ModuleKey
AnalysisSummaryCache::keys(const Program &P, ModuleId M,
                           const std::vector<uint64_t> &ContentHashes,
                           bool Verify, uint32_t NumProbes) const {
  std::vector<uint8_t> Material =
      keyMaterial(P, M, ContentHashes, Verify, NumProbes);
  ModuleKey K;
  K.Key = hashBytes(Material.data(), Material.size(), /*Seed=*/0);
  K.Check = hashBytes(Material.data(), Material.size(), /*Seed=*/1);
  return K;
}

std::vector<uint8_t> scmo::encodeAnalysisEntry(
    const Program &P, const AnalysisSummaryCache::ModuleKey &K,
    const std::vector<std::pair<RoutineId, const RoutineFacts *>> &Records) {
  // Encode records first: the reference tables fill as a side effect and
  // must precede the records in the payload.
  RefTables Refs;
  Sink Body;
  Body.u32(static_cast<uint32_t>(Records.size()));
  for (const auto &Rec : Records)
    encodeFacts(P, *Rec.second, Refs, Body);

  Sink Payload;
  Payload.u32(AnaFormatVersion);
  Payload.u64(K.Check);
  Refs.emit(P, Payload);
  Payload.Bytes.insert(Payload.Bytes.end(), Body.Bytes.begin(),
                       Body.Bytes.end());

  Sink File;
  cachefmt::frameArtifact(File, Payload.Bytes);
  File.Bytes.insert(File.Bytes.end(), Payload.Bytes.begin(),
                    Payload.Bytes.end());
  return std::move(File.Bytes);
}

bool scmo::readAnalysisEntry(
    const Program &P, ModuleId M, const std::vector<uint8_t> &Entry,
    const AnalysisSummaryCache::ModuleKey &K,
    std::vector<std::pair<RoutineId, RoutineFacts>> &Out) {
  if (!cachefmt::checkArtifactFrame(Entry))
    return false;
  Reader R(Entry, cachefmt::FrameBytes);
  if (R.u32() != AnaFormatVersion)
    return false;
  // The second-seed check hash: a key collision (same filename, different
  // module state) fails here instead of replaying someone else's facts.
  if (R.u64() != K.Check)
    return false;

  RefTables Refs;
  if (!Refs.read(P, R))
    return false;

  std::vector<RoutineId> Owned = ownedDefined(P, M);
  if (R.u32() != Owned.size())
    return false;

  std::vector<std::pair<RoutineId, RoutineFacts>> Loaded;
  Loaded.reserve(Owned.size());
  for (RoutineId Self : Owned) {
    RoutineFacts F;
    if (!decodeFacts(R, Refs, Self, F))
      return false;
    Loaded.emplace_back(Self, std::move(F));
  }
  if (R.Bad || R.P != R.End)
    return false;
  // Accept only the bytes the encoder writes for what was decoded (flags
  // 0/1, tables in first-use order, each symbol spelled as the writer
  // spells it), so no two byte strings load as the same facts.
  std::vector<std::pair<RoutineId, const RoutineFacts *>> Records;
  for (const auto &[Self, F] : Loaded)
    Records.emplace_back(Self, &F);
  if (encodeAnalysisEntry(P, K, Records) != Entry)
    return false;
  Out = std::move(Loaded);
  return true;
}

bool AnalysisSummaryCache::load(
    const Program &P, ModuleId M, const ModuleKey &K,
    std::vector<std::pair<RoutineId, RoutineFacts>> &Out) {
  // A miss after the entry was read off disk marks the key for an
  // overwriting re-store (self-heal); a plain absence does not.
  std::vector<uint8_t> Bytes;
  if (!cachedir::loadEntry(pathFor(K.Key), Bytes, Injector.get())) {
    ++Misses;
    return false;
  }
  if (!readAnalysisEntry(P, M, Bytes, K, Out)) {
    ++Misses;
    InvalidOnDisk.push_back(K.Key);
    return false;
  }
  ++Hits;
  return true;
}

void AnalysisSummaryCache::store(
    const Program &P, const ModuleKey &K,
    const std::vector<std::pair<RoutineId, const RoutineFacts *>> &Records) {
  if (!Writable) {
    // Shared read-only cache: the decode-failure (and cold-miss) re-store
    // is skipped so `--analyze --incremental` still runs, load-only.
    ++StoreSkips;
    return;
  }
  std::vector<uint8_t> File = encodeAnalysisEntry(P, K, Records);
  bool Overwrite = std::find(InvalidOnDisk.begin(), InvalidOnDisk.end(),
                             K.Key) != InvalidOnDisk.end();
  switch (cachedir::storeEntry(pathFor(K.Key), File, Injector.get(),
                               /*CorruptSkip=*/cachefmt::FrameBytes,
                               /*LockWaitMs=*/2000, Overwrite)) {
  case cachedir::StoreOutcome::Stored:
    ++Stores;
    break;
  case cachedir::StoreOutcome::AlreadyPresent:
  case cachedir::StoreOutcome::Contended:
    // A racing analyzer owns or installed the identical entry; not a loss.
    ++StoreSkips;
    break;
  case cachedir::StoreOutcome::Failed:
    ++StoreFailures;
    break;
  }
}
