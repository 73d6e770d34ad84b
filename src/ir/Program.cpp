//===- ir/Program.cpp -----------------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "ir/Program.h"

#include "ir/CallGraph.h"
#include "support/VarInt.h"

using namespace scmo;

//===----------------------------------------------------------------------===//
// ModuleSymtab
//===----------------------------------------------------------------------===//

void ModuleSymtab::addRecord(std::string Text) {
  assert(State == PoolState::Expanded && "adding to a compacted symtab");
  uint64_t Bytes = Text.size() + 48;
  Records.push_back(std::move(Text));
  Charged += Bytes;
  if (Tracker)
    Tracker->allocate(MemCategory::HloSymtab, Bytes);
}

void ModuleSymtab::releaseCharge() {
  if (Tracker && Charged)
    Tracker->release(MemCategory::HloSymtab, Charged);
  Charged = 0;
}

void ModuleSymtab::compact(MemoryTracker *SessionTracker) {
  if (State != PoolState::Expanded)
    return;
  if (!Tracker)
    Tracker = SessionTracker;
  std::vector<uint8_t> Bytes;
  encodeVarUInt(Bytes, Records.size());
  for (const auto &R : Records) {
    encodeVarUInt(Bytes, R.size());
    Bytes.insert(Bytes.end(), R.begin(), R.end());
  }
  CompactForm = TrackedBuffer(Tracker, MemCategory::HloCompact);
  CompactForm.assign(std::move(Bytes));
  Records.clear();
  Records.shrink_to_fit();
  releaseCharge();
  State = PoolState::Compact;
}

void ModuleSymtab::expand() {
  if (State != PoolState::Compact)
    return;
  ByteReader Reader(CompactForm.bytes());
  uint64_t N = Reader.readVarUInt();
  Records.clear();
  Records.reserve(N);
  Charged = 0;
  for (uint64_t I = 0; I != N; ++I) {
    uint64_t Len = Reader.readVarUInt();
    std::string S(Len, '\0');
    Reader.readBytes(reinterpret_cast<uint8_t *>(S.data()), Len);
    Charged += S.size() + 48;
    Records.push_back(std::move(S));
  }
  assert(!Reader.hadError() && "corrupt compact symtab");
  if (Tracker && Charged)
    Tracker->allocate(MemCategory::HloSymtab, Charged);
  CompactForm.clear();
  State = PoolState::Expanded;
}

//===----------------------------------------------------------------------===//
// Program
//===----------------------------------------------------------------------===//

ModuleId Program::addModule(std::string_view Name) {
  ModuleId M = static_cast<ModuleId>(Modules.size());
  Modules.emplace_back();
  Modules.back().Name = Strings.intern(Name);
  Modules.back().Symtab = ModuleSymtab(Tracker);
  return M;
}

GlobalId Program::addGlobal(ModuleId M, std::string_view Name, uint32_t Size,
                            int64_t Init, bool IsStatic) {
  assert(M < Modules.size() && "bad module id");
  StrId N = Strings.intern(Name);
  if (IsStatic) {
    auto Key = std::make_pair(M, N);
    auto It = StaticGlobals.find(Key);
    if (It != StaticGlobals.end())
      return It->second;
    GlobalId G = static_cast<GlobalId>(Globals.size());
    Globals.push_back({N, M, Size, Init, /*IsStatic=*/true, false, false});
    StaticGlobals.emplace(Key, G);
    Modules[M].Globals.push_back(G);
    return G;
  }
  auto It = ExternGlobals.find(N);
  if (It != ExternGlobals.end()) {
    // Merge: a definition may refine a previous extern declaration's size.
    GlobalVar &GV = Globals[It->second];
    if (Size > GV.Size)
      GV.Size = Size;
    if (Init)
      GV.Init = Init;
    return It->second;
  }
  GlobalId G = static_cast<GlobalId>(Globals.size());
  Globals.push_back({N, M, Size, Init, /*IsStatic=*/false, false, false});
  ExternGlobals.emplace(N, G);
  Modules[M].Globals.push_back(G);
  return G;
}

RoutineId Program::declareRoutine(ModuleId M, std::string_view Name,
                                  uint32_t NumParams, bool IsStatic) {
  assert(M < Modules.size() && "bad module id");
  StrId N = Strings.intern(Name);
  if (IsStatic) {
    auto Key = std::make_pair(M, N);
    auto It = StaticRoutines.find(Key);
    if (It != StaticRoutines.end())
      return It->second;
    RoutineId R = static_cast<RoutineId>(Routines.size());
    Routines.emplace_back();
    RoutineInfo &RI = Routines.back();
    RI.Name = N;
    RI.Owner = M;
    RI.NumParams = NumParams;
    RI.IsStatic = true;
    StaticRoutines.emplace(Key, R);
    Modules[M].Routines.push_back(R);
    return R;
  }
  auto It = ExternRoutines.find(N);
  if (It != ExternRoutines.end())
    return It->second;
  RoutineId R = static_cast<RoutineId>(Routines.size());
  Routines.emplace_back();
  RoutineInfo &RI = Routines.back();
  RI.Name = N;
  RI.Owner = M;
  RI.NumParams = NumParams;
  ExternRoutines.emplace(N, R);
  Modules[M].Routines.push_back(R);
  return R;
}

void Program::defineRoutine(RoutineId R, ModuleId M,
                            std::unique_ptr<RoutineBody> Body) {
  assert(R < Routines.size() && "bad routine id");
  assert(M < Modules.size() && "bad module id");
  RoutineInfo &RI = Routines[R];
  assert(!RI.IsDefined && "routine redefined");
  RI.IsDefined = true;
  // A planned clone was declared with its final arity. Skipping the
  // same-value store lets LTRANS tasks verifying its callers read the arity
  // while the clone is materialized on another worker.
  if (RI.NumParams != Body->NumParams)
    RI.NumParams = Body->NumParams;
  RI.SourceLines = Body->SourceLines;
  // The defining module owns the routine. An extern routine may have been
  // declared from a different module first; re-home it and make sure the
  // defining module's routine list mentions it.
  if (RI.Owner != M) {
    RI.Owner = M;
    bool Listed = false;
    for (RoutineId Existing : Modules[M].Routines)
      if (Existing == R)
        Listed = true;
    if (!Listed)
      Modules[M].Routines.push_back(R);
  }
  RI.Slot.Body = std::move(Body);
  RI.Slot.State = PoolState::Expanded;
  RI.Slot.Summary.reset();
  // A new body changes the program's call edges; any shared graph is stale.
  invalidateCallGraph();
}

//===----------------------------------------------------------------------===//
// Shared call-graph cache
//===----------------------------------------------------------------------===//

// Out-of-line: CallGraph is only forward-declared in the header.
Program::Program(MemoryTracker *Tracker) : Tracker(Tracker) {}
Program::~Program() = default;

const CallGraph *
Program::cachedCallGraph(const std::vector<RoutineId> &Set) const {
  if (!GraphValid || !CachedGraph || CachedGraphSet != Set)
    return nullptr;
  return CachedGraph.get();
}

void Program::setCachedCallGraph(std::unique_ptr<CallGraph> Graph,
                                 std::vector<RoutineId> Set) {
  CachedGraph = std::move(Graph);
  CachedGraphSet = std::move(Set);
  GraphValid = CachedGraph != nullptr;
}

void Program::invalidateCallGraph() {
  // Mark stale without destroying: a pass that obtained the shared graph
  // may still be iterating it while mutating bodies (the cloner's
  // define-and-redirect loop, the inliner's site loop). The object lives
  // until the next shared build replaces it.
  GraphValid = false;
}

RoutineId Program::findRoutine(std::string_view Name) const {
  // A name that was never interned cannot name a routine; the non-interning
  // probe keeps this const and turns the lookup into two map probes (cache
  // loads resolve thousands of references through here).
  StrId Id = Strings.lookup(Name);
  if (Id == InvalidStr)
    return InvalidId;
  auto It = ExternRoutines.find(Id);
  return It == ExternRoutines.end() ? InvalidId : It->second;
}

GlobalId Program::findGlobal(std::string_view Name) const {
  StrId Id = Strings.lookup(Name);
  if (Id == InvalidStr)
    return InvalidId;
  auto It = ExternGlobals.find(Id);
  return It == ExternGlobals.end() ? InvalidId : It->second;
}

RoutineId Program::findRoutineInModule(ModuleId M,
                                       std::string_view Name) const {
  StrId Id = Strings.lookup(Name);
  if (Id == InvalidStr)
    return InvalidId;
  for (RoutineId R : Modules[M].Routines)
    if (Routines[R].Name == Id)
      return R;
  auto It = ExternRoutines.find(Id);
  return It == ExternRoutines.end() ? InvalidId : It->second;
}

GlobalId Program::findGlobalInModule(ModuleId M, std::string_view Name) const {
  StrId Id = Strings.lookup(Name);
  if (Id == InvalidStr)
    return InvalidId;
  for (GlobalId G : Modules[M].Globals)
    if (Globals[G].Name == Id)
      return G;
  auto It = ExternGlobals.find(Id);
  return It == ExternGlobals.end() ? InvalidId : It->second;
}

std::string Program::displayName(RoutineId R) const {
  const RoutineInfo &RI = Routines[R];
  if (!RI.IsStatic)
    return Strings.text(RI.Name);
  return Strings.text(Modules[RI.Owner].Name) + ":" + Strings.text(RI.Name);
}

uint64_t Program::totalSourceLines() const {
  uint64_t Total = 0;
  for (const auto &M : Modules)
    Total += M.SourceLines;
  return Total;
}

void Program::chargeGlobalTables() {
  if (!Tracker)
    return;
  uint64_t Bytes = Strings.approxBytes();
  Bytes += Modules.size() * sizeof(ModuleInfo);
  Bytes += Globals.size() * sizeof(GlobalVar);
  Bytes += Routines.size() * sizeof(RoutineInfo);
  // Maps: rough per-entry overhead.
  Bytes += (ExternRoutines.size() + ExternGlobals.size() +
            StaticRoutines.size() + StaticGlobals.size()) *
           64;
  if (GlobalTableCharge)
    Tracker->release(MemCategory::HloGlobal, GlobalTableCharge);
  GlobalTableCharge = Bytes;
  Tracker->allocate(MemCategory::HloGlobal, GlobalTableCharge);
}
