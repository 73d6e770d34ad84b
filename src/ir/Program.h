//===- ir/Program.h ---------------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program-wide "global objects" of the paper's Figure 3: the program
/// symbol table (routines + global variables), the module table, and the
/// storage slots through which the NAIM loader manages each routine body's
/// expanded / compact / offloaded state. Global objects are always memory
/// resident; transitory objects (routine bodies, module symbol tables) move
/// between states through their handles.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_IR_PROGRAM_H
#define SCMO_IR_PROGRAM_H

#include "ir/Routine.h"
#include "support/StringInterner.h"

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace scmo {

class CallGraph;

/// Residency state of a transitory object pool (paper Section 4.2).
enum class PoolState : uint8_t {
  None,     ///< No body (external declaration only).
  Expanded, ///< Full pointer-linked in-memory form.
  Compact,  ///< Relocatable in-memory byte form (swizzled to PIDs).
  Offloaded, ///< Compact form resides in the disk repository.
  Retired    ///< Lowered and freed: no form of the body exists any more.
};

/// A global (or module-static) variable. Scalars have Size == 1; arrays have
/// Size > 1 and are zero-initialized except for the paper-irrelevant scalar
/// initializer.
struct GlobalVar {
  StrId Name = 0;
  ModuleId Owner = InvalidId;
  uint32_t Size = 1;
  int64_t Init = 0;       ///< Initial value (scalars; arrays zero-fill).
  bool IsStatic = false;  ///< Module-local linkage.
  /// Interprocedural summary: set when any routine stores to this variable.
  /// Computed by the HLO global-variable analysis; consumed by LoadG folding.
  bool EverStored = false;
  /// Set when the summary above is valid for the whole program (requires the
  /// CMO whole-program view; module-at-a-time compiles only know statics).
  bool SummaryValid = false;
};

/// Derived per-routine IL facts the interprocedural phases keep re-reading
/// bodies for: the call sites (for CallGraph builds), the stored globals
/// (for the mod/ref summaries), the instruction count (inliner size
/// heuristics) and the hottest block frequency (fine-grained selectivity).
/// The loader caches one per routine so repeated whole-set scans are served
/// without expanding parked pools; any mutable acquire invalidates it.
/// Because it is recomputed from body content alone, a cached summary is
/// always bit-equal to a fresh scan — consumers see identical graphs.
struct RoutineIlSummary {
  struct Site {
    BlockId Block = 0;
    uint32_t InstrIdx = 0;
    RoutineId Callee = InvalidId;
    uint64_t Count = 0; ///< BB.Freq when the body has a profile, else 0.
    uint32_t NumArgs = 0;
    bool HasDst = false; ///< The call assigns a result register.
    /// (argument index, immediate) for every Imm argument at the site, in
    /// ascending argument order. The WPA cloner and IPCP planner read
    /// constant-argument facts from here instead of expanding caller bodies.
    std::vector<std::pair<uint32_t, int64_t>> ConstArgs;
  };
  std::vector<Site> Sites;            ///< Call sites in block/instr order.
  std::vector<GlobalId> StoredGlobals; ///< Sorted, deduplicated.
  uint32_t InstrCount = 0;
  uint32_t RetCount = 0; ///< Ret instrs (inline size accounting: each turns
                         ///< into Mov+Jmp when the site assigns a result).
  uint64_t MaxBlockFreq = 0; ///< 0 unless the body has a profile.
  uint64_t EntryFreq = 0;    ///< Blocks[0].Freq, the inliner's scale anchor.
  bool HasProfile = false;
};

/// The "handle object" through which the loader tracks a routine body's
/// residency (paper Figure 3: downward pointers are allowed only in handles).
struct RoutineSlot {
  PoolState State = PoolState::None;
  std::unique_ptr<RoutineBody> Body;   ///< Valid when State == Expanded.
  TrackedBuffer CompactBytes;          ///< Valid when State == Compact.
  uint64_t RepoOffset = 0;             ///< Valid when State == Offloaded.
  uint64_t RepoSize = 0;
  /// Links in the loader's LRU list of parked pools (valid
  /// while UnloadPending; InvalidId at either end).
  RoutineId LruPrev = InvalidId;
  RoutineId LruNext = InvalidId;
  /// Outstanding acquire() count. Under the parallel backend several phases'
  /// workers may not share pools, but balanced acquire/release pairs from
  /// one worker must not be undone by a stray release elsewhere: a pool only
  /// becomes evictable when the count returns to zero. Guarded by the
  /// loader's mutex. A freshly installed body is "born pinned" with Pins ==
  /// 0; its first release moves it into the cache.
  uint32_t Pins = 0;
  bool UnloadPending = false;          ///< In the loader cache, evictable.

  /// A loader worker is encoding/decoding this pool outside the loader
  /// mutex; every other path must wait (acquire) or skip (eviction) the
  /// slot until the transition lands.
  bool InTransition = false;
  /// Hash of CompactBytes (valid when State == Compact): lets the offload
  /// stage detect that the pool's content already matches its last stored
  /// record and elide the store.
  uint64_t CompactHash = 0;
  /// The most recent repository record holding this pool, surviving across
  /// re-expansion (RepoOffset/RepoSize are reset on fetch). LastRepoSize ==
  /// 0 means no record. LastRepoHash is the hash of the record's compact
  /// bytes, for content-addressed store elision.
  uint64_t LastRepoOffset = 0;
  uint64_t LastRepoSize = 0;
  uint64_t LastRepoHash = 0;
  /// True while the expanded body is provably bit-equal to what
  /// decode(record at LastRepoOffset) produces: set when a
  /// body is expanded from its record, cleared by any mutable acquire.
  /// Lets eviction drop a clean pool straight back to its record with no
  /// re-encode and no store.
  bool CleanSinceRepo = false;
  /// Cached derived facts, served by Loader::routineSummary() without
  /// expanding the pool. Null = not computed (or invalidated by a mutable
  /// acquire / body replacement).
  std::unique_ptr<RoutineIlSummary> Summary;
  /// Set when a mutable acquire discarded a cached summary: the release
  /// recomputes it from the still-resident body (a cheap scan) so the next
  /// consumer is not forced to re-expand the pool.
  bool ResummarizeOnRelease = false;
};

/// Optimization tier under multi-layered selectivity (the paper's
/// Section 8 extension): Full = CMO + all cleanup; Basic = light
/// intraprocedural cleanup only; None = straight to quick codegen.
enum class OptTier : uint8_t { Full, Basic, None };

/// Program symbol table entry for a routine.
struct RoutineInfo {
  StrId Name = 0;
  ModuleId Owner = InvalidId;
  uint32_t NumParams = 0;
  bool IsStatic = false;    ///< Module-local linkage.
  bool IsDefined = false;   ///< Has a body somewhere in the program.
  uint32_t SourceLines = 0; ///< LoC attributed to this routine.
  uint64_t Checksum = 0;    ///< Structural checksum for profile correlation.
  /// Selectivity decision: false means this routine is cold and is left
  /// unloaded through HLO (fine-grained selectivity, paper Section 5).
  bool Selected = true;
  /// Cleared when every call site was inlined away and the routine is not
  /// externally visible: the body is not lowered or linked.
  bool Emit = true;
  /// Multi-layered selectivity tier (Section 8); Full unless the layered
  /// mode is enabled and the routine is cold.
  OptTier Tier = OptTier::Full;
  RoutineSlot Slot;
};

/// Module symbol table (a transitory object, paper Figure 3). Holds the
/// per-module bulk symbol data — in this reproduction, the debug strings the
/// frontend records (routine-local variable names and line maps). It is never
/// consulted by optimization, only by diagnostics, making it the ideal
/// candidate for the second compaction threshold (paper Section 4.3).
class ModuleSymtab {
public:
  explicit ModuleSymtab(MemoryTracker *Tracker = nullptr) : Tracker(Tracker) {}

  ModuleSymtab(ModuleSymtab &&Other) noexcept { *this = std::move(Other); }

  ModuleSymtab &operator=(ModuleSymtab &&Other) noexcept {
    if (this == &Other)
      return *this;
    releaseCharge();
    Tracker = Other.Tracker;
    State = Other.State;
    Records = std::move(Other.Records);
    CompactForm = std::move(Other.CompactForm);
    Charged = Other.Charged;
    Other.Charged = 0;
    Other.Records.clear();
    Other.State = PoolState::Expanded;
    return *this;
  }

  ~ModuleSymtab() { releaseCharge(); }

  /// Appends a debug record (expanded form only).
  void addRecord(std::string Text);

  /// Number of debug records (expands on demand is the loader's job; this
  /// asserts the table is expanded).
  const std::vector<std::string> &records() const {
    assert(State == PoolState::Expanded && "symtab not expanded");
    return Records;
  }

  PoolState state() const { return State; }

  /// Serializes records into the compact form and drops the expanded form.
  void compact(MemoryTracker *SessionTracker);

  /// Re-expands from the compact form.
  void expand();

  /// Bytes of expanded symbol data currently charged.
  uint64_t expandedBytes() const { return Charged; }

  /// Bytes of the compact form (0 when expanded).
  uint64_t compactSize() const { return CompactForm.size(); }

private:
  void releaseCharge();

  MemoryTracker *Tracker = nullptr;
  PoolState State = PoolState::Expanded;
  std::vector<std::string> Records;
  TrackedBuffer CompactForm;
  uint64_t Charged = 0;
};

/// One program symbol-table operation a module's frontend performed, in the
/// order it performed it. Replaying a module's touches through the same
/// Program calls in the same order reproduces the frontend's RoutineIds,
/// GlobalIds, interned names and module lists exactly — which is what lets
/// an IL object stand in for its source without perturbing the executable.
struct SymbolTouch {
  enum class Kind : uint8_t {
    DeclRoutine, ///< `func` header: declareRoutine + arity override.
    DeclGlobal,  ///< `global`/`static` variable: addGlobal.
    RefRoutine,  ///< First call of a name: lookup, else implicit extern.
    RefGlobal,   ///< First use of a variable name: lookup only.
    Define,      ///< A body installed for an earlier DeclRoutine.
  };
  Kind K = Kind::DeclRoutine;
  uint32_t Id = InvalidId; ///< The RoutineId or GlobalId touched.
  /// DeclRoutine: parameter count. DeclGlobal: size. RefRoutine: the call's
  /// argument count. Otherwise 0.
  uint32_t Arg = 0;
  int64_t Init = 0; ///< DeclGlobal: the initializer.
};

/// Program symbol table entry for a module.
struct ModuleInfo {
  StrId Name = 0;
  std::vector<RoutineId> Routines;
  std::vector<GlobalId> Globals;
  /// The frontend's symbol operations for this module, first touch per
  /// symbol; filled by compileSource and by reading an IL object. Object
  /// files record this sequence (see bytecode/ObjectFile.h), so a module
  /// built by hand through the Program API has none and cannot be written.
  std::vector<SymbolTouch> Touches;
  uint32_t SourceLines = 0;
  ModuleSymtab Symtab;
  /// Coarse-grained selectivity decision: true if this module is in the CMO
  /// set (compiled cross-module), false if compiled module-at-a-time.
  bool InCmoSet = true;
};

/// The whole program under compilation: global objects plus handles to all
/// transitory state.
class Program {
public:
  explicit Program(MemoryTracker *Tracker = nullptr);
  ~Program();

  Program(const Program &) = delete;
  Program &operator=(const Program &) = delete;

  /// Creates a new module named \p Name.
  ModuleId addModule(std::string_view Name);

  /// Creates a global variable owned by \p M. Non-static names must be
  /// program-unique; a redefinition returns the existing id (merging an
  /// extern declaration with its definition).
  GlobalId addGlobal(ModuleId M, std::string_view Name, uint32_t Size,
                     int64_t Init, bool IsStatic);

  /// Declares (or merges with) a routine named \p Name. For non-static
  /// routines, a later definition fills in a previous declaration.
  RoutineId declareRoutine(ModuleId M, std::string_view Name,
                           uint32_t NumParams, bool IsStatic);

  /// Marks \p R defined in module \p M and installs \p Body (expanded
  /// state). Re-homes a routine that was first declared from another module
  /// (an extern reference seen before the definition).
  void defineRoutine(RoutineId R, ModuleId M,
                     std::unique_ptr<RoutineBody> Body);

  /// Looks up a non-static routine by name; InvalidId if absent.
  RoutineId findRoutine(std::string_view Name) const;

  /// Looks up a non-static global by name; InvalidId if absent.
  GlobalId findGlobal(std::string_view Name) const;

  /// Looks up the routine named \p Name in module \p M (statics included),
  /// falling back to the program-wide table; InvalidId if absent.
  RoutineId findRoutineInModule(ModuleId M, std::string_view Name) const;

  /// Looks up the variable named \p Name as seen from module \p M: the
  /// globals \p M created (statics included) shadow the program-wide
  /// externs; InvalidId if absent.
  GlobalId findGlobalInModule(ModuleId M, std::string_view Name) const;

  const RoutineInfo &routine(RoutineId R) const { return Routines[R]; }
  RoutineInfo &routine(RoutineId R) { return Routines[R]; }

  const GlobalVar &global(GlobalId G) const { return Globals[G]; }
  GlobalVar &global(GlobalId G) { return Globals[G]; }

  const ModuleInfo &module(ModuleId M) const { return Modules[M]; }
  ModuleInfo &module(ModuleId M) { return Modules[M]; }

  size_t numModules() const { return Modules.size(); }
  size_t numRoutines() const { return Routines.size(); }
  size_t numGlobals() const { return Globals.size(); }

  /// Convenience: the expanded body of \p R. Asserts it is expanded — pass
  /// code must go through the NAIM loader to guarantee that.
  RoutineBody &body(RoutineId R) {
    RoutineSlot &S = Routines[R].Slot;
    assert(S.State == PoolState::Expanded && S.Body && "body not expanded");
    return *S.Body;
  }

  /// The routine's demangled display name ("module:name" for statics).
  std::string displayName(RoutineId R) const;

  /// Total source lines across all modules.
  uint64_t totalSourceLines() const;

  /// Memory tracker for this compilation session (may be null in tests).
  MemoryTracker *tracker() const { return Tracker; }

  /// Name interner for all program symbols.
  StringInterner Strings;

  /// Charges the always-resident global tables to the tracker (call after
  /// the program is fully built; idempotent refresh).
  void chargeGlobalTables();

  /// \name Shared call graph
  /// One CallGraph instance per build, shared by every consumer that asks
  /// for the same routine set (selectivity, the interprocedural passes, the
  /// driver's summary/cache stages) instead of each recomputing it from
  /// scratch. The cache carries a validity flag: any pass that mutates a
  /// body (or defines a routine) calls invalidateCallGraph(), and the next
  /// consumer rebuilds. See CallGraph::shared() for the build-or-reuse
  /// entry point.
  /// @{

  /// The cached graph, or null when none is valid for \p RoutineSet (the
  /// cache holds exactly one graph, keyed by the set it was built over).
  const CallGraph *cachedCallGraph(const std::vector<RoutineId> &Set) const;

  /// Installs \p Graph as the shared instance for \p Set.
  void setCachedCallGraph(std::unique_ptr<CallGraph> Graph,
                          std::vector<RoutineId> Set);

  /// Drops the shared instance. Called by every body-mutating pass.
  /// Thread-safe: LTRANS workers mutating disjoint bodies in parallel may
  /// all call it concurrently (the flag is atomic and only ever cleared
  /// here; install/lookup stay confined to serial phases).
  void invalidateCallGraph();

  /// True while a shared instance is installed (diagnostics and tests).
  bool callGraphValid() const { return GraphValid; }

  /// Builds (or reuses) the shared graph counter — how often consumers hit
  /// the cache this session (diagnostics and tests).
  uint64_t callGraphReuses() const { return GraphReuses; }
  void noteCallGraphReuse() { ++GraphReuses; }
  /// @}

private:
  MemoryTracker *Tracker = nullptr;
  std::vector<ModuleInfo> Modules;
  std::vector<GlobalVar> Globals;
  std::vector<RoutineInfo> Routines;
  // Name resolution maps. Statics are keyed per-module; externs program-wide.
  std::map<StrId, RoutineId> ExternRoutines;
  std::map<StrId, GlobalId> ExternGlobals;
  std::map<std::pair<ModuleId, StrId>, RoutineId> StaticRoutines;
  std::map<std::pair<ModuleId, StrId>, GlobalId> StaticGlobals;
  uint64_t GlobalTableCharge = 0;

  // Shared call-graph cache (see the accessor group above).
  std::unique_ptr<CallGraph> CachedGraph;
  std::vector<RoutineId> CachedGraphSet;
  std::atomic<bool> GraphValid{false};
  uint64_t GraphReuses = 0;
};

} // namespace scmo

#endif // SCMO_IR_PROGRAM_H
