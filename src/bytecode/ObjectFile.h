//===- bytecode/ObjectFile.h ------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// IL object files. In CMO mode "the frontends dump the IL directly to object
/// files that correspond to the source modules being compiled. When the
/// linker encounters these IL objects, it sends them to the optimizer and
/// code-generator" (paper Section 3). Keeping all persistent information in
/// object files — rather than a compilation database — is the paper's answer
/// to build-tool compatibility (Section 6.1): `make` sees ordinary objects.
///
/// An object file records the module's symbol operations in the order its
/// frontend performed them (ModuleInfo::Touches: declarations, first
/// references, definitions — all by *name*, so objects are
/// position-independent across link sessions), its debug records, and each
/// defined routine's body in the compact relocatable encoding with symbol
/// references remapped to object-local symbol indices. Reading an object
/// replays those operations through the same Program calls the frontend
/// made, so a module read from its object gets the RoutineIds, GlobalIds
/// and interned names the frontend would have given it in the same program
/// — the executable cannot tell the two apart.
///
/// Reading is two-phase. parseObject() decodes and validates everything
/// against a *const* Program — structure, body encodings, and every context
/// check the frontend would have made (an unknown variable, a call whose
/// arity or linkage no longer matches, a redefinition) — and predicts each
/// symbol's id. Only then does commitObject() install the module, which
/// cannot fail. A bad object therefore leaves the program untouched. The
/// prediction mirrors Program's lookup rules; commitObject compares every id
/// it gets against it and aborts on a mismatch rather than bind bodies to
/// the wrong symbols.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_BYTECODE_OBJECTFILE_H
#define SCMO_BYTECODE_OBJECTFILE_H

#include "ir/Program.h"
#include "support/FaultInjector.h"

#include <memory>
#include <string>
#include <vector>

namespace scmo {

/// Version of the object layout (and of the symbol-replay contract). Part
/// of every source-keyed cache key, so an old entry reads as a miss. Bump
/// it whenever the frontend's lowering or the object layout changes; the
/// golden in ObjectFile.FrontendObjectsArePinnedToTheFormatVersion
/// (tests/BytecodeTests.cpp) fails until the two are updated together.
constexpr uint32_t ObjectFormatVersion = 2;

/// Where each piece of an object image landed in a Program, recorded while
/// reading it. This is the driver's recovery map: when a spilled pool comes
/// back from the repository corrupt, the routine's body can be re-expanded
/// straight from the object image's body bytes (paper Section 6.1: object
/// files are the persistent truth), as long as the in-memory IL has not been
/// mutated since the objects were written.
struct ObjectIndex {
  /// Program id of each object symbol entry (a RoutineId or GlobalId;
  /// InvalidId for definition entries) — the SymRemap targets.
  std::vector<uint32_t> Symbols;
  /// Routines whose bodies this object defines, in body-section order.
  std::vector<RoutineId> DefinedHere;
  /// Byte range of each body's compact encoding within the object image,
  /// parallel to DefinedHere.
  struct BodyRange {
    size_t Offset = 0;
    size_t Len = 0;
  };
  std::vector<BodyRange> Bodies;
};

/// An object decoded, validated and resolved against one Program state,
/// ready to install. Valid only until that program next changes.
struct ObjectImage {
  struct Symbol {
    SymbolTouch::Kind K = SymbolTouch::Kind::DeclRoutine;
    std::string Name;      ///< Declarations and references.
    bool IsStatic = false; ///< Decl: linkage; Ref: the binding's linkage.
    uint32_t Arg = 0;      ///< As SymbolTouch::Arg; Define: the decl index.
    int64_t Init = 0;      ///< DeclGlobal only.
    uint32_t Id = InvalidId; ///< Predicted program id (Define: the routine).
  };
  std::string ModuleName;
  uint32_t SourceLines = 0;
  std::vector<Symbol> Symbols;
  std::vector<std::string> Records;
  /// Decoded bodies, one per Define entry in order, symbols already bound
  /// to the predicted ids.
  std::vector<std::unique_ptr<RoutineBody>> Bodies;
  std::vector<ObjectIndex::BodyRange> BodyRanges;
  /// The program shape the prediction was made against.
  size_t BaseModules = 0, BaseRoutines = 0, BaseGlobals = 0;
};

/// Serializes module \p M of \p P into an IL object image. \p M must come
/// from compileSource or an object read (it replays ModuleInfo::Touches),
/// and all of its bodies must be expanded and unmodified since then.
std::vector<uint8_t> writeObject(Program &P, ModuleId M);

/// Phase one of reading: decodes \p Size bytes at \p Data into \p Img and
/// checks them against \p P without modifying it. Returns false with
/// \p Error set if the object is malformed or would not link here.
bool parseObject(const Program &P, const uint8_t *Data, size_t Size,
                 ObjectImage &Img, std::string &Error);

/// Phase two: installs a parsed image as a new module of \p P (which must be
/// unchanged since parseObject) and returns its id. Fills \p Index when
/// non-null (body offsets are relative to the parsed bytes).
ModuleId commitObject(Program &P, ObjectImage &&Img,
                      ObjectIndex *Index = nullptr);

/// parseObject + commitObject. Returns the new module id, or InvalidId with
/// \p Error set and \p P unchanged.
ModuleId readObject(Program &P, const std::vector<uint8_t> &Bytes,
                    std::string &Error, ObjectIndex *Index = nullptr);

/// Re-expands body \p BodyIdx (an index into \p Index.DefinedHere) from the
/// raw object image \p Bytes. Returns null if the image or index is
/// inconsistent. Touches no loader state: safe to call from a loader
/// recovery handler.
std::unique_ptr<RoutineBody> expandBodyFromObject(
    const std::vector<uint8_t> &Bytes, const ObjectIndex &Index,
    size_t BodyIdx, MemoryTracker *Tracker);

/// Convenience: writes \p Bytes to \p Path, crash-safely. The bytes go to a
/// process-unique temporary in the same directory, are fsync'ed, and the
/// temporary is atomically renamed over \p Path — a reader (or a re-run
/// after SIGKILL) sees either the complete file or no file, never a torn
/// prefix. Returns false on I/O failure.
bool writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes);

/// Convenience: reads all of \p Path. Returns false on I/O failure.
bool readFile(const std::string &Path, std::vector<uint8_t> &Bytes);

/// writeFile with a fault-injection consultation at \p S. When \p FI is
/// non-null, one operation is charged at \p S and the returned action is
/// interpreted here so every durable-write path degrades identically:
/// fail/enospc return false (nothing durable changed — the tmp is removed);
/// eintr and short are transparent (the write loop resumes); corrupt flips
/// bytes at offset >= \p CorruptSkip in a copy before it hits the disk
/// (checksums computed by the caller saw the original — persistent silent
/// corruption); crash leaves a torn process-unique .tmp prefix on disk,
/// fsyncs it, and SIGKILLs the process (torture harness: the rename never
/// happens, so readers can never see the torn bytes under the real name).
bool writeFileWithFaults(const std::string &Path,
                         const std::vector<uint8_t> &Bytes, FaultInjector *FI,
                         FaultInjector::Site S, size_t CorruptSkip = 0);

/// readFile with a fault-injection consultation at \p S: fail returns false
/// (the caller treats it as a miss), eintr is transparent, flip corrupts the
/// returned bytes in memory only (the file is clean — a re-read recovers),
/// crash SIGKILLs mid-read.
bool readFileWithFaults(const std::string &Path, std::vector<uint8_t> &Bytes,
                        FaultInjector *FI, FaultInjector::Site S);

} // namespace scmo

#endif // SCMO_BYTECODE_OBJECTFILE_H
