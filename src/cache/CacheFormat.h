//===- cache/CacheFormat.h --------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte-level plumbing every content-addressed artifact shares,
/// extracted from ArtifactCache so the analysis summary cache can speak the
/// same dialect: little-endian Sink/Reader codecs, the SCA1 frame (magic,
/// payload size, XXH64 — the NAIM repository's framing discipline applied
/// to a whole file), and name-based symbol rebinding. Payload *layouts*
/// stay private to each cache — only the envelope and the resolution rules
/// are shared contracts.
///
/// Rebinding rule (paper Section 4's symbol-surface argument): a cached
/// artifact refers to routines and globals by (name, linkage, owner
/// module), never by numeric id — editing one module shifts every later
/// module's ids, and survival of that shift is exactly what makes warm
/// artifacts replayable. Statics resolve within their owner module, externs
/// program-wide; any failed resolution must degrade to a cache miss.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_CACHE_CACHEFORMAT_H
#define SCMO_CACHE_CACHEFORMAT_H

#include "ir/Program.h"
#include "support/Hash.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace scmo {
namespace cachefmt {

/// Artifact frame: magic, payload size, XXH64 of the payload.
constexpr uint32_t ArtifactMagic = 0x53434131; // "SCA1"
constexpr size_t FrameBytes = 16;

//===----------------------------------------------------------------------===//
// Byte-level encode / decode
//===----------------------------------------------------------------------===//

struct Sink {
  std::vector<uint8_t> Bytes;

  void u8(uint8_t V) { Bytes.push_back(V); }
  void u32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Bytes.push_back(static_cast<uint8_t>(V >> (I * 8)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Bytes.push_back(static_cast<uint8_t>(V >> (I * 8)));
  }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    Bytes.insert(Bytes.end(), S.begin(), S.end());
  }
};

/// Bounds-checked reader; any overrun latches Bad and every subsequent read
/// returns zero, so a truncated payload can't walk off the buffer.
struct Reader {
  const uint8_t *P;
  const uint8_t *End;
  bool Bad = false;

  Reader(const std::vector<uint8_t> &B, size_t Offset)
      : P(B.data() + Offset), End(B.data() + B.size()) {}

  bool need(size_t N) {
    if (Bad || static_cast<size_t>(End - P) < N) {
      Bad = true;
      return false;
    }
    return true;
  }
  uint8_t u8() {
    if (!need(1))
      return 0;
    return *P++;
  }
  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(*P++) << (I * 8);
    return V;
  }
  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(*P++) << (I * 8);
    return V;
  }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  std::string str() {
    uint32_t N = u32();
    if (!need(N))
      return "";
    std::string S(reinterpret_cast<const char *>(P), N);
    P += N;
    return S;
  }
};

/// Validates the SCA1 envelope of a whole artifact file: magic, declared
/// payload size, payload checksum. On success the payload occupies
/// [FrameBytes, Bytes.size()). Any failure means "treat as a miss".
inline bool checkArtifactFrame(const std::vector<uint8_t> &Bytes) {
  if (Bytes.size() < FrameBytes)
    return false;
  Reader F(Bytes, 0);
  if (F.u32() != ArtifactMagic)
    return false;
  uint32_t PayloadSize = F.u32();
  uint64_t Sum = F.u64();
  if (Bytes.size() != FrameBytes + PayloadSize)
    return false;
  return hashBytes(Bytes.data() + FrameBytes, PayloadSize) == Sum;
}

/// Emits the SCA1 envelope for \p Payload into \p File (which should be
/// empty). The caller appends the payload afterwards — possibly a
/// deliberately corrupted copy under fault injection, while the checksum
/// here is always of the clean bytes, mirroring silent disk corruption.
inline void frameArtifact(Sink &File, const std::vector<uint8_t> &Payload) {
  File.u32(ArtifactMagic);
  File.u32(static_cast<uint32_t>(Payload.size()));
  File.u64(hashBytes(Payload.data(), Payload.size()));
}

//===----------------------------------------------------------------------===//
// Name-based symbol rebinding
//===----------------------------------------------------------------------===//

inline ModuleId findModuleByName(const Program &P, const std::string &Name) {
  StrId Id = P.Strings.lookup(Name);
  if (Id == InvalidStr)
    return InvalidId;
  for (ModuleId M = 0; M != P.numModules(); ++M)
    if (P.module(M).Name == Id)
      return M;
  return InvalidId;
}

/// Resolves a (name, linkage, owner) routine reference against the current
/// program; InvalidId when no such routine exists any more.
inline RoutineId resolveRoutineByName(const Program &P,
                                      const std::string &Name, bool IsStatic,
                                      const std::string &Owner) {
  if (IsStatic) {
    ModuleId M = findModuleByName(P, Owner);
    if (M == InvalidId)
      return InvalidId;
    return P.findRoutineInModule(M, Name);
  }
  return P.findRoutine(Name);
}

inline GlobalId resolveGlobalByName(const Program &P, const std::string &Name,
                                    bool IsStatic, const std::string &Owner) {
  if (IsStatic) {
    ModuleId M = findModuleByName(P, Owner);
    if (M == InvalidId)
      return InvalidId;
    StrId NameId = P.Strings.lookup(Name);
    if (NameId == InvalidStr)
      return InvalidId;
    for (GlobalId G : P.module(M).Globals) {
      const GlobalVar &GV = P.global(G);
      if (GV.IsStatic && GV.Owner == M && GV.Name == NameId)
        return G;
    }
    return InvalidId;
  }
  return P.findGlobal(Name);
}

/// Key material for the calls a module makes by name: the declared arity
/// of every routine it references (its RefRoutine touches). An owned body's
/// content hash names a foreign callee only by name, yet the verifier checks
/// each call's argument count against the callee's declaration, so a
/// changed arity elsewhere must change this module's keys.
inline void calleeArities(Sink &S, const Program &P, ModuleId M) {
  S.str("|arities");
  for (const SymbolTouch &T : P.module(M).Touches)
    if (T.K == SymbolTouch::Kind::RefRoutine)
      S.u32(P.routine(T.Id).NumParams);
}

/// Hex key spelling shared by every artifact filename.
inline std::string hexKey(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

} // namespace cachefmt
} // namespace scmo

#endif // SCMO_CACHE_CACHEFORMAT_H
