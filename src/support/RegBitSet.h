//===- support/RegBitSet.h --------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense bitset over virtual register ids, used by the analysis engine's
/// dataflow framework and its passes (DCE and LLO share the flat-buffer
/// solver in ir/Liveness instead). Dataflow bitsets are
/// classic *derived* data in the paper's taxonomy: recomputed from scratch
/// by each phase, never persisted.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_SUPPORT_REGBITSET_H
#define SCMO_SUPPORT_REGBITSET_H

#include "support/ArenaAllocator.h"

#include <cstdint>
#include <vector>

namespace scmo {

/// Fixed-universe bitset with the operations dataflow needs.
///
/// Words may live on an Arena (pass one to the constructor) so a solver's
/// whole working set frees wholesale; copies inherit the source's arena,
/// and copy-assignment between same-universe sets reuses the destination
/// buffer without touching any allocator. Default construction stays
/// heap-backed, so existing users are unchanged.
class RegBitSet {
public:
  explicit RegBitSet(uint32_t Universe, Arena *A = nullptr)
      : N(Universe),
        Words((Universe + 63) / 64, 0, ArenaAllocator<uint64_t>(A)) {}

  uint32_t universe() const { return N; }

  void set(uint32_t R) { Words[R >> 6] |= 1ull << (R & 63); }
  void reset(uint32_t R) { Words[R >> 6] &= ~(1ull << (R & 63)); }
  bool test(uint32_t R) const { return Words[R >> 6] & (1ull << (R & 63)); }

  /// Sets every bit in [0, universe) — the top element of a must-analysis
  /// (intersection-meet) lattice.
  void setAll() {
    for (uint64_t &W : Words)
      W = ~0ull;
    if (N & 63)
      Words.back() &= (1ull << (N & 63)) - 1;
  }

  bool operator==(const RegBitSet &Other) const {
    return Words == Other.Words;
  }

  /// this &= Other; returns true if any bit changed.
  bool intersect(const RegBitSet &Other) {
    bool Changed = false;
    for (size_t W = 0; W != Words.size(); ++W) {
      uint64_t New = Words[W] & Other.Words[W];
      Changed |= New != Words[W];
      Words[W] = New;
    }
    return Changed;
  }

  /// this |= Other; returns true if any bit changed.
  bool merge(const RegBitSet &Other) {
    bool Changed = false;
    for (size_t W = 0; W != Words.size(); ++W) {
      uint64_t New = Words[W] | Other.Words[W];
      Changed |= New != Words[W];
      Words[W] = New;
    }
    return Changed;
  }

  /// this |= (Other & ~Mask).
  void mergeMinus(const RegBitSet &Other, const RegBitSet &Mask) {
    for (size_t W = 0; W != Words.size(); ++W)
      Words[W] |= Other.Words[W] & ~Mask.Words[W];
  }

  /// Calls \p F for every set bit, in increasing order.
  template <typename Fn> void forEach(Fn F) const {
    for (size_t W = 0; W != Words.size(); ++W) {
      uint64_t Bits = Words[W];
      while (Bits) {
        unsigned Bit = __builtin_ctzll(Bits);
        F(static_cast<uint32_t>(W * 64 + Bit));
        Bits &= Bits - 1;
      }
    }
  }

  /// Bytes of backing storage (for memory accounting).
  uint64_t bytes() const { return Words.size() * 8; }

private:
  uint32_t N = 0;
  ArenaVector<uint64_t> Words;
};

} // namespace scmo

#endif // SCMO_SUPPORT_REGBITSET_H
