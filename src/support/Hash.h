//===- support/Hash.h -------------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fast 64-bit content hash (the XXH64 algorithm) used to checksum NAIM
/// repository frames. Requirements: byte-stable across platforms (the frame
/// format is a contract between store and fetch), strong enough that torn
/// writes and flipped bits are detected with ~2^-64 miss probability, and
/// cheap enough that checksumming stays in the noise next to the pwrite it
/// protects (measured <5% of offload+reload cost; see bench/fault_overhead).
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_SUPPORT_HASH_H
#define SCMO_SUPPORT_HASH_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <stddef.h>

namespace scmo {

namespace hash_detail {

constexpr uint64_t P1 = 0x9e3779b185ebca87ull;
constexpr uint64_t P2 = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t P3 = 0x165667b19e3779f9ull;
constexpr uint64_t P4 = 0x85ebca77c2b2ae63ull;
constexpr uint64_t P5 = 0x27d4eb2f165667c5ull;

inline uint64_t rotl(uint64_t X, unsigned R) {
  return (X << R) | (X >> (64 - R));
}

inline uint64_t read64(const uint8_t *P) {
  uint64_t V;
  std::memcpy(&V, P, 8);
  return V;
}

inline uint32_t read32(const uint8_t *P) {
  uint32_t V;
  std::memcpy(&V, P, 4);
  return V;
}

inline uint64_t round64(uint64_t Acc, uint64_t Lane) {
  Acc += Lane * P2;
  Acc = rotl(Acc, 31);
  return Acc * P1;
}

inline uint64_t mergeRound(uint64_t Acc, uint64_t Lane) {
  Acc ^= round64(0, Lane);
  return Acc * P1 + P4;
}

/// Folds the four stripe accumulators into one.
inline uint64_t mergeLanes(uint64_t V1, uint64_t V2, uint64_t V3,
                           uint64_t V4) {
  uint64_t H = rotl(V1, 1) + rotl(V2, 7) + rotl(V3, 12) + rotl(V4, 18);
  H = mergeRound(H, V1);
  H = mergeRound(H, V2);
  H = mergeRound(H, V3);
  return mergeRound(H, V4);
}

/// Mixes the final partial stripe [P, End) (under 32 bytes) into \p H and
/// avalanches.
inline uint64_t finish(uint64_t H, const uint8_t *P, const uint8_t *End) {
  while (P + 8 <= End) {
    H ^= round64(0, read64(P));
    H = rotl(H, 27) * P1 + P4;
    P += 8;
  }
  if (P + 4 <= End) {
    H ^= static_cast<uint64_t>(read32(P)) * P1;
    H = rotl(H, 23) * P2 + P3;
    P += 4;
  }
  while (P < End) {
    H ^= *P * P5;
    H = rotl(H, 11) * P1;
    ++P;
  }
  H ^= H >> 33;
  H *= P2;
  H ^= H >> 29;
  H *= P3;
  H ^= H >> 32;
  return H;
}

} // namespace hash_detail

/// XXH64 over \p Len bytes with the given seed.
inline uint64_t hashBytes(const uint8_t *Data, size_t Len, uint64_t Seed = 0) {
  using namespace hash_detail;
  const uint8_t *P = Data;
  const uint8_t *End = Data + Len;
  uint64_t H;
  if (Len >= 32) {
    uint64_t V1 = Seed + P1 + P2;
    uint64_t V2 = Seed + P2;
    uint64_t V3 = Seed;
    uint64_t V4 = Seed - P1;
    const uint8_t *Limit = End - 32;
    do {
      V1 = round64(V1, read64(P));
      V2 = round64(V2, read64(P + 8));
      V3 = round64(V3, read64(P + 16));
      V4 = round64(V4, read64(P + 24));
      P += 32;
    } while (P <= Limit);
    H = mergeLanes(V1, V2, V3, V4);
  } else {
    H = Seed + P5;
  }
  return finish(H + static_cast<uint64_t>(Len), P, End);
}

/// Incremental XXH64: update() over any split of a byte stream, then
/// digest(), returns exactly hashBytes() of the concatenated stream. Lets a
/// caller hash a serialization without materializing it.
class Xxh64Stream {
public:
  explicit Xxh64Stream(uint64_t Seed = 0)
      : Seed(Seed), V1(Seed + hash_detail::P1 + hash_detail::P2),
        V2(Seed + hash_detail::P2), V3(Seed), V4(Seed - hash_detail::P1) {}

  /// Appends \p Len bytes to the stream.
  void update(const uint8_t *Data, size_t Len) {
    Total += Len;
    if (Fill + Len < 32) {
      if (Len)
        std::memcpy(Buf + Fill, Data, Len);
      Fill += Len;
      return;
    }
    const uint8_t *P = Data;
    const uint8_t *End = Data + Len;
    if (Fill) {
      size_t Take = 32 - Fill;
      std::memcpy(Buf + Fill, P, Take);
      stripe(Buf);
      P += Take;
      Fill = 0;
    }
    for (; End - P >= 32; P += 32)
      stripe(P);
    Fill = static_cast<size_t>(End - P);
    if (Fill)
      std::memcpy(Buf, P, Fill);
  }

  /// Appends \p V as eight little-endian bytes.
  void u64(uint64_t V) {
    if constexpr (std::endian::native == std::endian::big)
      V = __builtin_bswap64(V);
    if (Fill > 24) {
      update(reinterpret_cast<const uint8_t *>(&V), 8);
      return;
    }
    // Fast path: the value fits in the stripe buffer.
    std::memcpy(Buf + Fill, &V, 8);
    Total += 8;
    Fill += 8;
    if (Fill == 32) {
      stripe(Buf);
      Fill = 0;
    }
  }

  /// The XXH64 of every byte appended so far.
  uint64_t digest() const {
    using namespace hash_detail;
    uint64_t H = Total >= 32 ? mergeLanes(V1, V2, V3, V4) : Seed + P5;
    return finish(H + Total, Buf, Buf + Fill);
  }

private:
  void stripe(const uint8_t *P) {
    using namespace hash_detail;
    V1 = round64(V1, read64(P));
    V2 = round64(V2, read64(P + 8));
    V3 = round64(V3, read64(P + 16));
    V4 = round64(V4, read64(P + 24));
  }

  uint64_t Seed, V1, V2, V3, V4;
  uint64_t Total = 0;
  uint8_t Buf[32];
  size_t Fill = 0;
};

} // namespace scmo

#endif // SCMO_SUPPORT_HASH_H
