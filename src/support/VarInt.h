//===- support/VarInt.h -----------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LEB128-style variable-length integer encoding used by the compact
/// relocatable object representation (paper Section 4.2.1/4.2.2). Small ids
/// and offsets dominate compacted pools, so varints are the main source of
/// the ~2x size reduction over the expanded form.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_SUPPORT_VARINT_H
#define SCMO_SUPPORT_VARINT_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace scmo {

/// Appends \p Value to \p Out as an unsigned LEB128 varint.
inline void encodeVarUInt(std::vector<uint8_t> &Out, uint64_t Value) {
  do {
    uint8_t Byte = Value & 0x7f;
    Value >>= 7;
    if (Value)
      Byte |= 0x80;
    Out.push_back(Byte);
  } while (Value);
}

/// Appends \p Value to \p Out as a zig-zag encoded signed varint.
inline void encodeVarInt(std::vector<uint8_t> &Out, int64_t Value) {
  uint64_t Zig =
      (static_cast<uint64_t>(Value) << 1) ^ static_cast<uint64_t>(Value >> 63);
  encodeVarUInt(Out, Zig);
}

/// A cursor over an encoded byte stream. Decoding past the end or hitting a
/// malformed varint sets the error flag instead of invoking UB; callers check
/// hadError() after a decode batch (the object-file reader does).
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size) : Cur(Data), End(Data + Size) {}
  explicit ByteReader(const std::vector<uint8_t> &Bytes)
      : ByteReader(Bytes.data(), Bytes.size()) {}

  /// Decodes an unsigned varint; returns 0 and sets the error flag on
  /// malformed input. Only the canonical (shortest) encoding is accepted:
  /// an overlong varint or one wider than 64 bits is malformed, so every
  /// decoded value re-encodes to exactly the bytes it came from.
  uint64_t readVarUInt() {
    if (Cur != End && !(*Cur & 0x80))
      return *Cur++; // One byte: the common case for ids and counts.
    uint64_t Value = 0;
    for (unsigned Shift = 0; Cur != End; Shift += 7) {
      uint8_t Byte = *Cur++;
      if (Shift == 63 && Byte > 1)
        break; // Bits past 64.
      Value |= static_cast<uint64_t>(Byte & 0x7f) << Shift;
      if (!(Byte & 0x80)) {
        if (Byte == 0 && Shift != 0)
          break; // Overlong: a trailing all-zero group.
        return Value;
      }
    }
    Error = true;
    return 0;
  }

  /// Decodes an unsigned varint that must fit 32 bits (ids, counts).
  uint32_t readVarU32() {
    uint64_t Value = readVarUInt();
    if (Value > UINT32_MAX) {
      Error = true;
      return 0;
    }
    return static_cast<uint32_t>(Value);
  }

  /// Decodes a zig-zag encoded signed varint.
  int64_t readVarInt() {
    uint64_t Zig = readVarUInt();
    return static_cast<int64_t>(Zig >> 1) ^ -static_cast<int64_t>(Zig & 1);
  }

  /// Reads \p N raw bytes into \p Dest; returns false (and sets the error
  /// flag) if fewer than \p N remain.
  bool readBytes(uint8_t *Dest, size_t N) {
    if (static_cast<size_t>(End - Cur) < N) {
      Error = true;
      return false;
    }
    for (size_t I = 0; I != N; ++I)
      Dest[I] = Cur[I];
    Cur += N;
    return true;
  }

  /// Advances past \p N bytes; false (and the error flag) if fewer remain.
  bool skip(size_t N) {
    if (static_cast<size_t>(End - Cur) < N) {
      Error = true;
      return false;
    }
    Cur += N;
    return true;
  }

  bool atEnd() const { return Cur == End; }
  bool hadError() const { return Error; }
  size_t remaining() const { return static_cast<size_t>(End - Cur); }

private:
  const uint8_t *Cur;
  const uint8_t *End;
  bool Error = false;
};

} // namespace scmo

#endif // SCMO_SUPPORT_VARINT_H
