//===- driver/Options.cpp -------------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "driver/Options.h"

#include "support/Hash.h"

#include <vector>

using namespace scmo;

namespace {

/// Append-only byte sink for fingerprint material. Every field goes through
/// a fixed-width encoding so two option structs differing in any covered
/// field always serialize differently.
struct Material {
  std::vector<uint8_t> Bytes;

  void u64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Bytes.push_back(static_cast<uint8_t>(V >> (I * 8)));
  }
  void u32(uint32_t V) { u64(V); }
  void b(bool V) { Bytes.push_back(V ? 1 : 0); }
  void f64(double V) {
    uint64_t Raw;
    static_assert(sizeof(Raw) == sizeof(V), "double must be 64-bit");
    __builtin_memcpy(&Raw, &V, sizeof(Raw));
    u64(Raw);
  }
};

} // namespace

uint64_t CompileOptions::fingerprint() const {
  Material M;
  // A version byte so a future field addition can't alias an old layout.
  M.Bytes.push_back(1);

  M.u64(static_cast<uint64_t>(Level));
  M.b(Pbo);
  M.b(Instrument);
  M.f64(SelectivityPercent);
  M.u64(FineHotThreshold);
  M.b(MultiLayered);
  M.u64(HloOpLimit);

  M.b(PboLayout);
  M.b(PboClustering);
  M.b(PboInlining);

  M.u32(Inline.MaxCalleeInstrs);
  M.u32(Inline.MaxCalleeInstrsHot);
  M.u64(Inline.HotSiteDivisor);
  M.u32(Inline.MaxCallerInstrs);
  M.u64(Inline.MaxProgramGrowth);
  M.u64(Inline.Rounds);
  M.b(Inline.UseProfile);
  M.b(Inline.IntraModuleOnly);

  M.u64(Clone.MinSiteCount);
  M.u64(Clone.HotSiteDivisor);
  M.u32(Clone.MinCalleeInstrs);
  M.u32(Clone.MaxCalleeInstrs);
  M.u32(Clone.MaxClones);

  M.b(EnableIpcp);
  M.b(EnableCloning);

  return hashBytes(M.Bytes.data(), M.Bytes.size());
}
