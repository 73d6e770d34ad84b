//===- hlo/Cloner.h ---------------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Procedure cloning (listed among HLO's transformations in paper
/// Section 3). When a hot call site passes constant arguments to a callee
/// too large to inline, the cloner specializes a private copy of the callee
/// for those constants and redirects the site; constant propagation then
/// simplifies the clone. The WPA planner (hlo/Wpa.h) plans clones with these
/// parameters and LTRANS materializes them.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_HLO_CLONER_H
#define SCMO_HLO_CLONER_H

#include <cstdint>

namespace scmo {

/// Cloning heuristics.
struct CloneParams {
  /// Only sites at least this hot (dynamic count) are considered.
  uint64_t MinSiteCount = 1;
  /// Sites hotter than total/HotSiteDivisor qualify.
  uint64_t HotSiteDivisor = 1000;
  /// Callee size window: big enough that inlining was rejected, small enough
  /// to pay for a copy.
  uint32_t MinCalleeInstrs = 20;
  uint32_t MaxCalleeInstrs = 2000;
  /// Cap on clones created per invocation.
  uint32_t MaxClones = 64;
};

/// Result summary.
struct CloneResult {
  uint64_t ClonesCreated = 0;
  uint64_t SitesRedirected = 0;
};

} // namespace scmo

#endif // SCMO_HLO_CLONER_H
