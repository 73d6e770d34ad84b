//===- examples/naim_explorer.cpp -----------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A guided tour of the NAIM machinery (paper Section 4): watch routine
/// pools move through the Expanded -> Compact -> Offloaded state machine as
/// the optimizer works under different memory budgets, and see the
/// time/space trade-off of Figure 5 on one compilation.
///
//===----------------------------------------------------------------------===//

#include "driver/CompilerSession.h"
#include "frontend/Frontend.h"

#include <cstdio>

using namespace scmo;

namespace {

const char *stateName(PoolState S) {
  switch (S) {
  case PoolState::None:
    return "none";
  case PoolState::Expanded:
    return "expanded";
  case PoolState::Compact:
    return "compact";
  case PoolState::Offloaded:
    return "offloaded";
  case PoolState::Retired:
    return "retired";
  }
  return "?";
}

} // namespace

int main() {
  // Part 1: the state machine up close, on a tiny program.
  std::printf("== Part 1: one routine through the loader state machine ==\n");
  MemoryTracker Tracker;
  Program P(&Tracker);
  FrontendResult FR = compileSource(P, "demo", R"(
func work(n) {
  var s = 0;
  var i = 0;
  while (i < n) { s = s + i * i; i = i + 1; }
  return s;
}
func main() { print work(10); return 0; }
)");
  if (!FR.Ok) {
    std::fprintf(stderr, "%s\n", FR.Error.c_str());
    return 1;
  }
  NaimConfig Tight;
  Tight.Mode = NaimMode::Offload;
  Tight.ExpandedCacheBytes = 0;   // Evict on every release.
  Tight.CompactResidentBytes = 0; // Offload every compact pool.
  Loader L(P, Tight);
  RoutineId Work = P.findRoutine("work");
  auto show = [&](const char *When) {
    const RoutineSlot &S = P.routine(Work).Slot;
    std::printf("  %-28s state=%-9s expanded-IR=%6llu B  compact=%4zu B\n",
                When, stateName(S.State),
                (unsigned long long)(S.State == PoolState::Expanded
                                         ? S.Body->irBytes()
                                         : 0),
                S.CompactBytes.size());
  };
  show("after frontend");
  L.release(Work);
  show("after release (evicted)");
  RoutineBody &Body = L.acquire(Work);
  std::printf("  (acquire fetched %u instrs back, byte-identical)\n",
              Body.instrCount());
  show("after re-acquire");
  L.release(Work);
  show("after second release");
  std::printf("  loader stats: %llu compactions, %llu offloads, "
              "%llu fetches, %llu cache hits\n\n",
              (unsigned long long)L.stats().Compactions,
              (unsigned long long)L.stats().Offloads,
              (unsigned long long)L.stats().Fetches,
              (unsigned long long)L.stats().CacheHits);

  // Part 2: the Figure 5 trade-off on a mid-size compile.
  std::printf("== Part 2: memory/time trade-off on a gcc-like program ==\n");
  WorkloadParams Params = specLikeParams("gcc");
  GeneratedProgram GP = generateProgram(Params);
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  if (!Error.empty()) {
    std::fprintf(stderr, "training failed: %s\n", Error.c_str());
    return 1;
  }
  std::printf("  program: %llu lines\n", (unsigned long long)GP.TotalLines);
  std::printf("  %-18s %10s %10s %12s %10s\n", "NAIM level", "HLO peak",
              "HLO time", "compactions", "offloads");
  struct Config {
    const char *Name;
    NaimMode Mode;
  };
  for (const Config &C : {Config{"off", NaimMode::Off},
                          Config{"IR compaction", NaimMode::CompactIr},
                          Config{"+ST compaction", NaimMode::CompactIrSt},
                          Config{"+offloading", NaimMode::Offload}}) {
    CompileOptions Opts;
    Opts.Level = OptLevel::O4;
    Opts.Pbo = true;
    Opts.Naim.Mode = C.Mode;
    Opts.Naim.ExpandedCacheBytes = 2ull << 20;
    Opts.Naim.CompactResidentBytes = 1ull << 20;
    CompilerSession Session(Opts);
    Session.addGenerated(GP);
    Session.attachProfile(Db);
    BuildResult Build = Session.build();
    if (!Build.Ok) {
      std::fprintf(stderr, "%s: %s\n", C.Name, Build.Error.c_str());
      return 1;
    }
    std::printf("  %-18s %8.1f M %8.2f s %12llu %10llu\n", C.Name,
                double(Build.HloPeakBytes) / 1048576.0, Build.HloSeconds,
                (unsigned long long)Build.Loader.Compactions,
                (unsigned long long)Build.Loader.Offloads);
  }
  std::printf("\nEvery level produces byte-identical code (the Section 6.2\n"
              "determinism requirement) — only memory and time move.\n");
  return 0;
}
