//===- bench/ablation_pbo.cpp ---------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation of the profile consumers the paper lists for PBO (Section 2):
/// "optimizing the layout of basic blocks, improving profitability
/// estimates, improving the cost model for register allocation", the
/// linker's clustering of frequently used routines, and the CMO+PBO inline
/// heuristics. Each row disables ONE consumer from the full CMO+PBO
/// configuration; the delta is that consumer's contribution.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace scmo;
using namespace scmo::bench;

int main() {
  double Scale = scaleFactor();
  uint64_t Lines = static_cast<uint64_t>(60000 * Scale);
  GeneratedProgram GP = generateProgram(mcadLikeParams(Lines, 1));
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  if (!Error.empty()) {
    std::fprintf(stderr, "training failed: %s\n", Error.c_str());
    return 1;
  }

  std::printf("PBO consumer ablation (Mcad1-like, %llu lines, O4+P)\n\n",
              (unsigned long long)GP.TotalLines);
  std::printf("%-26s %14s %10s\n", "configuration", "run Mcycles",
              "vs full");

  struct Config {
    const char *Name;
    void (*Apply)(CompileOptions &);
  };
  const Config Configs[] = {
      {"full CMO+PBO", [](CompileOptions &) {}},
      {"- block layout",
       [](CompileOptions &O) { O.PboLayout = false; }},
      {"- routine clustering",
       [](CompileOptions &O) { O.PboClustering = false; }},
      {"- inline heuristics",
       [](CompileOptions &O) { O.PboInlining = false; }},
      {"- cloning", [](CompileOptions &O) { O.EnableCloning = false; }},
      {"- ipcp", [](CompileOptions &O) { O.EnableIpcp = false; }},
      {"O2+P baseline (no CMO)",
       [](CompileOptions &O) { O.Level = OptLevel::O2; }},
  };
  double FullCycles = 0;
  for (const Config &C : Configs) {
    CompileOptions Opts = optionsFor(OptLevel::O4, true);
    C.Apply(Opts);
    Measured M = measure(GP, Opts, &Db);
    if (!M.Ok) {
      std::fprintf(stderr, "%s failed: %s\n", C.Name, M.Error.c_str());
      return 1;
    }
    if (FullCycles == 0)
      FullCycles = double(M.Cycles);
    std::printf("%-26s %14.2f %9.3fx\n", C.Name, double(M.Cycles) / 1e6,
                double(M.Cycles) / FullCycles);
  }
  std::printf("\nRows above 1.000x show the disabled consumer was earning\n"
              "its keep.\n");
  return 0;
}
