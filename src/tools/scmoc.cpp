//===- tools/scmoc.cpp ----------------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// scmoc — the command-line compiler driver, with an option surface modeled
/// on the paper's HP-UX compilers:
///
///   scmoc [options] file1.mc file2.mc ...
///     +O1 | +O2 | +O4        optimization level (default +O2)
///     +P                     profile-based optimization (needs --profile)
///     +I                     instrument; --run writes the profile database
///     --profile <file>       profile database to use (+P) or write (+I)
///     --select <percent>     coarse selectivity percentage (with +O4 +P)
///     --multi-layered        Section 8 tiered optimization
///     --machine-mem <MiB>    NAIM thresholds for this much memory
///     --jobs <N>             backend worker threads (0 = every CPU in the
///                            affinity mask, 1 = serial; max 1024); output
///                            is identical at any width
///     --run                  execute the result on the VM
///     --emit-il <routine>    print a routine's optimized IL
///     --disasm <routine>     print a routine's machine code
///     --stats                print optimizer statistics and memory peaks,
///                            including the per-stage/per-type allocation
///                            profile with arena-waste accounting
///     --stats-format <f>     stats format: text (default) or json (one
///                            object, stable key order)
///     --dump-dot <prefix>    write <prefix>.callgraph.dot (whole-program
///                            call graph) and <prefix>.cfg.dot (every
///                            linked routine's CFG) in graphviz format
///     --analyze              run the static-analysis engine instead of a
///                            build; prints diagnostics, exits 1 on errors
///     --analyze-filter <c,..> keep only these check codes (names like
///                            scmo-dead-store)
///     --analyze-format <f>   report format: text (default) or json (one
///                            object per diagnostic, stable key order)
///     --gen-mcad <lines>     analyze/compile a generated MCAD-like program
///                            of roughly this many lines (no input files
///                            needed)
///     --plant-defects        seed the generated program with one instance
///                            of every lint defect (with --gen-mcad)
///     --write-objects <dir>  round-trip all IL through object files in
///                            <dir> before linking (the production flow)
///     --incremental          reuse cached HLO+LLO artifacts across builds;
///                            unaffected modules skip optimization and
///                            lowering entirely (needs --cache-dir). With
///                            --analyze: reuse per-module analysis
///                            summaries, rescanning only edited modules
///     --cache-dir <dir>      artifact cache directory for --incremental
///     --fault-inject <spec>  deterministically inject faults into the NAIM
///                            spill path (see support/FaultInjector.h for
///                            the grammar, e.g. store:fail-nth=3 or
///                            seed=7,read:flip-rate=0.1); the environment
///                            variable SCMO_FAULT_INJECT does the same
///
/// Example session (the paper's deployment flow):
///   scmoc +O2 +I --profile app.prof --run app.mc lib.mc   # train
///   scmoc +O4 +P --profile app.prof --select 5 --run app.mc lib.mc
///   scmoc --analyze app.mc lib.mc                         # lint
///
//===----------------------------------------------------------------------===//

#include "cache/CacheDir.h"
#include "driver/CompilerSession.h"
#include "driver/StatsRender.h"
#include "ir/DotEmitter.h"
#include "ir/Printer.h"
#include "llo/MachinePrinter.h"
#include "profile/ProfileDb.h"
#include "support/FaultInjector.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

using namespace scmo;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [+O1|+O2|+O4] [+P] [+I] [--profile F] "
               "[--select PCT] [--multi-layered] [--machine-mem MIB] "
               "[--jobs N] [--run] [--emit-il R] "
               "[--disasm R] [--stats] [--stats-format text|json] "
               "[--dump-dot PREFIX] "
               "[--analyze] [--analyze-filter CODES] "
               "[--analyze-format text|json] [--gen-mcad LINES] "
               "[--plant-defects] [--write-objects DIR] "
               "[--incremental] [--cache-dir DIR] "
               "[--cache-gc] [--cache-max-bytes N] "
               "[--fault-inject SPEC] files...\n",
               Argv0);
  return 2;
}

/// Unified option-error reporting: every malformed invocation names the
/// offending flag, says what is wrong with it, and exits 2 — the same
/// contract for a missing value, a malformed number, an out-of-range
/// percentage, or an inconsistent flag pair.
[[noreturn]] void optionError(const std::string &Flag,
                              const std::string &Why) {
  std::fprintf(stderr, "scmoc: invalid option '%s': %s\n", Flag.c_str(),
               Why.c_str());
  std::exit(2);
}

/// Strict integer parse for flag values: the whole token must be a
/// non-negative decimal number in [\p Min, \p Max].
uint64_t parseCount(const char *Flag, const std::string &Text, uint64_t Min,
                    uint64_t Max = std::numeric_limits<uint64_t>::max()) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Text.c_str(), &End, 10);
  if (Text.empty() || *End != '\0' || Text[0] == '-' || errno == ERANGE)
    optionError(Flag, "expected a number, got '" + Text + "'");
  if (V < Min)
    optionError(Flag, "must be at least " + std::to_string(Min));
  if (V > Max)
    optionError(Flag, "must be at most " + std::to_string(Max) + " (got " +
                          std::to_string(V) + ")");
  return V;
}

/// Strict percentage parse: a full-token decimal in [0, 100]. NaN fails
/// the range check too (every comparison with it is false).
double parsePercent(const char *Flag, const std::string &Text) {
  char *End = nullptr;
  double V = std::strtod(Text.c_str(), &End);
  if (Text.empty() || *End != '\0')
    optionError(Flag, "expected a number, got '" + Text + "'");
  if (!(V >= 0.0 && V <= 100.0))
    optionError(Flag, "must be between 0 and 100");
  return V;
}

bool readSource(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// Every stable check-code name, comma-separated — the vocabulary an
/// --analyze-filter typo is corrected against.
std::string allCheckCodeNames() {
  std::string Out;
  for (unsigned C = 0; C != static_cast<unsigned>(CheckCode::NumCheckCodes);
       ++C) {
    if (C)
      Out += ", ";
    Out += checkCodeName(static_cast<CheckCode>(C));
  }
  return Out;
}

std::string moduleNameOf(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Base = Slash == std::string::npos ? Path
                                                : Path.substr(Slash + 1);
  size_t Dot = Base.find_last_of('.');
  return Dot == std::string::npos ? Base : Base.substr(0, Dot);
}

} // namespace

int main(int argc, char **argv) {
  CompileOptions Opts;
  std::vector<std::string> Files;
  std::string ProfilePath;
  std::string EmitIlRoutine, DisasmRoutine;
  bool Run = false, Stats = false, StatsJson = false;
  std::string DumpDotPrefix;
  bool Analyze = false, AnalyzeJson = false, PlantDefects = false;
  uint64_t GenMcadLines = 0;
  bool CacheGc = false;
  uint64_t CacheMaxBytes = cachedir::NoBudget;
  std::vector<CheckCode> AnalyzeFilter;

  for (int A = 1; A < argc; ++A) {
    std::string Arg = argv[A];
    // Both "--flag value" and "--flag=value" spellings are accepted.
    std::string Inline;
    bool HasInline = false, TookValue = false;
    if (Arg.size() > 2 && Arg[0] == '-' && Arg[1] == '-') {
      size_t Eq = Arg.find('=');
      if (Eq != std::string::npos) {
        Inline = Arg.substr(Eq + 1);
        Arg.resize(Eq);
        HasInline = true;
      }
    }
    auto takeValue = [&](const char *Flag) -> std::string {
      TookValue = true;
      if (HasInline)
        return Inline;
      if (A + 1 >= argc)
        optionError(Flag, "missing value");
      return argv[++A];
    };
    if (Arg == "+O1")
      Opts.Level = OptLevel::O1;
    else if (Arg == "+O2")
      Opts.Level = OptLevel::O2;
    else if (Arg == "+O4")
      Opts.Level = OptLevel::O4;
    else if (Arg == "+P")
      Opts.Pbo = true;
    else if (Arg == "+I")
      Opts.Instrument = true;
    else if (Arg == "--profile")
      ProfilePath = takeValue("--profile");
    else if (Arg == "--select")
      Opts.SelectivityPercent =
          parsePercent("--select", takeValue("--select"));
    else if (Arg == "--multi-layered")
      Opts.MultiLayered = true;
    else if (Arg == "--machine-mem")
      // The cap keeps the MiB-to-bytes shift from wrapping.
      Opts.Naim = NaimConfig::autoFor(
          parseCount("--machine-mem", takeValue("--machine-mem"), 1,
                     std::numeric_limits<uint64_t>::max() >> 20)
          << 20);
    else if (Arg == "--jobs")
      Opts.Jobs = static_cast<unsigned>(
          parseCount("--jobs", takeValue("--jobs"), 0, 1024));
    else if (Arg == "--run")
      Run = true;
    else if (Arg == "--emit-il")
      EmitIlRoutine = takeValue("--emit-il");
    else if (Arg == "--disasm")
      DisasmRoutine = takeValue("--disasm");
    else if (Arg == "--stats")
      Stats = true;
    else if (Arg == "--stats-format") {
      std::string Format = takeValue("--stats-format");
      if (Format == "json")
        StatsJson = true;
      else if (Format == "text")
        StatsJson = false;
      else
        optionError("--stats-format",
                    "expected 'text' or 'json', got '" + Format + "'");
    } else if (Arg == "--dump-dot")
      DumpDotPrefix = takeValue("--dump-dot");
    else if (Arg == "--analyze")
      Analyze = true;
    else if (Arg == "--analyze-filter") {
      std::string Codes = takeValue("--analyze-filter");
      size_t Start = 0;
      while (Start <= Codes.size()) {
        size_t Comma = Codes.find(',', Start);
        std::string Name = Codes.substr(
            Start, Comma == std::string::npos ? Comma : Comma - Start);
        if (!Name.empty()) {
          CheckCode Code;
          if (!parseCheckCode(Name, Code))
            optionError("--analyze-filter",
                        "unknown check code '" + Name +
                            "'; known codes: " + allCheckCodeNames());
          AnalyzeFilter.push_back(Code);
        }
        if (Comma == std::string::npos)
          break;
        Start = Comma + 1;
      }
    } else if (Arg == "--analyze-format") {
      std::string Format = takeValue("--analyze-format");
      if (Format == "json")
        AnalyzeJson = true;
      else if (Format == "text")
        AnalyzeJson = false;
      else
        optionError("--analyze-format",
                    "expected 'text' or 'json', got '" + Format + "'");
    } else if (Arg == "--gen-mcad")
      GenMcadLines = parseCount("--gen-mcad", takeValue("--gen-mcad"), 1);
    else if (Arg == "--plant-defects")
      PlantDefects = true;
    else if (Arg == "--write-objects") {
      Opts.WriteObjects = true;
      Opts.ObjectDir = takeValue("--write-objects");
    } else if (Arg == "--incremental")
      Opts.Incremental = true;
    else if (Arg == "--cache-dir")
      Opts.CacheDir = takeValue("--cache-dir");
    else if (Arg == "--cache-gc")
      CacheGc = true;
    else if (Arg == "--cache-max-bytes")
      CacheMaxBytes =
          parseCount("--cache-max-bytes", takeValue("--cache-max-bytes"), 0);
    else if (Arg == "--fault-inject") {
      Opts.FaultInject = takeValue("--fault-inject");
      // Validate at parse time through the unified flag diagnostics: a
      // typo'd spec exits 2 with the vocabulary, instead of surfacing as a
      // build failure later.
      std::string FiErr;
      if (!FaultInjector::fromSpec(Opts.FaultInject, FiErr) &&
          !Opts.FaultInject.empty())
        optionError("--fault-inject",
                    FiErr + "\n  sites:   " + FaultInjector::validSites() +
                        "\n  actions: " + FaultInjector::validActions() +
                        " (with -nth=N or -rate=F)");
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "scmoc: unknown flag '%s'\n", Arg.c_str());
      return usage(argv[0]);
    } else
      Files.push_back(Arg);
    if (HasInline && !TookValue)
      optionError(Arg, "does not take a value");
  }
  if (Opts.Incremental && Opts.CacheDir.empty())
    optionError("--incremental", "needs --cache-dir <dir>");
  if (CacheMaxBytes != cachedir::NoBudget && !CacheGc)
    optionError("--cache-max-bytes", "needs --cache-gc");
  if (CacheGc) {
    // Cache maintenance mode: sweep stale locks / tmp litter and (with a
    // budget) evict least-recently-used entries, then exit. Safe to run
    // while builders share the directory — eviction is unlink-only.
    if (Opts.CacheDir.empty())
      optionError("--cache-gc", "needs --cache-dir <dir>");
    std::string FiErr;
    std::shared_ptr<FaultInjector> FI =
        FaultInjector::fromSpec(Opts.FaultInject, FiErr);
    if (!FI)
      FI = FaultInjector::fromEnv();
    cachedir::GcResult G =
        cachedir::collectGarbage(Opts.CacheDir, CacheMaxBytes, FI.get());
    std::fprintf(stderr,
                 "[cache-gc %s: %llu entries, %llu bytes; evicted %llu "
                 "(%llu bytes); swept %llu stale locks, %llu stale tmps]\n",
                 Opts.CacheDir.c_str(), (unsigned long long)G.Entries,
                 (unsigned long long)G.Bytes, (unsigned long long)G.Evicted,
                 (unsigned long long)G.EvictedBytes,
                 (unsigned long long)G.StaleLocks,
                 (unsigned long long)G.StaleTmps);
    return 0;
  }
  if (Files.empty() && !GenMcadLines)
    return usage(argv[0]);
  if (Opts.Instrument && Opts.Level == OptLevel::O4) {
    std::fprintf(stderr, "+I is a +O2-level build; ignoring +O4\n");
    Opts.Level = OptLevel::O2;
  }

  // Both read optimized IL after the build, which otherwise frees each
  // routine's IL once it is lowered.
  Opts.KeepIl = !EmitIlRoutine.empty() || !DumpDotPrefix.empty();
  CompilerSession Session(Opts);
  for (const std::string &File : Files) {
    std::string Source;
    if (!readSource(File, Source)) {
      std::fprintf(stderr, "scmoc: cannot read %s\n", File.c_str());
      return 1;
    }
    if (!Session.addSource(moduleNameOf(File), Source)) {
      std::fprintf(stderr, "scmoc: %s\n", Session.firstError().c_str());
      return 1;
    }
  }
  if (GenMcadLines) {
    WorkloadParams Params = mcadLikeParams(GenMcadLines);
    Params.PlantDefects = PlantDefects;
    if (!Session.addGenerated(generateProgram(Params))) {
      std::fprintf(stderr, "scmoc: %s\n", Session.firstError().c_str());
      return 1;
    }
  }

  if (Analyze) {
    AnalysisOptions AOpts;
    AOpts.Jobs = Opts.Jobs;
    AOpts.Filter = std::move(AnalyzeFilter);
    AOpts.Json = AnalyzeJson;
    AOpts.Incremental = Opts.Incremental;
    AOpts.CacheDir = Opts.CacheDir;
    AnalysisResult AR = Session.runAnalysis(AOpts);
    if (!AR.Ok) {
      std::fprintf(stderr, "scmoc: %s\n", AR.Error.c_str());
      return 1;
    }
    std::fputs(AR.Report.c_str(), stdout);
    std::fprintf(stderr,
                 "[analyzed %zu routines: %zu errors, %zu warnings, "
                 "%zu notes; %.3fs, peak %.2f MiB]\n",
                 AR.RoutinesAnalyzed, AR.Errors, AR.Warnings, AR.Notes,
                 AR.Seconds, double(AR.PeakBytes) / 1048576.0);
    std::fprintf(stderr,
                 "[interproc: %zu sccs, %zu waves, %zu reachable; "
                 "stream %.3fs, interproc %.3fs]\n",
                 AR.Sccs, AR.Waves, AR.ReachableRoutines, AR.StreamSeconds,
                 AR.InterprocSeconds);
    if (AOpts.Incremental)
      std::fprintf(stderr,
                   "[analysis cache: %zu hits, %zu misses, %zu stores; "
                   "rescanned %zu routines]\n",
                   AR.CacheHits, AR.CacheMisses, AR.CacheStores,
                   AR.RoutinesRescanned);
    return AR.Errors ? 1 : 0;
  }

  if (Opts.Pbo) {
    ProfileDb Db;
    if (ProfilePath.empty() || !loadProfileDb(ProfilePath, Db)) {
      std::fprintf(stderr, "scmoc: +P needs a readable --profile file\n");
      return 1;
    }
    Session.attachProfile(std::move(Db));
  }

  BuildResult Build = Session.build();
  // Fault-path diagnostics (spill degradation, recovered corruption) are
  // warnings: the build may still be Ok, just slower or fatter.
  if (!Build.WarningsText.empty())
    std::fputs(Build.WarningsText.c_str(), stderr);
  if (!Build.Ok) {
    std::fprintf(stderr, "scmoc: %s\n", Build.Error.c_str());
    return 1;
  }

  if (!EmitIlRoutine.empty()) {
    Program &P = Session.program();
    RoutineId R = P.findRoutine(EmitIlRoutine);
    if (R == InvalidId || !P.routine(R).IsDefined) {
      std::fprintf(stderr, "scmoc: no routine '%s'\n",
                   EmitIlRoutine.c_str());
      return 1;
    }
    RoutineBody &Body = Session.loader().acquire(R);
    std::fputs(printRoutine(P, R, Body).c_str(), stdout);
    Session.loader().release(R);
  }
  if (!DisasmRoutine.empty()) {
    std::string Text = printExeRoutine(Build.Exe, DisasmRoutine);
    if (Text.empty()) {
      std::fprintf(stderr, "scmoc: no linked routine '%s'\n",
                   DisasmRoutine.c_str());
      return 1;
    }
    std::fputs(Text.c_str(), stdout);
  }
  if (Stats) {
    // Rendering lives in driver/StatsRender so tests can pin the exact
    // shape (JSON key order included) without spawning the binary. The exe
    // hash line is a stable content hash: CI builds twice with
    // --incremental and asserts the two lines match.
    std::fputs(StatsJson ? renderStatsJson(Build).c_str()
                         : renderStatsText(Build).c_str(),
               stdout);
  }

  if (!DumpDotPrefix.empty()) {
    Program &P = Session.program();
    std::vector<RoutineId> Defined;
    for (RoutineId R = 0; R != P.numRoutines(); ++R)
      if (P.routine(R).IsDefined && P.routine(R).Emit)
        Defined.push_back(R);
    // Bodies may be offloaded post-link; go through the loader so the
    // graph walk replays them the same way any optimizer phase would.
    CallGraph G = CallGraph::build(
        P, Defined,
        [&Session](RoutineId R) -> const RoutineBody * {
          return &Session.loader().acquire(R);
        },
        [&Session](RoutineId R) { Session.loader().release(R); });
    std::string CgPath = DumpDotPrefix + ".callgraph.dot";
    std::ofstream CgOut(CgPath);
    if (!CgOut) {
      std::fprintf(stderr, "scmoc: cannot write %s\n", CgPath.c_str());
      return 1;
    }
    CgOut << printCallGraphDot(P, G);

    std::string CfgPath = DumpDotPrefix + ".cfg.dot";
    std::ofstream CfgOut(CfgPath);
    if (!CfgOut) {
      std::fprintf(stderr, "scmoc: cannot write %s\n", CfgPath.c_str());
      return 1;
    }
    CfgOut << "digraph cfgs {\n";
    for (RoutineId R : Defined) {
      const RoutineBody &Body = Session.loader().acquire(R);
      CfgOut << printCfgClusterDot(P, R, Body);
      Session.loader().release(R);
    }
    CfgOut << "}\n";
    std::fprintf(stderr, "[dot: wrote %s and %s (%zu routines)]\n",
                 CgPath.c_str(), CfgPath.c_str(), Defined.size());
  }

  if (Run) {
    RunResult Result = runExecutable(Build.Exe);
    if (!Result.Ok) {
      std::fprintf(stderr, "scmoc: run failed: %s\n", Result.Error.c_str());
      return 1;
    }
    for (int64_t V : Result.FirstOutputs)
      std::printf("%lld\n", (long long)V);
    if (Result.OutputCount > Result.FirstOutputs.size())
      std::printf("... (%llu more values)\n",
                  (unsigned long long)(Result.OutputCount -
                                       Result.FirstOutputs.size()));
    std::fprintf(stderr, "[exit %lld, %llu cycles, %llu instructions]\n",
                 (long long)Result.ExitValue,
                 (unsigned long long)Result.Cycles,
                 (unsigned long long)Result.Instructions);
    // Instrumented runs write the profile database (the paper: "a profile
    // database is generated, or added to, if data from an earlier run
    // already exists").
    if (Opts.Instrument && !ProfilePath.empty()) {
      ProfileDb New = ProfileDb::fromRun(Session.program(), Build.Probes,
                                         Result.Probes);
      ProfileDb Merged;
      if (loadProfileDb(ProfilePath, Merged))
        Merged.merge(New);
      else
        Merged = std::move(New);
      if (!saveProfileDb(Merged, ProfilePath,
                         Session.loader().faultInjector().get())) {
        // Degradation, not failure: the run's training data is lost but the
        // executable ran to completion — mirror the cache-store contract.
        std::fprintf(stderr,
                     "scmoc: warning: cannot write profile %s; this run's "
                     "training data is lost\n",
                     ProfilePath.c_str());
      } else {
        std::fprintf(stderr, "[profile written to %s]\n",
                     ProfilePath.c_str());
      }
    }
    return static_cast<int>(Result.ExitValue & 0x7f);
  }
  return 0;
}
