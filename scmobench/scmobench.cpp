//===- scmobench/scmobench.cpp --------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository's benchmark. One process drives the public library API
/// over one named compile workload for a fixed time and prints one JSON
/// result line. One operation (op) is one compile of the workload's program
/// (fresh CompilerSession, addGenerated, attachProfile, build), then a VM
/// run of the executable whose output is checked against the IL reference
/// interpreter's result on the unoptimized program. Only the compile is
/// timed, in CPU time (build_cpu_s) and wall time (build_s).
///
/// Layers are timed from outside, around the calls the benchmark makes,
/// and the per-layer counters come from BuildResult / RunResult. With
/// --trace 1 every other op records spans (name, start, end, parent, op)
/// and the BuildResult::Stages durations become reported children of the
/// build span, so the build span's self time is the driver residue. The
/// spans are written once at exit as Chrome trace-event JSON.
///
/// See scmobench/README.md for the workloads, metrics and how to run it.
///
//===----------------------------------------------------------------------===//

#include "driver/CompilerSession.h"
#include "frontend/Frontend.h"
#include "vm/IlInterp.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <sched.h>
#include <string>
#include <thread>
#include <time.h>
#include <unistd.h>
#include <vector>

using namespace scmo;
namespace fs = std::filesystem;

namespace {

//===-- Workloads ---------------------------------------------------------===//

/// One named compile workload. Programs come from
/// mcadLikeParams(Lines, 1, seed); the seed is a benchmark argument.
struct Workload {
  const char *Name;
  uint64_t Lines;
  double SelectPercent;
  uint64_t MachineMiB; ///< NaimConfig::autoFor size.
  unsigned NaimShards; ///< NaimConfig::Shards (0 = one per worker).
  bool WarmEdit;       ///< Incremental build against a primed cache.
};

// Why each workload exists (README.md has the long form):
//  - cmo-mem4: the offload-heavy acceptance shape; NAIM compacts, offloads
//    and fetches thousands of pools per op while the cache is idle. It runs
//    one loader shard: with several, Loader::relievePressure sorts shards
//    by cache sizes that other workers change during the sort, which
//    breaks std::stable_sort's ordering contract and intermittently reads
//    out of bounds (AddressSanitizer: heap-buffer-overflow).
//  - sel5-roomy: the paper's shipped configuration; time goes to LTRANS,
//    LLO and the frontend while NAIM's spill path stays idle.
//  - warm-edit: the edit-compile loop; the cache serves 91 hits, 1 miss and
//    1 store per op, WPA is skipped and LTRANS optimizes no CMO routine.
const Workload Workloads[] = {
    {"cmo-mem4", 60000, 100, 4, 1, false},
    {"sel5-roomy", 150000, 5, 512, 0, false},
    {"warm-edit", 60000, 20, 512, 0, true},
};

//===-- Metrics -----------------------------------------------------------===//

/// One reported metric. Exact metrics are deterministic counters that must
/// repeat in every op of a run; the rest are measured values.
struct MetricDef {
  const char *Name;
  const char *Unit;
  bool Exact;
};

// Compile and set-up time are process CPU seconds: on a shared VM the host
// deschedules vCPUs (steal) for minutes at a time, which moves wall time by
// up to 40% and CPU time far less. Wall time is a per-layer metric.
const MetricDef EndToEnd[] = {
    {"build_cpu_s", "s", false},
    {"build_cpu_s_tail", "s", false},
    {"peak_tracked_mib", "MiB", false},
    {"hlo_peak_mib", "MiB", false},
    {"run_mcycles", "Mcycles", true},
    {"exe_kinstrs", "kinstrs", true},
    {"setup_s", "s", false},
};

const MetricDef PerLayer[] = {
    // wall time of the op and the host it ran on
    {"build_s", "s", false},
    {"build_s_tail", "s", false},
    {"host.steal_pct", "%", false},
    // driver
    {"driver.residue_s", "s", false},
    {"driver.cpu_per_wall", "ratio", false},
    // frontend
    {"frontend.s", "s", false},
    {"frontend.klines_per_s", "klines/s", false},
    {"stage.frontend_s", "s", false},
    // ir
    {"stage.verify_s", "s", false},
    // profile
    {"stage.correlate_s", "s", false},
    {"stage.edge-weights_s", "s", false},
    {"profile.matched", "count", true},
    {"profile.stale", "count", true},
    {"profile.missing", "count", true},
    // hlo
    {"stage.selectivity_s", "s", false},
    {"stage.wpa_s", "s", false},
    {"stage.ltrans_s", "s", false},
    {"stage.wpa.live_mib", "MiB", false},
    {"stage.ltrans.live_mib", "MiB", false},
    {"hlo.cmo_klines", "klines", true},
    {"hlo.routines_optimized", "count", true},
    {"inline.sites", "count", true},
    {"inline.cross_module_sites", "count", true},
    {"clone.created", "count", true},
    {"ipcp.params_propagated", "count", true},
    {"hlo.dead_routines", "count", true},
    // naim
    {"naim.acquires", "count", false},
    {"naim.cache_hits", "count", false},
    {"naim.hit_ratio", "ratio", false},
    {"naim.expansions", "count", false},
    {"naim.compactions", "count", false},
    {"naim.offloads", "count", false},
    {"naim.fetches", "count", false},
    {"naim.spill_elisions", "count", false},
    {"naim.elision_ratio", "ratio", false},
    {"naim.queue_hits", "count", false},
    {"naim.prefetch_hits", "count", false},
    {"naim.prefetch_wasted", "count", false},
    {"naim.stored_mib", "MiB", false},
    {"naim.raw_mib", "MiB", false},
    {"naim.lock_wait_ms", "ms", false},
    {"naim.contentions", "count", false},
    {"naim.spill_failures", "count", false},
    // llo
    {"stage.llo_s", "s", false},
    {"stage.llo.live_mib", "MiB", false},
    {"llo.routines_lowered", "count", true},
    {"llo.spills", "count", true},
    {"llo.regs", "count", true},
    {"llo.schedule_moves", "count", true},
    {"llo.peak_routine_kib", "KiB", false},
    // cache
    {"stage.cache-plan_s", "s", false},
    {"stage.cache-store_s", "s", false},
    {"cache.hits", "count", true},
    {"cache.misses", "count", true},
    {"cache.hit_ratio", "ratio", false},
    {"cache.stores", "count", true},
    {"cache.store_present", "count", false},
    {"cache.store_contended", "count", false},
    {"cache.store_failures", "count", false},
    {"cache.skip.hlo", "count", false},
    {"cache.skip.llo", "count", false},
    // link
    {"stage.link_s", "s", false},
    // support (memory)
    {"mem.allocs", "count", false},
    {"mem.alloc_mib", "MiB", false},
    {"mem.arena_waste_mib", "MiB", false},
    // vm (cost model)
    {"vm.run_s", "s", false},
    {"vm.minstrs", "Minstrs", true},
    {"vm.icache_misses", "count", true},
    {"vm.calls", "count", true},
    {"vm.load_stalls", "count", true},
    {"vm.taken_branches", "count", true},
    // workload set-up
    {"setup.gen_s", "s", false},
    {"setup.train_s", "s", false},
    {"setup.ref_s", "s", false},
    {"setup.prime_s", "s", false},
    {"setup.wall_s", "s", false},
    // the tracing itself
    {"trace.overhead_pct", "%", false},
};

/// The pipeline stages whose durations become reported children of the
/// build span, each published as stage.<name>_s.
const char *const TimedStages[] = {"frontend",   "verify",     "correlate",
                                   "selectivity", "cache-plan", "wpa",
                                   "ltrans",     "edge-weights", "llo",
                                   "cache-store", "link"};

constexpr double MiB = 1024.0 * 1024.0;

/// Metric values of one op (or of one run), by name.
using Values = std::map<std::string, double>;

//===-- Clocks and spans --------------------------------------------------===//

using Clock = std::chrono::steady_clock;
const Clock::time_point Epoch = Clock::now();

double now() {
  return std::chrono::duration<double>(Clock::now() - Epoch).count();
}

double cpuNow() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return double(Ts.tv_sec) + double(Ts.tv_nsec) * 1e-9;
}

/// One span: a call the benchmark made into a layer (or, when Reported, a
/// duration the program reported about itself).
struct Span {
  std::string Name;
  double Start = 0;
  double End = 0;
  int Parent = -1;
  int Op = -1; ///< -1 for set-up spans.
  bool Reported = false;
};

/// In-memory span store, written once at exit. A null Tracer records
/// nothing, which is how untraced ops run.
class Tracer {
public:
  int add(std::string Name, double Start, double End, int Parent, int Op,
          bool Reported = false) {
    Spans.push_back({std::move(Name), Start, End, Parent, Op, Reported});
    return int(Spans.size()) - 1;
  }

  /// Duration minus the part its direct children cover.
  double selfTime(int Id) const {
    double Self = Spans[Id].End - Spans[Id].Start;
    for (const Span &S : Spans)
      if (S.Parent == Id)
        Self -= S.End - S.Start;
    return Self;
  }

  bool write(const std::string &Path) const;

private:
  std::vector<Span> Spans;
};

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out;
}

/// A number as JSON: finite values with all significant digits, else null.
std::string jsonNum(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof Buf, "%.12g", V);
  return Buf;
}

bool Tracer::write(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%s,\"dur\":%s,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"op\":%d,\"reported\":%s,\"self_us\":%s}}",
                 I ? "," : "", jsonEscape(S.Name).c_str(),
                 jsonNum(S.Start * 1e6).c_str(),
                 jsonNum((S.End - S.Start) * 1e6).c_str(), I, S.Parent, S.Op,
                 S.Reported ? "true" : "false",
                 jsonNum(selfTime(int(I)) * 1e6).c_str());
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

//===-- Set-up ------------------------------------------------------------===//

/// Everything an op needs that is not itself measured: the program, its
/// training profile, the reference result and (warm-edit) a primed cache.
struct Setup {
  GeneratedProgram GP;
  ProfileDb Db;
  IlRunResult Ref;
  std::string CacheDir;
  Values Times; ///< setup.*_s
};

unsigned hostThreads() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof Set, &Set) == 0 && CPU_COUNT(&Set) > 0)
    return unsigned(CPU_COUNT(&Set));
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

struct Context {
  const Workload *W = nullptr;
  uint64_t Lines = 0;        ///< Program size (scaled down by --self-test).
  uint64_t MachineBytes = 0; ///< NAIM machine memory, scaled alike.
  unsigned Jobs = 1;
  std::string ScratchDir; ///< Spill files and caches; removed at exit.
  unsigned RepoCounter = 0;
};

CompileOptions compileOptions(Context &C, const Setup &S) {
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.Pbo = true;
  Opts.Jobs = C.Jobs;
  Opts.SelectivityPercent = C.W->SelectPercent;
  Opts.Naim = NaimConfig::autoFor(C.MachineBytes);
  Opts.Naim.Shards = C.W->NaimShards;
  // Spill files stay inside the benchmark's own directory. Each session
  // gets a fresh name: the repository refuses to reuse an existing file.
  Opts.Naim.RepositoryPath =
      C.ScratchDir + "/naim-" + std::to_string(C.RepoCounter++);
  if (C.W->WarmEdit) {
    Opts.Incremental = true;
    Opts.CacheDir = S.CacheDir;
  }
  return Opts;
}

/// Generate, train, interpret (and prime). Returns false with \p Error set.
bool makeSetup(Context &C, uint64_t Seed, unsigned Index, Setup &S,
               Tracer *T, std::string &Error) {
  double T0 = now();
  double Cpu0 = cpuNow();
  S.GP = generateProgram(mcadLikeParams(C.Lines, 1, Seed));
  double T1 = now();
  S.Db = trainProfile(S.GP, Error);
  if (!Error.empty())
    return false;
  double T2 = now();
  {
    Program RefP;
    for (const GeneratedModule &GM : S.GP.Modules) {
      FrontendResult FR = compileSource(RefP, GM.Name, GM.Source);
      if (!FR.Ok) {
        Error = "reference frontend: " + FR.Error;
        return false;
      }
    }
    S.Ref = interpretProgram(RefP);
    if (!S.Ref.Ok) {
      Error = "reference interpreter: " + S.Ref.Error;
      return false;
    }
  }
  double T3 = now();
  if (C.W->WarmEdit) {
    S.CacheDir = C.ScratchDir + "/cache-" + std::to_string(Index);
    fs::remove_all(S.CacheDir);
    fs::create_directories(S.CacheDir);
    CompilerSession Session(compileOptions(C, S));
    Session.addGenerated(S.GP);
    Session.attachProfile(S.Db);
    BuildResult Prime = Session.build();
    if (!Prime.Ok) {
      Error = "priming build: " + Prime.Error;
      return false;
    }
  }
  double T4 = now();
  S.Times = {{"setup.gen_s", T1 - T0},
             {"setup.train_s", T2 - T1},
             {"setup.ref_s", T3 - T2},
             {"setup.prime_s", T4 - T3},
             {"setup.wall_s", T4 - T0},
             {"setup_s", cpuNow() - Cpu0}};
  if (T) {
    int Root = T->add("setup", T0, T4, -1, -1);
    T->add("setup.gen", T0, T1, Root, -1);
    T->add("setup.train", T1, T2, Root, -1);
    T->add("setup.ref", T2, T3, Root, -1);
    if (C.W->WarmEdit)
      T->add("setup.prime", T3, T4, Root, -1);
  }
  return true;
}

//===-- One op ------------------------------------------------------------===//

/// The warm-edit op's edit: a new, uncalled routine with an op-unique body
/// appended to the last module (a default-set module under selectivity, so
/// the CMO unit stays cached and exactly one unit misses).
GeneratedProgram editedProgram(const GeneratedProgram &GP, unsigned Op) {
  GeneratedProgram Out = GP;
  std::string K = std::to_string(1000003u + Op);
  Out.Modules.back().Source += "\nfunc bench_edit_" + std::to_string(Op) +
                               "(x) {\n  var t = x * " + K +
                               " + 7;\n  return t % 8191;\n}\n";
  return Out;
}

struct OpResult {
  bool Ok = false;
  std::string Error;
  uint64_t ExeHash = 0;
  bool WpaSkipped = false; ///< The wpa stage declared itself not applicable.
  Values V;
};

const StageMetrics *findStage(const BuildResult &B, const char *Name) {
  for (const StageMetrics &S : B.Stages)
    if (S.Name == Name)
      return &S;
  return nullptr;
}

bool stageSkipped(const BuildResult &B, const char *Name) {
  const StageMetrics *S = findStage(B, Name);
  return S && S->Skipped;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

/// Counters the program reported about itself in \p B and \p R.
void collectCounters(const BuildResult &B, const RunResult &R, Values &V) {
  V["peak_tracked_mib"] = double(B.TotalPeakBytes) / MiB;
  V["hlo_peak_mib"] = double(B.HloPeakBytes) / MiB;
  V["exe_kinstrs"] = double(B.Exe.Code.size()) / 1e3;

  for (const char *Name : TimedStages) {
    const StageMetrics *S = findStage(B, Name);
    V[std::string("stage.") + Name + "_s"] = S ? S->Seconds : 0.0;
  }
  for (const char *Name : {"wpa", "ltrans", "llo"}) {
    const StageMetrics *S = findStage(B, Name);
    V[std::string("stage.") + Name + ".live_mib"] =
        S ? double(S->LiveBytesAfter) / MiB : 0.0;
  }

  V["profile.matched"] = double(B.Correlation.Matched);
  V["profile.stale"] = double(B.Correlation.Stale);
  V["profile.missing"] = double(B.Correlation.Missing);

  V["hlo.cmo_klines"] = double(B.Selectivity.CmoSourceLines) / 1e3;
  for (const char *Name :
       {"hlo.routines_optimized", "inline.sites", "inline.cross_module_sites",
        "clone.created", "ipcp.params_propagated", "hlo.dead_routines",
        "cache.hits", "cache.misses", "cache.stores", "cache.store_present",
        "cache.store_contended", "cache.store_failures", "cache.skip.hlo",
        "cache.skip.llo"})
    V[Name] = double(B.Stats.get(Name));
  V["cache.hit_ratio"] =
      ratio(V["cache.hits"], V["cache.hits"] + V["cache.misses"]);

  const LoaderStats &L = B.Loader;
  V["naim.acquires"] = double(L.Acquires);
  V["naim.cache_hits"] = double(L.CacheHits);
  V["naim.hit_ratio"] = ratio(double(L.CacheHits), double(L.Acquires));
  V["naim.expansions"] = double(L.Expansions);
  V["naim.compactions"] = double(L.Compactions);
  V["naim.offloads"] = double(L.Offloads);
  V["naim.fetches"] = double(L.Fetches);
  V["naim.spill_elisions"] = double(L.SpillElisions);
  V["naim.elision_ratio"] = ratio(double(L.SpillElisions), double(L.Offloads));
  V["naim.queue_hits"] = double(L.SpillQueueHits);
  V["naim.prefetch_hits"] = double(L.PrefetchHits);
  V["naim.prefetch_wasted"] = double(L.PrefetchWasted);
  V["naim.stored_mib"] = double(L.CompressedBytes) / MiB;
  V["naim.raw_mib"] = double(L.RawBytes) / MiB;
  V["naim.lock_wait_ms"] = double(L.LockWaitNanos) / 1e6;
  V["naim.contentions"] = double(L.Contentions);
  V["naim.spill_failures"] = double(L.SpillFailures);

  V["llo.routines_lowered"] = double(B.Llo.RoutinesLowered);
  V["llo.spills"] = double(B.Llo.SpillsAllocated);
  V["llo.regs"] = double(B.Llo.RegsAllocated);
  V["llo.schedule_moves"] = double(B.Llo.ScheduleMoves);
  V["llo.peak_routine_kib"] = double(B.Llo.PeakRoutineBytes) / 1024.0;

  double Allocs = 0, AllocBytes = 0, Waste = 0;
  for (const MemoryProfile::Cell &Cell : B.Memory.Cells) {
    Allocs += double(Cell.Allocs);
    AllocBytes += double(Cell.AllocBytes);
  }
  for (uint64_t W : B.Memory.CategoryWaste)
    Waste += double(W);
  V["mem.allocs"] = Allocs;
  V["mem.alloc_mib"] = AllocBytes / MiB;
  V["mem.arena_waste_mib"] = Waste / MiB;

  V["run_mcycles"] = double(R.Cycles) / 1e6;
  V["vm.minstrs"] = double(R.Instructions) / 1e6;
  V["vm.icache_misses"] = double(R.ICacheMisses);
  V["vm.calls"] = double(R.CallsExecuted);
  V["vm.load_stalls"] = double(R.LoadStalls);
  V["vm.taken_branches"] = double(R.TakenBranches);
}

/// Runs op \p Op and checks its output against \p Ref. With a tracer, the
/// op's spans are recorded and the per-layer times are read back from them.
OpResult runOp(Context &C, const Setup &S, const IlRunResult &Ref, int Op,
               Tracer *T) {
  OpResult Res;
  std::optional<GeneratedProgram> Edited;
  if (C.W->WarmEdit)
    Edited = editedProgram(S.GP, unsigned(Op));
  const GeneratedProgram &GP = Edited ? *Edited : S.GP;
  CompileOptions Opts = compileOptions(C, S);

  std::optional<CompilerSession> Session;
  double OpStart = now();
  double Cpu0 = cpuNow();
  Session.emplace(Opts);
  double TCtor = now();
  bool Added = Session->addGenerated(GP);
  double TFront = now();
  Session->attachProfile(S.Db);
  double TBuild = now();
  BuildResult B = Session->build();
  double TEnd = now();
  double Cpu1 = cpuNow();
  Session.reset();
  double TTeardown = now();

  Res.V["build_s"] = TEnd - OpStart;
  Res.V["build_cpu_s"] = Cpu1 - Cpu0;
  Res.V["frontend.s"] = TFront - TCtor;
  Res.V["frontend.klines_per_s"] =
      ratio(double(B.SourceLines) / 1e3, TFront - TCtor);
  Res.V["driver.cpu_per_wall"] = ratio(Cpu1 - Cpu0, TEnd - OpStart);

  RunResult R;
  double TRun0 = now(), TRun1 = TRun0;
  if (!Added || !B.Ok) {
    Res.Error = "build failed: " + (B.Error.empty() ? std::string("frontend")
                                                    : B.Error);
  } else {
    R = runExecutable(B.Exe);
    TRun1 = now();
    if (!R.Ok)
      Res.Error = "VM run failed: " + R.Error;
    else if (R.OutputChecksum != Ref.OutputChecksum ||
             R.ExitValue != Ref.ExitValue)
      Res.Error = "output differs from the IL reference";
    else
      Res.Ok = true;
  }
  Res.V["vm.run_s"] = TRun1 - TRun0;
  collectCounters(B, R, Res.V);
  Res.ExeHash = B.Ok ? hashExecutable(B.Exe) : 0;

  Res.WpaSkipped = stageSkipped(B, "wpa");

  if (T) {
    int Root = T->add("op", OpStart, std::max(TRun1, TTeardown), -1, Op);
    int Build = T->add("build", OpStart, TEnd, Root, Op);
    T->add("frontend", TCtor, TFront, Build, Op);
    double At = TBuild;
    for (const StageMetrics &St : B.Stages) {
      T->add("stage." + St.Name, At, At + St.Seconds, Build, Op,
             /*Reported=*/true);
      At += St.Seconds;
    }
    T->add("teardown", TEnd, TTeardown, Root, Op);
    if (TRun1 > TRun0)
      T->add("vm.run", TRun0, TRun1, Root, Op);
    // Build wall time covered by neither the frontend call nor a stage the
    // program reported: session construction, attachProfile and build()'s
    // own work between stages.
    Res.V["driver.residue_s"] = T->selfTime(Build);
  }
  return Res;
}

//===-- Aggregation -------------------------------------------------------===//

double median(std::vector<double> Xs) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  return N % 2 ? Xs[N / 2] : 0.5 * (Xs[N / 2 - 1] + Xs[N / 2]);
}

/// The highest sample with at least ten samples beyond it (the maximum
/// when there are fewer than eleven).
double tail(std::vector<double> Xs) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  return Xs.size() > 10 ? Xs[Xs.size() - 11] : Xs.back();
}

std::vector<double> column(const std::vector<OpResult> &Ops,
                           const std::string &Name) {
  std::vector<double> Out;
  for (const OpResult &O : Ops) {
    auto It = O.V.find(Name);
    if (It != O.V.end())
      Out.push_back(It->second);
  }
  return Out;
}

/// Names of exact metrics whose value differs between ops.
std::vector<std::string> unstableExact(const std::vector<OpResult> &Ops) {
  std::vector<std::string> Bad;
  auto Check = [&](const MetricDef &M) {
    if (!M.Exact)
      return;
    std::vector<double> Col = column(Ops, M.Name);
    if (std::adjacent_find(Col.begin(), Col.end(),
                           std::not_equal_to<double>()) != Col.end())
      Bad.push_back(M.Name);
  };
  for (const MetricDef &M : EndToEnd)
    Check(M);
  for (const MetricDef &M : PerLayer)
    Check(M);
  return Bad;
}

/// The workload's reason to exist, checked on every op: a changed default
/// must not silently turn one workload into another.
std::vector<std::string> selfCheck(const Workload &W, const OpResult &O) {
  std::vector<std::string> Bad;
  auto Get = [&](const char *N) { return O.V.at(N); };
  if (std::strcmp(W.Name, "cmo-mem4") == 0) {
    if (Get("naim.offloads") <= 0)
      Bad.push_back("cmo-mem4: NAIM offloaded nothing");
    if (Get("cache.hits") != 0)
      Bad.push_back("cmo-mem4: the artifact cache served hits");
  } else if (std::strcmp(W.Name, "sel5-roomy") == 0) {
    if (Get("naim.compactions") != 0 || Get("naim.offloads") != 0)
      Bad.push_back("sel5-roomy: the NAIM spill path ran");
  } else if (W.WarmEdit) {
    if (Get("cache.misses") != 1)
      Bad.push_back("warm-edit: expected exactly one cache miss per op");
    if (Get("cache.hits") <= 0)
      Bad.push_back("warm-edit: the artifact cache served no hits");
    // LTRANS still cleans up the edited default-set module, so "skipped"
    // means it optimized no CMO routine.
    if (!O.WpaSkipped || Get("hlo.routines_optimized") != 0)
      Bad.push_back("warm-edit: wpa/ltrans optimized the CMO set");
  }
  return Bad;
}

//===-- Driver ------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool SelfTest = false;
  std::string OutDir = ".bench_out";
  std::string Rev = "unknown";
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "scmobench: %s\n"
               "usage: scmobench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR] [--rev REV]\n"
               "       scmobench --self-test [--out DIR]\n"
               "workloads:",
               Why);
  for (const Workload &W : Workloads)
    std::fprintf(stderr, " %s", W.Name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--self-test") {
      A.SelfTest = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    std::string Val = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Val;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Val.c_str(), &End, 10);
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Val.c_str(), &End);
      if (*End == '\0' && !(A.Seconds > 0 && A.Seconds <= 600))
        usage("--seconds must be in (0, 600]");
    } else if (Flag == "--trace") {
      A.Trace = Val == "1";
      if (Val != "0" && Val != "1")
        usage("--trace takes 0 or 1");
    } else if (Flag == "--out") {
      A.OutDir = Val;
    } else if (Flag == "--rev") {
      A.Rev = Val;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
    if (End && *End != '\0')
      usage(("not a number: " + Val).c_str());
  }
  return A;
}

const Workload *findWorkload(const std::string &Name) {
  for (const Workload &W : Workloads)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

/// A run's outcome: every op it made and what went wrong, if anything.
struct RunOutcome {
  std::vector<Setup> Setups;         ///< Only the last keeps its program.
  std::vector<OpResult> Ops;         ///< Ops[0] is the untimed warm-up.
  std::vector<bool> Traced;          ///< Parallel to Ops.
  std::vector<std::string> Unstable; ///< Exact metrics that differed.
  std::vector<std::string> SelfCheckFailures;
  std::string ExeHash; ///< Cold workloads only.
  unsigned Failed = 0;
  double StealPct = 0; ///< Host steal time over the timed ops, % of all CPU.
};

/// The "cpu" line of /proc/stat: jiffies per state, steal eighth.
std::vector<uint64_t> cpuJiffies() {
  std::vector<uint64_t> J;
  if (FILE *F = std::fopen("/proc/stat", "r")) {
    unsigned long long V;
    if (std::fscanf(F, "cpu") == 0)
      while (J.size() < 8 && std::fscanf(F, "%llu", &V) == 1)
        J.push_back(V);
    std::fclose(F);
  }
  return J;
}

double stealPct(const std::vector<uint64_t> &A,
                const std::vector<uint64_t> &B) {
  if (A.size() < 8 || B.size() < 8)
    return 0;
  double Total = 0;
  for (size_t I = 0; I < 8; ++I)
    Total += double(B[I] - A[I]);
  return 100.0 * ratio(double(B[7] - A[7]), Total);
}

/// Set up \p Setups times, then run ops until \p Seconds have passed and
/// at least \p MinOps timed ops ran. \p RefOverride replaces the reference
/// result (the self-test corrupts it). Returns false if set-up failed.
bool runWorkload(Context &C, uint64_t Seed, unsigned Setups, double Seconds,
                 unsigned MinOps, bool Trace, Tracer &T, RunOutcome &Out,
                 const IlRunResult *RefOverride = nullptr) {
  Out.Setups.resize(Setups);
  for (unsigned I = 0; I < Setups; ++I) {
    std::string Error;
    if (!makeSetup(C, Seed, I, Out.Setups[I], Trace ? &T : nullptr, Error)) {
      std::fprintf(stderr, "scmobench: set-up failed: %s\n", Error.c_str());
      return false;
    }
    if (I + 1 < Setups) {
      // Keep the times; free the program and the primed cache.
      Setup &Old = Out.Setups[I];
      Old.GP = GeneratedProgram();
      Old.Db = ProfileDb();
      if (!Old.CacheDir.empty())
        fs::remove_all(Old.CacheDir);
    }
  }
  const Setup &S = Out.Setups.back();
  const IlRunResult &Ref = RefOverride ? *RefOverride : S.Ref;

  double Deadline = 0;
  std::vector<uint64_t> Jiffies0;
  for (int Op = 0;; ++Op) {
    // Op 0 warms the allocator and page cache and is not timed. Under
    // tracing, odd ops record spans and even ops do not, so the trace run
    // measures its own overhead.
    bool Traced = Trace && Op % 2 == 1;
    OpResult O = runOp(C, S, Ref, Op, Traced ? &T : nullptr);
    if (!O.Ok) {
      ++Out.Failed;
      std::fprintf(stderr, "scmobench: op %d failed: %s\n", Op,
                   O.Error.c_str());
    }
    for (std::string &P : selfCheck(*C.W, O))
      if (std::find(Out.SelfCheckFailures.begin(), Out.SelfCheckFailures.end(),
                    P) == Out.SelfCheckFailures.end())
        Out.SelfCheckFailures.push_back(std::move(P));
    Out.Ops.push_back(std::move(O));
    Out.Traced.push_back(Traced);
    if (Op == 0) {
      Deadline = now() + Seconds;
      Jiffies0 = cpuJiffies();
    } else if (now() >= Deadline && unsigned(Op) >= MinOps) {
      break;
    }
  }
  Out.StealPct = stealPct(Jiffies0, cpuJiffies());

  Out.Unstable = unstableExact(Out.Ops);
  if (!C.W->WarmEdit) {
    uint64_t H = Out.Ops.front().ExeHash;
    for (const OpResult &O : Out.Ops)
      if (O.ExeHash != H) {
        Out.Unstable.push_back("exe_xxh64");
        break;
      }
    char Buf[24];
    std::snprintf(Buf, sizeof Buf, "%016llx", (unsigned long long)H);
    Out.ExeHash = Buf;
  }
  return true;
}

const MetricDef *metricsBegin(bool PerLayerSet) {
  return PerLayerSet ? std::begin(PerLayer) : std::begin(EndToEnd);
}
const MetricDef *metricsEnd(bool PerLayerSet) {
  return PerLayerSet ? std::end(PerLayer) : std::end(EndToEnd);
}

/// Metric values of a run over its timed ops: the end-to-end set, or the
/// per-layer set from the traced ops.
Values aggregate(const RunOutcome &R, bool PerLayerSet) {
  std::vector<OpResult> Ops, Untraced;
  for (size_t I = 1; I < R.Ops.size(); ++I) {
    if (!PerLayerSet || R.Traced[I])
      Ops.push_back(R.Ops[I]);
    if (!R.Traced[I])
      Untraced.push_back(R.Ops[I]);
  }
  Values V;
  for (const MetricDef *M = metricsBegin(PerLayerSet);
       M != metricsEnd(PerLayerSet); ++M) {
    std::string N = M->Name;
    if (N == "setup_s" || N.rfind("setup.", 0) == 0) {
      std::vector<double> Col;
      for (const Setup &S : R.Setups)
        Col.push_back(S.Times.at(N));
      V[N] = median(Col);
    } else if (N == "build_s_tail" || N == "build_cpu_s_tail") {
      V[N] = tail(column(Ops, N.substr(0, N.size() - 5)));
    } else if (N == "host.steal_pct") {
      V[N] = R.StealPct;
    } else if (N == "trace.overhead_pct") {
      double Base = median(column(Untraced, "build_s"));
      V[N] = 100.0 * ratio(median(column(Ops, "build_s")) - Base, Base);
    } else {
      V[N] = median(column(Ops, N));
    }
  }
  return V;
}

std::string pathJoin(const std::string &Dir, const std::string &Name) {
  return (fs::path(Dir) / Name).string();
}

/// The run's record: host, workload, seed, executable hash and every
/// metric with its exact/measured flag.
bool writeRecord(const std::string &Path, const Args &A, const Context &C,
                 const RunOutcome &R, const Values &V,
                 const std::string &TraceName) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  auto Str = [](const std::string &S) { return "\"" + jsonEscape(S) + "\""; };
  std::fprintf(F, "{\n  \"benchmark\": \"scmobench\",\n");
  std::fprintf(F,
               "  \"host\": {\"nproc\": %u, \"compiler\": %s, "
               "\"build_type\": %s, \"git_rev\": %s},\n",
               hostThreads(), Str(SCMOBENCH_COMPILER).c_str(),
               Str(SCMOBENCH_BUILD_TYPE).c_str(), Str(A.Rev).c_str());
  std::fprintf(F,
               "  \"workload\": %s,\n  \"seed\": %llu,\n  \"seconds\": %s,\n"
               "  \"trace\": %d,\n  \"jobs\": %u,\n  \"lines\": %llu,\n",
               Str(C.W->Name).c_str(), (unsigned long long)A.Seed,
               jsonNum(A.Seconds).c_str(), A.Trace ? 1 : 0, C.Jobs,
               (unsigned long long)R.Setups.back().GP.TotalLines);
  std::fprintf(F, "  \"exe_xxh64\": %s,\n",
               R.ExeHash.empty() ? "null" : Str(R.ExeHash).c_str());
  std::fprintf(F, "  \"attempted\": %zu,\n  \"failed\": %u,\n", R.Ops.size(),
               R.Failed);
  // A *_tail metric is the highest sample with ten beyond it: this
  // percentile of the timed ops.
  size_t Timed = R.Ops.size() - 1;
  std::fprintf(F, "  \"timed_ops\": %zu,\n  \"tail_percentile\": %s,\n",
               Timed,
               jsonNum(Timed > 10 ? 100.0 * double(Timed - 10) / double(Timed)
                                  : 100.0)
                   .c_str());
  auto List = [&](const std::vector<std::string> &Xs) {
    std::string Out = "[";
    for (size_t I = 0; I < Xs.size(); ++I)
      Out += (I ? ", " : "") + Str(Xs[I]);
    return Out + "]";
  };
  std::fprintf(F, "  \"unstable_exact\": %s,\n  \"self_check_failures\": %s,\n",
               List(R.Unstable).c_str(), List(R.SelfCheckFailures).c_str());
  std::fprintf(F, "  \"trace_file\": %s,\n",
               TraceName.empty() ? "null" : Str(TraceName).c_str());
  // Per-op samples behind the medians, op 0 (the warm-up) first.
  std::fprintf(F, "  \"op_samples\": {");
  const char *Sampled[] = {"build_s", "build_cpu_s", "vm.run_s"};
  for (size_t I = 0; I < std::size(Sampled); ++I) {
    std::string Xs;
    for (const OpResult &O : R.Ops)
      Xs += (Xs.empty() ? "" : ", ") + jsonNum(O.V.at(Sampled[I]));
    std::fprintf(F, "%s\"%s\": [%s]", I ? ", " : "", Sampled[I], Xs.c_str());
  }
  std::fprintf(F, "},\n");
  std::fprintf(F, "  \"metrics\": [");
  bool First = true;
  for (const MetricDef *M = metricsBegin(A.Trace); M != metricsEnd(A.Trace);
       ++M) {
    std::fprintf(F,
                 "%s\n    {\"name\": %s, \"unit\": %s, \"value\": %s, "
                 "\"exact\": %s}",
                 First ? "" : ",", Str(M->Name).c_str(), Str(M->Unit).c_str(),
                 jsonNum(V.at(M->Name)).c_str(), M->Exact ? "true" : "false");
    First = false;
  }
  std::fprintf(F, "\n  ]\n}\n");
  return std::fclose(F) == 0;
}

/// Runs each workload at a tiny scale and checks the benchmark itself:
/// every metric is emitted, exact counters repeat across ops, and a
/// corrupted reference checksum is counted as a failed op.
int selfTest(const Args &A, const std::string &Scratch) {
  constexpr uint64_t TinyLines = 3000;
  int Failures = 0;
  auto Fail = [&](const Workload &W, const std::string &Why) {
    std::fprintf(stderr, "self-test FAIL [%s]: %s\n", W.Name, Why.c_str());
    ++Failures;
  };
  for (const Workload &W : Workloads) {
    Context C{&W, TinyLines, (W.MachineMiB << 20) * TinyLines / W.Lines,
              hostThreads(), Scratch};
    Tracer T;
    RunOutcome R;
    if (!runWorkload(C, A.Seed, 1, 0.0, 3, /*Trace=*/true, T, R)) {
      Fail(W, "set-up failed");
      continue;
    }
    if (R.Failed)
      Fail(W, std::to_string(R.Failed) + " ops failed");
    for (bool PerLayerSet : {false, true}) {
      Values V = aggregate(R, PerLayerSet);
      for (const MetricDef *M = metricsBegin(PerLayerSet);
           M != metricsEnd(PerLayerSet); ++M)
        if (!V.count(M->Name) || !std::isfinite(V.at(M->Name)))
          Fail(W, std::string("metric not emitted: ") + M->Name);
    }
    for (const std::string &Name : R.Unstable)
      Fail(W, "exact counter differs between ops: " + Name);

    IlRunResult Corrupt = R.Setups.back().Ref;
    Corrupt.OutputChecksum ^= 1;
    std::fprintf(stderr, "self-test [%s]: against a corrupted reference, "
                         "every op below must fail\n", W.Name);
    Tracer Unused;
    RunOutcome Bad;
    if (!runWorkload(C, A.Seed, 1, 0.0, 1, /*Trace=*/false, Unused, Bad,
                     &Corrupt) ||
        Bad.Failed != Bad.Ops.size())
      Fail(W, "a corrupted reference checksum was not counted as a failure");
    std::fprintf(stderr, "self-test [%s]: %zu ops checked\n", W.Name,
                 R.Ops.size() + Bad.Ops.size());
  }
  std::printf("self-test: %s\n", Failures ? "FAIL" : "PASS");
  return Failures ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  std::error_code Ec;
  fs::create_directories(A.OutDir, Ec);
  std::string Scratch =
      pathJoin(A.OutDir, "scratch-" + std::to_string(::getpid()));
  fs::remove_all(Scratch, Ec);
  if (!fs::create_directories(Scratch, Ec)) {
    std::fprintf(stderr, "scmobench: cannot create %s\n", Scratch.c_str());
    return 1;
  }
  struct Cleanup {
    std::string Dir;
    ~Cleanup() {
      std::error_code Ec;
      fs::remove_all(Dir, Ec);
    }
  } RemoveScratch{Scratch};

  if (A.SelfTest)
    return selfTest(A, Scratch);

  const Workload *W = findWorkload(A.Workload);
  if (!W)
    usage(("unknown workload '" + A.Workload + "'").c_str());
  Context C{W, W->Lines, W->MachineMiB << 20, hostThreads(), Scratch};

  // Set-up repeats three times so setup_s is a median. A trace run needs
  // two timed ops at least, one traced and one not.
  Tracer T;
  RunOutcome R;
  if (!runWorkload(C, A.Seed, 3, A.Seconds, A.Trace ? 2 : 1, A.Trace, T, R))
    return 1;
  Values V = aggregate(R, A.Trace);

  for (const std::string &Name : R.Unstable)
    std::fprintf(stderr, "scmobench: exact counter %s differs between ops\n",
                 Name.c_str());
  for (const std::string &P : R.SelfCheckFailures)
    std::fprintf(stderr, "scmobench: workload self-check failed: %s\n",
                 P.c_str());
  bool Correct = R.Failed == 0 && R.Unstable.empty() &&
                 R.SelfCheckFailures.empty();

  std::string Stem = std::string(W->Name) + "-seed" + std::to_string(A.Seed);
  std::string TraceName = A.Trace ? "trace-" + Stem + ".json" : "";
  if (A.Trace && !T.write(pathJoin(A.OutDir, TraceName))) {
    std::fprintf(stderr, "scmobench: cannot write %s\n", TraceName.c_str());
    return 1;
  }
  std::string Record = pathJoin(
      A.OutDir, "record-" + Stem + (A.Trace ? "-trace" : "") + ".json");
  if (!writeRecord(Record, A, C, R, V, TraceName)) {
    std::fprintf(stderr, "scmobench: cannot write %s\n", Record.c_str());
    return 1;
  }

  std::string Line = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.Ops.size()) +
                     ", \"failed\": " + std::to_string(R.Failed) +
                     ", \"metrics\": {";
  bool First = true;
  for (const MetricDef *M = metricsBegin(A.Trace); M != metricsEnd(A.Trace);
       ++M) {
    Line += std::string(First ? "" : ", ") + "\"" + M->Name +
            "\": {\"value\": " + jsonNum(V.at(M->Name)) + ", \"unit\": \"" +
            M->Unit + "\"}";
    First = false;
  }
  std::printf("%s}}\n", Line.c_str());
  return Correct ? 0 : 1;
}
