//===- driver/StatsRender.cpp ---------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "driver/StatsRender.h"

#include "link/Linker.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <vector>

using namespace scmo;

namespace {

void appendf(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Fmt);
  int N = std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  if (N > 0)
    Out.append(Buf, std::min<size_t>(static_cast<size_t>(N),
                                     sizeof(Buf) - 1));
}

double mib(uint64_t Bytes) { return double(Bytes) / 1048576.0; }

/// True when a profile cell saw any activity worth a row.
bool cellActive(const MemoryProfile::Cell &C) {
  return C.Allocs || C.AllocBytes || C.ReleaseBytes || C.WasteBytes;
}

} // namespace

std::string scmo::renderStatsText(const BuildResult &Build) {
  std::string Out;
  appendf(Out, "; %llu source lines, %zu routines linked, %zu instrs\n",
          (unsigned long long)Build.SourceLines, Build.Exe.Routines.size(),
          Build.Exe.Code.size());
  appendf(Out, "; HLO peak %.2f MiB, total peak %.2f MiB\n",
          mib(Build.HloPeakBytes), mib(Build.TotalPeakBytes));
  appendf(Out,
          "; loader: %llu compactions, %llu offloads, %llu cache hits\n",
          (unsigned long long)Build.Loader.Compactions,
          (unsigned long long)Build.Loader.Offloads,
          (unsigned long long)Build.Loader.CacheHits);
  appendf(Out,
          "; loader locks: %llu contentions, %.3f ms waited\n",
          (unsigned long long)Build.Loader.Contentions,
          double(Build.Loader.LockWaitNanos) / 1e6);
  appendf(Out, "; naim io: %llu elided stores, %llu stored bytes\n",
          (unsigned long long)Build.Loader.SpillElisions,
          (unsigned long long)Build.Loader.CompressedBytes);
  for (const StageMetrics &M : Build.Stages)
    appendf(Out, "; stage %-12s %8.3fs  cpu %8.3fs  live %8.2f MiB%s\n",
            M.Name.c_str(), M.Seconds, M.CpuSeconds, mib(M.LiveBytesAfter),
            M.Skipped ? "  (skipped)" : "");

  // The allocation profile: one row per active (stage, category) cell,
  // with the arena-waste column, then the worst pairs by alloc volume —
  // the "where do the bytes come from" answer the arena work is guided by.
  const MemoryProfile &MP = Build.Memory;
  constexpr unsigned NumCats = MemoryProfile::NumCats;
  if (MP.numStages()) {
    appendf(Out, "; memory profile (stage x category):\n");
    appendf(Out,
            ";   %-12s %-12s %10s %12s %12s %12s %10s\n", "stage",
            "category", "allocs", "alloc MiB", "freed MiB", "peak MiB",
            "waste MiB");
    for (unsigned S = 0; S != MP.numStages(); ++S)
      for (unsigned C = 0; C != NumCats; ++C) {
        const MemoryProfile::Cell &Cell =
            MP.cell(S, static_cast<MemCategory>(C));
        if (!cellActive(Cell))
          continue;
        appendf(Out, ";   %-12s %-12s %10llu %12.2f %12.2f %12.2f %10.2f\n",
                MP.StageNames[S].c_str(),
                memCategoryName(static_cast<MemCategory>(C)),
                (unsigned long long)Cell.Allocs, mib(Cell.AllocBytes),
                mib(Cell.ReleaseBytes), mib(Cell.PeakLiveBytes),
                mib(Cell.WasteBytes));
      }

    // Top three cells by bytes allocated.
    std::vector<std::pair<unsigned, unsigned>> Ranked;
    for (unsigned S = 0; S != MP.numStages(); ++S)
      for (unsigned C = 0; C != NumCats; ++C)
        if (MP.cell(S, static_cast<MemCategory>(C)).AllocBytes)
          Ranked.emplace_back(S, C);
    std::stable_sort(Ranked.begin(), Ranked.end(),
                     [&](const auto &L, const auto &R) {
                       return MP.cell(L.first,
                                      static_cast<MemCategory>(L.second))
                                  .AllocBytes >
                              MP.cell(R.first,
                                      static_cast<MemCategory>(R.second))
                                  .AllocBytes;
                     });
    if (!Ranked.empty()) {
      appendf(Out, "; worst (stage, category) by bytes allocated:\n");
      for (size_t I = 0; I != Ranked.size() && I != 3; ++I) {
        const MemoryProfile::Cell &Cell = MP.cell(
            Ranked[I].first, static_cast<MemCategory>(Ranked[I].second));
        appendf(Out,
                ";   %zu. %s/%s  %.2f MiB in %llu allocs, peak live "
                "%.2f MiB, waste %.2f MiB\n",
                I + 1, MP.StageNames[Ranked[I].first].c_str(),
                memCategoryName(static_cast<MemCategory>(Ranked[I].second)),
                mib(Cell.AllocBytes), (unsigned long long)Cell.Allocs,
                mib(Cell.PeakLiveBytes), mib(Cell.WasteBytes));
      }
    }

    uint64_t TotalWaste = 0;
    std::string WastePerCat;
    for (unsigned C = 0; C != NumCats; ++C) {
      TotalWaste += MP.CategoryWaste[C];
      if (MP.CategoryWaste[C]) {
        if (!WastePerCat.empty())
          WastePerCat += ", ";
        appendf(WastePerCat, "%s %.2f MiB",
                memCategoryName(static_cast<MemCategory>(C)),
                mib(MP.CategoryWaste[C]));
      }
    }
    appendf(Out, "; arena waste %.2f MiB total", mib(TotalWaste));
    if (!WastePerCat.empty()) {
      Out += " (";
      Out += WastePerCat;
      Out += ")";
    }
    Out += "\n";
    if (MP.UnderflowEvents)
      appendf(Out,
              "; WARNING: %llu release underflow(s), first in category %s\n",
              (unsigned long long)MP.UnderflowEvents,
              MP.UnderflowCategory >= 0
                  ? memCategoryName(
                        static_cast<MemCategory>(MP.UnderflowCategory))
                  : "?");
  }

  for (const auto &[Name, Value] : Build.Stats.all())
    appendf(Out, ";   %-32s %llu\n", Name.c_str(),
            (unsigned long long)Value);
  // A stable content hash of the linked executable: CI builds twice with
  // --incremental and asserts the two lines match.
  appendf(Out, "; exe xxh64 %016llx\n",
          (unsigned long long)hashExecutable(Build.Exe));
  return Out;
}

std::string scmo::renderStatsJson(const BuildResult &Build) {
  std::string Out;
  constexpr unsigned NumCats = MemoryProfile::NumCats;
  Out += "{";
  appendf(Out, "\"source_lines\":%llu,",
          (unsigned long long)Build.SourceLines);
  appendf(Out, "\"routines\":%zu,", Build.Exe.Routines.size());
  appendf(Out, "\"instrs\":%zu,", Build.Exe.Code.size());
  appendf(Out, "\"hlo_peak_bytes\":%llu,",
          (unsigned long long)Build.HloPeakBytes);
  appendf(Out, "\"total_peak_bytes\":%llu,",
          (unsigned long long)Build.TotalPeakBytes);
  // Documented key order: compactions, offloads, cache_hits, contentions,
  // lock_wait_nanos. Consumers (CI, bench harnesses) parse
  // positionally as well as by name; append new keys at the end only.
  appendf(Out,
          "\"loader\":{\"compactions\":%llu,\"offloads\":%llu,"
          "\"cache_hits\":%llu,\"contentions\":%llu,"
          "\"lock_wait_nanos\":%llu},",
          (unsigned long long)Build.Loader.Compactions,
          (unsigned long long)Build.Loader.Offloads,
          (unsigned long long)Build.Loader.CacheHits,
          (unsigned long long)Build.Loader.Contentions,
          (unsigned long long)Build.Loader.LockWaitNanos);
  appendf(Out, "\"naim_io\":{\"elided_stores\":%llu,\"stored_bytes\":%llu},",
          (unsigned long long)Build.Loader.SpillElisions,
          (unsigned long long)Build.Loader.CompressedBytes);
  Out += "\"stages\":[";
  for (size_t I = 0; I != Build.Stages.size(); ++I) {
    const StageMetrics &M = Build.Stages[I];
    if (I)
      Out += ",";
    appendf(Out,
            "{\"name\":\"%s\",\"seconds\":%.6f,\"cpu_s\":%.6f,"
            "\"live_bytes_after\":%llu,\"skipped\":%s}",
            M.Name.c_str(), M.Seconds, M.CpuSeconds,
            (unsigned long long)M.LiveBytesAfter,
            M.Skipped ? "true" : "false");
  }
  Out += "],";
  const MemoryProfile &MP = Build.Memory;
  Out += "\"memory_profile\":{\"stages\":[";
  for (unsigned S = 0; S != MP.numStages(); ++S) {
    if (S)
      Out += ",";
    appendf(Out, "{\"name\":\"%s\",\"cells\":[",
            MP.StageNames[S].c_str());
    bool FirstCell = true;
    for (unsigned C = 0; C != NumCats; ++C) {
      const MemoryProfile::Cell &Cell =
          MP.cell(S, static_cast<MemCategory>(C));
      if (!cellActive(Cell))
        continue;
      if (!FirstCell)
        Out += ",";
      FirstCell = false;
      appendf(Out,
              "{\"category\":\"%s\",\"allocs\":%llu,\"alloc_bytes\":%llu,"
              "\"release_bytes\":%llu,\"peak_live_bytes\":%llu,"
              "\"waste_bytes\":%llu}",
              memCategoryName(static_cast<MemCategory>(C)),
              (unsigned long long)Cell.Allocs,
              (unsigned long long)Cell.AllocBytes,
              (unsigned long long)Cell.ReleaseBytes,
              (unsigned long long)Cell.PeakLiveBytes,
              (unsigned long long)Cell.WasteBytes);
    }
    Out += "]}";
  }
  Out += "],\"arena_waste\":{";
  for (unsigned C = 0; C != NumCats; ++C) {
    if (C)
      Out += ",";
    appendf(Out, "\"%s\":%llu",
            memCategoryName(static_cast<MemCategory>(C)),
            (unsigned long long)MP.CategoryWaste[C]);
  }
  appendf(Out, "},\"underflow_events\":%llu,\"underflow_category\":%d},",
          (unsigned long long)MP.UnderflowEvents, MP.UnderflowCategory);
  Out += "\"statistics\":{";
  bool FirstStat = true;
  for (const auto &[Name, Value] : Build.Stats.all()) {
    if (!FirstStat)
      Out += ",";
    FirstStat = false;
    appendf(Out, "\"%s\":%llu", Name.c_str(), (unsigned long long)Value);
  }
  Out += "},";
  appendf(Out, "\"exe_xxh64\":\"%016llx\"",
          (unsigned long long)hashExecutable(Build.Exe));
  Out += "}\n";
  return Out;
}
