//===- driver/StatsRender.h -------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a BuildResult's statistics block — the scmoc --stats output — as
/// text or JSON. Lives in the driver library (not the tool) so tests can
/// pin the format: CI greps the text lines ("; exe xxh64 ..."), and the
/// JSON key order is a documented stable contract for downstream tooling.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_DRIVER_STATSRENDER_H
#define SCMO_DRIVER_STATSRENDER_H

#include "driver/CompilerSession.h"

#include <string>

namespace scmo {

/// The classic --stats block: summary lines, loader/NAIM I/O counters, the
/// per-stage table, the LLO counters and per-phase time split, the
/// per-stage/per-category allocation profile (with the
/// arena-waste column and the worst (stage, category) pairs), the
/// statistics registry, and the executable content hash.
std::string renderStatsText(const BuildResult &Build);

/// The same data as one JSON object with fixed key order:
/// source_lines, routines, instrs, hlo_peak_bytes, total_peak_bytes,
/// loader, naim_io, stages, memory_profile, statistics, exe_xxh64, llo.
/// Stage rows: name, seconds, cpu_s, live_bytes_after, skipped.
/// Within llo: routines_lowered, spills, regs, schedule_moves,
/// peak_routine_kib, phase_s (seconds per LloPhase, in phase order).
/// Within memory_profile: stages, arena_waste, underflow_events,
/// underflow_category. Cell keys: category, allocs, alloc_bytes,
/// release_bytes, peak_live_bytes, waste_bytes.
std::string renderStatsJson(const BuildResult &Build);

} // namespace scmo

#endif // SCMO_DRIVER_STATSRENDER_H
