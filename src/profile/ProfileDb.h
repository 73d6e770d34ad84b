//===- profile/ProfileDb.h --------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profile database: "when this specially instrumented program is run, a
/// profile database is generated (or added to, if data from an earlier run
/// already exists)" (paper Section 3). Profiles are keyed by routine display
/// name and guarded by a structural checksum; when the code base diverges
/// from the profiled code, the stale entries are detected and dropped
/// (Section 6.2). The database is the one piece of persistent state the
/// framework keeps outside object files (Section 6.1).
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_PROFILE_PROFILEDB_H
#define SCMO_PROFILE_PROFILEDB_H

#include "ir/Program.h"
#include "profile/Probes.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace scmo {

/// Counts recorded for one routine.
struct RoutineProfile {
  uint64_t Checksum = 0;
  std::vector<uint64_t> BlockCounts; ///< Per basic block entry count.
  std::vector<uint64_t> TakenCounts; ///< Per block: Br taken count (0 if no Br).

  /// Invocation count (entry block count).
  uint64_t entryCount() const {
    return BlockCounts.empty() ? 0 : BlockCounts[0];
  }
};

/// Correlation statistics for diagnostics.
struct CorrelationStats {
  uint64_t Matched = 0;
  uint64_t Missing = 0; ///< No entry in the database.
  uint64_t Stale = 0;   ///< Entry found but checksum mismatched.
};

/// Name-keyed profile store.
class ProfileDb {
public:
  /// Builds a database from an instrumented run: \p Counters is the runtime
  /// counter array indexed by probe id. Each routine's pre-instrumentation
  /// structural checksum must already be recorded in
  /// Program::routine(R).Checksum (the driver computes it right after the
  /// frontend, before probes are inserted).
  static ProfileDb fromRun(const Program &P, const ProbeTable &Probes,
                           const std::vector<uint64_t> &Counters);

  /// Adds \p Other's counts into this database (repeat training runs
  /// accumulate). Entries whose checksums disagree are replaced by the newer
  /// run.
  void merge(const ProfileDb &Other);

  /// Attaches counts to \p Body (which must be the *raw*, pre-optimization
  /// IL of \p R). On checksum match sets Block Freq/TakenFreq and
  /// HasProfile; otherwise leaves the body unprofiled. Updates \p Stats.
  bool correlate(const Program &P, RoutineId R, RoutineBody &Body,
                 CorrelationStats &Stats) const;

  /// Direct access for tests and selectivity queries.
  const RoutineProfile *lookup(const std::string &DisplayName) const;
  void insert(const std::string &DisplayName, RoutineProfile Profile);

  /// Total dynamic block count across the whole database (a scale measure).
  uint64_t totalCount() const;

  bool empty() const { return Map.empty(); }
  size_t size() const { return Map.size(); }

  /// Text serialization (the on-disk database format).
  std::string serialize() const;
  /// Parses \p Text into \p Out, replacing its contents. On malformed text
  /// returns false with \p Out untouched.
  static bool parse(const std::string &Text, ProfileDb &Out);

  /// XXH64 over every entry in map order (its length-prefixed name,
  /// checksum, block count, then each block's count and taken count): the
  /// profile epoch in incremental cache keys. Changes whenever serialize()'s
  /// output would, without formatting it.
  uint64_t fingerprint() const;

private:
  std::map<std::string, RoutineProfile> Map;
};

} // namespace scmo

#endif // SCMO_PROFILE_PROFILEDB_H
