//===- support/Statistics.h -------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named counter registry for compiler diagnostics. The paper stresses
/// (Section 6.2) that "good compiler diagnostics on what the compiler is
/// optimizing are essential when deploying selectivity"; every HLO/LLO phase
/// reports what it did through these counters, and the driver can dump them.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_SUPPORT_STATISTICS_H
#define SCMO_SUPPORT_STATISTICS_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

namespace scmo {

/// Insertion-stable map of counter name -> value, owned by a session.
/// Lookups are heterogeneous (std::less<>), so counting under a string
/// literal builds no std::string once the counter exists.
class Statistics {
public:
  using CounterMap = std::map<std::string, uint64_t, std::less<>>;

  /// Adds \p Delta to counter \p Name (creating it at zero).
  void add(std::string_view Name, uint64_t Delta = 1) {
    auto It = Counters.find(Name);
    if (It == Counters.end())
      Counters.emplace(Name, Delta);
    else
      It->second += Delta;
  }

  /// Sets counter \p Name to \p Value.
  void set(std::string_view Name, uint64_t Value) {
    auto It = Counters.find(Name);
    if (It == Counters.end())
      Counters.emplace(Name, Value);
    else
      It->second = Value;
  }

  /// Current value of \p Name (0 if never touched).
  uint64_t get(std::string_view Name) const {
    auto It = Counters.find(Name);
    return It == Counters.end() ? 0 : It->second;
  }

  /// All counters, sorted by name (std::map keeps them deterministic).
  const CounterMap &all() const { return Counters; }

  /// Adds every counter of \p Other into this registry. Addition commutes,
  /// but callers folding per-task registries should still merge in a
  /// deterministic order (ascending routine/slot index) so that any
  /// future non-commutative accounting stays reproducible.
  void merge(const Statistics &Other) {
    for (const auto &KV : Other.Counters)
      add(KV.first, KV.second);
  }

  void clear() { Counters.clear(); }

private:
  CounterMap Counters;
};

} // namespace scmo

#endif // SCMO_SUPPORT_STATISTICS_H
