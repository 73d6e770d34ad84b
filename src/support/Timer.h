//===- support/Timer.h ------------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall-clock and process-CPU timing for the compile-time measurements
/// behind Figures 5/6.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_SUPPORT_TIMER_H
#define SCMO_SUPPORT_TIMER_H

#include <chrono>
#include <ctime>

namespace scmo {

/// A simple wall-clock stopwatch.
class Timer {
public:
  Timer() : Start(Clock::now()) {}

  /// Restarts the stopwatch.
  void reset() { Start = Clock::now(); }

  /// Elapsed seconds since construction / last reset.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

  /// Elapsed milliseconds.
  double millis() const { return seconds() * 1000.0; }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

/// CPU seconds consumed so far by every thread of this process.
inline double processCpuSeconds() {
  timespec Ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return double(Ts.tv_sec) + double(Ts.tv_nsec) * 1e-9;
}

/// Accumulates time across start/stop intervals (per compiler phase).
class PhaseTimer {
public:
  void start() { T.reset(); Running = true; }

  void stop() {
    if (!Running)
      return;
    Total += T.seconds();
    Running = false;
  }

  double seconds() const { return Total + (Running ? T.seconds() : 0.0); }

private:
  Timer T;
  double Total = 0.0;
  bool Running = false;
};

} // namespace scmo

#endif // SCMO_SUPPORT_TIMER_H
