//===- support/ThreadPool.h -------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A work-stealing thread pool for the parallel backend. The paper's pipeline
/// (and GCC's WHOPR after it) is serial interprocedural optimization followed
/// by embarrassingly parallel per-routine backend work; this pool fans that
/// per-routine work out across hardware threads.
///
/// Design:
///  - One deque of contiguous index ranges per participant (the calling
///    thread participates, so a pool of N runs N-1 dedicated workers).
///  - Owners take single indices from the front of their own deque; thieves
///    take the *upper half* of a range from the back of a victim's deque, so
///    stolen work is large-grained and locality inside a range is preserved.
///    Ranges stay per-participant on purpose: one shared fetch_add claim
///    counter matched them on cmo-mem4 but cost +5.9% build CPU on
///    sel5-roomy, as neighbouring task slots were written by other threads.
///  - Job hand-off: parallelFor bumps Generation as it publishes JobFn under
///    JobM; a worker joins each generation at most once, then blocks on
///    WorkCv, so drained workers take no part in a job's tail. A job is done
///    once the caller's participate has returned (every range is claimed)
///    and ActiveWorkers is 0 (every claimer has finished); the worker that
///    brings it to 0 notifies DoneCv. A worker that wakes after the caller
///    returned finds JobFn null and sleeps again; one that wakes into job
///    K+1 reads K+1's JobFn under JobM, so it never runs a stale function.
///  - parallelFor(N, Fn) blocks until every index in [0, N) has executed.
///    Tasks must not throw and must not call back into the pool.
///
/// Determinism contract: the pool makes no promise about *execution order*,
/// only about completion. Callers that need deterministic output (everything
/// in this compiler, per paper Section 6.2) must write results into
/// pre-sized slots indexed by task id and keep any shared accumulation
/// commutative or per-task.
///
/// A one-participant pool spawns no workers: parallelFor is an in-order
/// inline loop, byte-for-byte the serial behavior (the `--jobs=1` path).
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_SUPPORT_THREADPOOL_H
#define SCMO_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace scmo {

class ThreadPool {
public:
  /// Creates a pool with \p Threads total participants (including the
  /// thread that calls parallelFor). 0 means hardwareThreads().
  explicit ThreadPool(unsigned Threads);

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  ~ThreadPool();

  /// Effective parallelism (always >= 1; includes the calling thread).
  unsigned threadCount() const { return NumParticipants; }

  /// Runs Fn(I) for every I in [0, NumTasks), distributing indices over the
  /// participants, and returns once all calls have completed. With a
  /// single-participant pool this is exactly `for (I = 0; I != N; ++I)`.
  /// Not reentrant: tasks must not call parallelFor on the same pool.
  void parallelFor(size_t NumTasks, const std::function<void(size_t)> &Fn);

  /// CPUs in this thread's affinity mask (falling back to
  /// std::thread::hardware_concurrency), clamped to at least 1.
  static unsigned hardwareThreads();

private:
  /// A contiguous slice of the iteration space.
  struct Range {
    size_t Begin;
    size_t End;
  };

  /// One participant's deque. Mutex-guarded: the owner pops single indices
  /// from the front, thieves split ranges off the back. Backend tasks
  /// (verification, lowering) are far heavier than a lock acquisition, so a
  /// lock-free Chase-Lev deque would buy nothing here.
  struct Shard {
    std::mutex M;
    std::deque<Range> Ranges;
  };

  void workerLoop(unsigned Self);
  void participate(unsigned Self, const std::function<void(size_t)> &Fn);
  bool popOwn(unsigned Self, size_t &Index);
  bool stealInto(unsigned Self);

  unsigned NumParticipants = 1;
  std::vector<std::unique_ptr<Shard>> Shards;
  std::vector<std::thread> Workers;

  // Job hand-off state, all guarded by JobM.
  std::mutex JobM;
  std::condition_variable WorkCv;  ///< Wakes workers for a new job.
  std::condition_variable DoneCv;  ///< Wakes the caller when a job drains.
  const std::function<void(size_t)> *JobFn = nullptr;
  uint64_t Generation = 0; ///< Bumped each time a job is published.
  unsigned ActiveWorkers = 0;
  bool ShuttingDown = false;
};

} // namespace scmo

#endif // SCMO_SUPPORT_THREADPOOL_H
