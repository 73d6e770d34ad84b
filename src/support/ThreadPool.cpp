//===- support/ThreadPool.cpp ---------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <cassert>
#include <sched.h>

using namespace scmo;

unsigned ThreadPool::hardwareThreads() {
  // hardware_concurrency ignores the affinity mask (taskset, cgroup cpusets).
  cpu_set_t Mask;
  if (sched_getaffinity(0, sizeof(Mask), &Mask) == 0 && CPU_COUNT(&Mask) > 0)
    return static_cast<unsigned>(CPU_COUNT(&Mask));
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

ThreadPool::ThreadPool(unsigned Threads) {
  NumParticipants = Threads ? Threads : hardwareThreads();
  if (NumParticipants == 1)
    return; // Serial mode: no shards, no workers.
  Shards.reserve(NumParticipants);
  for (unsigned I = 0; I != NumParticipants; ++I)
    Shards.push_back(std::make_unique<Shard>());
  Workers.reserve(NumParticipants - 1);
  for (unsigned I = 1; I != NumParticipants; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  std::unique_lock<std::mutex> Lock(JobM);
  ShuttingDown = true;
  Lock.unlock();
  WorkCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

bool ThreadPool::popOwn(unsigned Self, size_t &Index) {
  Shard &S = *Shards[Self];
  std::lock_guard<std::mutex> Lock(S.M);
  if (S.Ranges.empty())
    return false;
  Range &Front = S.Ranges.front();
  Index = Front.Begin++;
  if (Front.Begin == Front.End)
    S.Ranges.pop_front();
  return true;
}

bool ThreadPool::stealInto(unsigned Self) {
  // Scan the other shards starting after our own; take the upper half of the
  // coldest (back) range of the first victim with work.
  for (unsigned Off = 1; Off != NumParticipants; ++Off) {
    unsigned Victim = (Self + Off) % NumParticipants;
    Shard &V = *Shards[Victim];
    Range Stolen{0, 0};
    {
      std::lock_guard<std::mutex> Lock(V.M);
      if (V.Ranges.empty())
        continue;
      Range &Back = V.Ranges.back();
      size_t Mid = Back.Begin + (Back.End - Back.Begin) / 2;
      if (Mid == Back.Begin) {
        // Single-index range: take it whole.
        Stolen = Back;
        V.Ranges.pop_back();
      } else {
        Stolen = {Mid, Back.End};
        Back.End = Mid;
      }
    }
    std::lock_guard<std::mutex> Lock(Shards[Self]->M);
    Shards[Self]->Ranges.push_back(Stolen);
    return true;
  }
  return false;
}

void ThreadPool::participate(unsigned Self,
                             const std::function<void(size_t)> &Fn) {
  for (;;) {
    size_t Index;
    while (popOwn(Self, Index))
      Fn(Index);
    if (!stealInto(Self))
      return; // Every deque is empty: nothing left to claim.
  }
}

void ThreadPool::workerLoop(unsigned Self) {
  uint64_t Seen = 0; // The last Generation this worker joined.
  std::unique_lock<std::mutex> Lock(JobM);
  for (;;) {
    WorkCv.wait(Lock, [&] {
      return ShuttingDown || (JobFn && Generation != Seen);
    });
    if (ShuttingDown)
      return;
    Seen = Generation;
    const std::function<void(size_t)> *Fn = JobFn;
    ++ActiveWorkers;
    Lock.unlock();
    participate(Self, *Fn);
    Lock.lock();
    if (--ActiveWorkers == 0)
      DoneCv.notify_one();
  }
}

void ThreadPool::parallelFor(size_t NumTasks,
                             const std::function<void(size_t)> &Fn) {
  if (NumParticipants == 1 || NumTasks <= 1) {
    // Serial: in order, on the calling thread.
    for (size_t I = 0; I != NumTasks; ++I)
      Fn(I);
    return;
  }

  // Seed each shard with a contiguous slice of the iteration space.
  size_t PerShard = NumTasks / NumParticipants;
  size_t Extra = NumTasks % NumParticipants;
  size_t Next = 0;
  for (unsigned P = 0; P != NumParticipants; ++P) {
    size_t Take = PerShard + (P < Extra ? 1 : 0);
    std::lock_guard<std::mutex> Lock(Shards[P]->M);
    assert(Shards[P]->Ranges.empty() && "pool reentered");
    if (Take)
      Shards[P]->Ranges.push_back({Next, Next + Take});
    Next += Take;
  }
  std::unique_lock<std::mutex> Lock(JobM);
  JobFn = &Fn;
  ++Generation;
  Lock.unlock();
  WorkCv.notify_all();
  participate(0, Fn);
  // Every range is claimed, but workers may still run claimed tasks (and hold
  // the Fn pointer): wait for them so Fn and its captures outlive every call.
  // Clearing JobFn under the same lock turns away workers that wake late.
  Lock.lock();
  DoneCv.wait(Lock, [this] { return ActiveWorkers == 0; });
  JobFn = nullptr;
}
