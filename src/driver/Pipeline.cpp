//===- driver/Pipeline.cpp ------------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

using namespace scmo;

bool Pipeline::run(std::vector<StageMetrics> &Metrics) {
  for (PipelineStage *Stage : Stages) {
    StageMetrics M;
    M.Name = Stage->name();
    Timer T;
    double Cpu = processCpuSeconds();
    bool Skipped = false;
    bool Ok;
    {
      // Bracket the stage for the tracker's allocation profile: everything
      // charged while the stage runs — including from its worker threads —
      // lands in this stage's row.
      StageScope Scope(Tracker, Stage->name());
      Ok = Stage->run(Skipped);
    }
    M.Seconds = T.seconds();
    M.CpuSeconds = processCpuSeconds() - Cpu;
    M.Skipped = Skipped;
    if (Tracker)
      M.LiveBytesAfter = Tracker->totalLiveBytes();
    Metrics.push_back(std::move(M));
    if (!Ok)
      return false;
  }
  return true;
}
