//===- driver/Pipeline.h ----------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The staged build pipeline. CompilerSession::build used to be one long
/// monolith; it is now a sequence of named stages, each an object that
/// declares what it reads and what it produces and implements one phase of
/// the paper's Figure 2 flow. The runner owns the cross-cutting concerns —
/// per-stage wall-clock and process-CPU timing, live-memory sampling, skip
/// accounting (the incremental cache turns whole stages off per unit), and
/// stop-on-failure — so the stages hold only compilation logic. The per-stage metrics land in
/// BuildResult::Stages and are printed by scmoc --stats.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_DRIVER_PIPELINE_H
#define SCMO_DRIVER_PIPELINE_H

#include "support/MemoryTracker.h"
#include "support/Timer.h"

#include <string>
#include <vector>

namespace scmo {

/// What one stage did, for --stats and the statistics registry.
struct StageMetrics {
  std::string Name;
  double Seconds = 0;
  /// Process CPU seconds across the stage: its own thread plus every pool
  /// worker, busy or not, so idle workers that burn CPU show up here.
  double CpuSeconds = 0;
  /// Live tracked bytes when the stage finished.
  uint64_t LiveBytesAfter = 0;
  /// True when the stage declared itself not applicable this build (e.g.
  /// HLO under --incremental with every unit cached). Distinct from a
  /// disabled stage, which never runs at all.
  bool Skipped = false;
};

/// One pipeline stage. Name/Inputs/Outputs are declarative metadata: the
/// runner prints them on failure and --stats uses them; the contract they
/// document is what makes the stage boundaries auditable.
class PipelineStage {
public:
  PipelineStage(const char *Name, const char *Inputs, const char *Outputs)
      : StageName(Name), StageInputs(Inputs), StageOutputs(Outputs) {}
  virtual ~PipelineStage() = default;

  const char *name() const { return StageName; }
  const char *inputs() const { return StageInputs; }
  const char *outputs() const { return StageOutputs; }

  /// Runs the stage. Return false to stop the pipeline (the stage must
  /// have recorded its error in the build result it closes over). Set
  /// \p Skipped true when the stage decided it had nothing to do.
  virtual bool run(bool &Skipped) = 0;

private:
  const char *StageName;
  const char *StageInputs;
  const char *StageOutputs;
};

/// Runs stages in order, timing each and sampling memory, stopping at the
/// first failure. Stages are borrowed pointers: the driver keeps them in a
/// BuildState object whose lifetime spans the run.
class Pipeline {
public:
  explicit Pipeline(MemoryTracker *Tracker) : Tracker(Tracker) {}

  Pipeline &add(PipelineStage &Stage) {
    Stages.push_back(&Stage);
    return *this;
  }

  /// Returns false if any stage failed; Metrics covers the stages that ran.
  bool run(std::vector<StageMetrics> &Metrics);

private:
  MemoryTracker *Tracker;
  std::vector<PipelineStage *> Stages;
};

} // namespace scmo

#endif // SCMO_DRIVER_PIPELINE_H
