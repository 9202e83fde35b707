//===-- core/Repair.cpp - Staged repair of stale strategies ---------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "core/Repair.h"
#include "core/ChainAllocator.h"
#include "core/CostModel.h"
#include "job/Job.h"
#include "resource/DataPolicy.h"
#include "resource/Grid.h"
#include "resource/SlotIndex.h"
#include "support/Check.h"

#include <algorithm>

using namespace cws;

const char *cws::repairStageName(RepairStage S) {
  switch (S) {
  case RepairStage::Shift:
    return "shift";
  case RepairStage::Dp:
    return "dp";
  case RepairStage::Rebuild:
    return "rebuild";
  case RepairStage::Failed:
    return "failed";
  }
  CWS_UNREACHABLE("unknown repair stage");
}

namespace {

/// The distribution's placements as the raw slots the resource layer
/// scans.
std::vector<PlannedSlot> plannedSlots(const Distribution &D) {
  std::vector<PlannedSlot> Slots;
  Slots.reserve(D.placements().size());
  for (const Placement &P : D.placements())
    Slots.push_back({P.NodeId, P.Start, P.End});
  return Slots;
}

} // namespace

std::optional<VariantRepair>
cws::repairVariantByShift(const Job &Scheduled, const ScheduleVariant &V,
                          const RepairInputs &In) {
  if (!V.feasible())
    return std::nullopt;
  const Distribution &D = V.Result.Dist;
  std::vector<BrokenSlot> Broken =
      collectBrokenSlots(In.Env, plannedSlots(D), In.Owner);
  // One broken reservation is the stage-1 contract: with several, a
  // per-slot shift can violate the transfer gaps between them, which is
  // exactly what the stage-2 DP re-run handles.
  if (Broken.size() != 1)
    return std::nullopt;
  const Placement &P = D.placements()[Broken[0].SlotIdx];

  // Moving P later keeps every predecessor constraint (the move is
  // forward-only on the same node) but shrinks its gap to each placed
  // successor, which must keep room for the data transfer. A fresh
  // policy prices the gap conservatively: the replica memory of the
  // original build is gone, so replication transfers price at
  // first-delivery cost (>= whatever the build assumed).
  DataPolicy Policy(strategyDataPolicy(In.Config.Kind), In.Net,
                    In.Config.DataConfig);
  Tick LatestEnd = Scheduled.deadline();
  for (size_t EdgeIdx : Scheduled.outEdges(P.TaskId)) {
    const DataEdge &E = Scheduled.edge(EdgeIdx);
    const Placement *Succ = D.find(E.Dst);
    if (!Succ)
      continue;
    Tick Gap =
        Policy.previewTicks(P.TaskId, E.BaseTransfer, P.NodeId, Succ->NodeId);
    LatestEnd = std::min(LatestEnd, Succ->Start - Gap);
  }
  if (P.End > LatestEnd)
    return std::nullopt;

  // Minimal forward shift of the one placement: its earliest fit on the
  // node, where blockers are both foreign busy intervals and the sibling
  // placements sharing the node (the plan is not reserved yet, so the
  // grid cannot rule those out).
  Distribution Siblings = D;
  Siblings.remove(P.TaskId);
  Tick Delta = OccupancyView{In.Env, Siblings, In.Owner}.earliestFit(
                   P.NodeId, P.Start, P.End - P.Start) -
               P.Start;
  // Delta == 0 would mean the placement was never broken; the caller
  // only repairs stale variants, so a zero shift is a scan/repair
  // disagreement worth failing loudly on.
  if (P.End + Delta > LatestEnd || Delta == 0)
    return std::nullopt;

  Distribution Fixed;
  for (const Placement &Q : D.placements()) {
    if (Q.TaskId != P.TaskId) {
      Fixed.add(Q);
      continue;
    }
    Placement Moved = Q;
    Moved.Start += Delta;
    Moved.End += Delta;
    Fixed.add(Moved);
  }
  if (Fixed.makespan() > Scheduled.deadline() ||
      !Fixed.fitsGrid(In.Env, In.Owner))
    return std::nullopt;

  VariantRepair R;
  R.Repaired = V;
  R.Repaired.Result.Dist = std::move(Fixed);
  R.Stage = RepairStage::Shift;
  R.ShiftDelta = Delta;
  R.PlacementsPinned = D.placements().size() - 1;
  return R;
}

std::optional<VariantRepair>
cws::repairVariantByDp(const Job &Scheduled, const ScheduleVariant &V,
                       const RepairInputs &In) {
  if (!V.feasible())
    return std::nullopt;
  const Distribution &D = V.Result.Dist;
  const std::vector<CriticalWork> &Phases = V.Result.Phases;
  if (Phases.empty())
    return std::nullopt;
  std::vector<BrokenSlot> Broken =
      collectBrokenSlots(In.Env, plannedSlots(D), In.Owner);
  if (Broken.empty())
    return std::nullopt;

  // Collision repair during the original build can release a blocker
  // and re-extract its tasks into a later work, so the phases need not
  // partition the task set. Works run in order, so a task's *last*
  // containing phase is the one whose allocation produced its final
  // placement — assign each task there, and re-run a broken phase with
  // only the tasks it still owns (the re-extracted ones belong to, and
  // are pinned or re-run with, their later phase).
  std::vector<int> PhaseOfTask(Scheduled.taskCount(), -1);
  for (size_t Ph = 0; Ph < Phases.size(); ++Ph)
    for (unsigned T : Phases[Ph].TaskIds) {
      if (T >= PhaseOfTask.size())
        return std::nullopt;
      PhaseOfTask[T] = static_cast<int>(Ph);
    }

  std::vector<bool> PhaseBroken(Phases.size(), false);
  for (const BrokenSlot &B : Broken) {
    unsigned T = D.placements()[B.SlotIdx].TaskId;
    if (T >= PhaseOfTask.size() || PhaseOfTask[T] < 0)
      return std::nullopt;
    PhaseBroken[static_cast<size_t>(PhaseOfTask[T])] = true;
  }
  size_t BrokenPhases =
      static_cast<size_t>(std::count(PhaseBroken.begin(), PhaseBroken.end(), true));
  // All works broken means nothing survives to pin — that is a rebuild,
  // not a repair.
  if (BrokenPhases == Phases.size())
    return std::nullopt;

  // Every placed task must map to a phase, or the pin/re-run split
  // below cannot reason about it.
  for (const Placement &Q : D.placements())
    if (Q.TaskId >= PhaseOfTask.size() || PhaseOfTask[Q.TaskId] < 0)
      return std::nullopt;

  // The variant's original allocation context: the build planned it
  // under the same configuration.
  SchedulerConfig SC =
      variantSchedulerConfig(In.Config, In.Env, V.LevelPerf, V.Bias);
  if (SC.Alloc.CandidateNodes.empty())
    return std::nullopt;

  // One repair attempt: pin every placement of a kept work in the
  // distribution, then re-run the chain DP for the works in \p Rerun so
  // it routes the re-planned chains around the pins.
  auto Attempt =
      [&](const std::vector<bool> &Rerun) -> std::optional<VariantRepair> {
    Distribution Fixed;
    uint64_t Pinned = 0;
    for (const Placement &Q : D.placements()) {
      if (Rerun[static_cast<size_t>(PhaseOfTask[Q.TaskId])])
        continue;
      if (!In.Env.node(Q.NodeId).timeline().isFreeFor(Q.Start, Q.End,
                                                      In.Owner))
        return std::nullopt;
      Fixed.add(Q);
      ++Pinned;
    }

    DataPolicy Policy(SC.DataKind, In.Net, SC.DataConfig);
    CostModel Cost(In.Env, SC.Costs);
    ChainAllocator Allocator(Scheduled, In.Env, Policy, Cost, SC.Alloc);
    Tick Release = std::max(In.Now, Scheduled.release());

    ScheduleResult Out;
    Out.Collisions = V.Result.Collisions;
    Out.Phases = Phases;
    uint64_t RerunCount = 0;
    for (size_t Ph = 0; Ph < Phases.size(); ++Ph) {
      if (!Rerun[Ph])
        continue;
      // Only the tasks this phase still owns: a re-extracted task's
      // final placement came from its later phase, which pins or
      // re-runs it. The DP requires consecutive chain tasks to share an
      // edge, so the owned tasks re-run as maximal contiguous segments
      // of the original chain; across the gaps the placement of the
      // task owned elsewhere carries the precedence
      // (placedInboundTicks sees it in the distribution).
      const std::vector<unsigned> &Chain = Phases[Ph].TaskIds;
      bool ReranAny = false;
      for (size_t I = 0; I < Chain.size();) {
        if (PhaseOfTask[Chain[I]] != static_cast<int>(Ph)) {
          ++I;
          continue;
        }
        size_t E = I;
        while (E < Chain.size() &&
               PhaseOfTask[Chain[E]] == static_cast<int>(Ph))
          ++E;
        CriticalWork Segment = Phases[Ph];
        Segment.TaskIds.assign(Chain.begin() + I, Chain.begin() + E);
        if (!Allocator.allocate(Segment, Fixed, Release,
                                Scheduled.deadline(), In.Owner,
                                Out.Collisions))
          return std::nullopt;
        ReranAny = true;
        I = E;
      }
      if (ReranAny)
        ++RerunCount;
    }
    if (!Fixed.covers(Scheduled) || Fixed.makespan() > Scheduled.deadline() ||
        !Fixed.fitsGrid(In.Env, In.Owner))
      return std::nullopt;

    Out.Dist = std::move(Fixed);
    Out.Feasible = true;
    VariantRepair R;
    R.Repaired = {V.Level, V.LevelPerf, V.Bias, std::move(Out)};
    R.Stage = RepairStage::Dp;
    R.WorksRerun = RerunCount;
    R.PlacementsPinned = Pinned;
    return R;
  };

  return Attempt(PhaseBroken);
}
