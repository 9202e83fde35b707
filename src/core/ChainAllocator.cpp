//===-- core/ChainAllocator.cpp - DP allocation of one chain --------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "core/ChainAllocator.h"
#include "job/Job.h"
#include "obs/Metrics.h"
#include "resource/Grid.h"
#include "support/Check.h"

#include <algorithm>
#include <limits>

using namespace cws;

namespace {
/// DP-internal load indicators; the spans around allocate() live in the
/// scheduler, these count the work inside one chain placement. Label
/// work reaches them once per forward DP pass, not per label: their
/// cacheline is shared by every build lane.
struct AllocatorMetrics {
  obs::Counter &Labels = obs::Registry::global().counter(
      "cws_chain_labels_total", "Pareto labels inserted by the chain DP");
  obs::Counter &Evictions = obs::Registry::global().counter(
      "cws_chain_front_evictions_total",
      "labels evicted when a Pareto front exceeded its size cap");
  obs::Counter &Reruns = obs::Registry::global().counter(
      "cws_chain_dp_reruns_total",
      "DP re-runs forced by non-adjacent intra-chain precedence");
  static AllocatorMetrics &get() {
    static AllocatorMetrics M;
    return M;
  }
};
} // namespace

const char *cws::optimizationBiasName(OptimizationBias Bias) {
  switch (Bias) {
  case OptimizationBias::Cost:
    return "cost";
  case OptimizationBias::Time:
    return "time";
  }
  CWS_UNREACHABLE("unknown optimization bias");
}

ChainAllocator::ChainAllocator(const Job &J, const Grid &Env,
                               DataPolicy &Policy, const CostModel &Cost,
                               const AllocatorPolicy &Params)
    : J(J), G(Env), Policy(Policy), Cost(Cost), Params(Params) {
  CWS_CHECK(!Params.CandidateNodes.empty(),
            "allocation needs at least one candidate node");
  CWS_CHECK(Params.MaxFrontSize >= 2, "front size cap too small");
}

Tick ChainAllocator::externalReady(unsigned TaskId, unsigned NodeId,
                                   const Distribution &Dist,
                                   Tick Release) const {
  Tick Ready = Release;
  for (size_t EdgeIdx : J.inEdges(TaskId)) {
    const DataEdge &E = J.edge(EdgeIdx);
    const Placement *Src = Dist.find(E.Src);
    if (!Src)
      continue; // Unplaced predecessors belong to later phases.
    Tick Tr = Policy.previewTicks(E.Src, E.BaseTransfer, Src->NodeId, NodeId);
    Ready = std::max(Ready, Src->End + Tr);
  }
  return Ready;
}

Tick ChainAllocator::latestFinish(unsigned TaskId, unsigned NodeId,
                                  const Distribution &Dist,
                                  Tick Deadline) const {
  Tick Latest = Deadline;
  for (size_t EdgeIdx : J.outEdges(TaskId)) {
    const DataEdge &E = J.edge(EdgeIdx);
    const Placement *Dst = Dist.find(E.Dst);
    if (!Dst)
      continue;
    Tick Tr = Policy.previewTicks(TaskId, E.BaseTransfer, NodeId, Dst->NodeId);
    Latest = std::min(Latest, Dst->Start - Tr);
  }
  return Latest;
}

Tick ChainAllocator::placedInboundTicks(unsigned TaskId, unsigned NodeId,
                                        const Distribution &Dist,
                                        unsigned SkipPred) const {
  Tick Sum = 0;
  for (size_t EdgeIdx : J.inEdges(TaskId)) {
    const DataEdge &E = J.edge(EdgeIdx);
    if (E.Src == SkipPred)
      continue;
    const Placement *Src = Dist.find(E.Src);
    if (!Src)
      continue;
    Sum += Policy.billedTicks(E.Src, E.BaseTransfer, Src->NodeId, NodeId);
  }
  return Sum;
}

void ChainAllocator::insertLabel(LabelFront &Front, Label L) {
  ParetoInsertOutcome Outcome = paretoInsert(Front, L, Params.MaxFrontSize);
  KeptLabels += Outcome.Inserted;
  CapEvictions += Outcome.EvictedForCap;
}

namespace {

/// Maximum base transfer over all edges Src -> Dst (parallel edges
/// overlap, so the longest one gates readiness).
Tick chainEdgeBase(const Job &J, unsigned Src, unsigned Dst) {
  Tick Base = -1;
  for (size_t EdgeIdx : J.inEdges(Dst)) {
    const DataEdge &E = J.edge(EdgeIdx);
    if (E.Src == Src)
      Base = std::max(Base, E.BaseTransfer);
  }
  CWS_CHECK(Base >= 0, "chain neighbours are not connected by an edge");
  return Base;
}

} // namespace

bool ChainAllocator::allocate(const CriticalWork &Work, Distribution &Dist,
                              Tick Release, Tick Deadline, OwnerId Owner,
                              std::vector<CollisionRecord> &Collisions) {
  const std::vector<unsigned> &Chain = Work.TaskIds;
  CWS_CHECK(!Chain.empty(), "cannot allocate an empty critical work");
  const std::vector<unsigned> &Cand = Params.CandidateNodes;
  const size_t K = Chain.size();
  const size_t N = Cand.size();
  const OccupancyView View{G, Dist, Owner};

  // Per-node invariants of one chain position (positions >= 1): they
  // depend on (position, node) only, because the distribution and the
  // replica memory change only in finalize. Gaps[GapBegin, GapEnd) is
  // the node's slot list over [External, latest finish) for Dur.
  struct NodeStep {
    Tick Dur;
    Tick External;
    Tick Inbound;
    double NodeCost;
    size_t GapBegin;
    size_t GapEnd;
  };
  std::vector<NodeStep> Steps(N);
  std::vector<FreeGap> Gaps;

  // Readiness bumps discovered by the post-DP precedence verification of
  // non-adjacent intra-chain edges (see below).
  std::vector<Tick> ExtraReady(K, 0);

  for (int Attempt = 0; Attempt < 4; ++Attempt) {
    // --- Forward DP over (chain position, candidate node). ---
    const uint64_t Labels0 = KeptLabels;
    const uint64_t Evictions0 = CapEvictions;
    std::vector<std::vector<LabelFront>> Fronts(K,
                                                std::vector<LabelFront>(N));

    for (size_t NodeIdx = 0; NodeIdx < N; ++NodeIdx) {
      unsigned NodeId = Cand[NodeIdx];
      const ProcessorNode &Node = G.node(NodeId);
      unsigned TaskId = Chain[0];
      Tick Dur = Node.execTicks(J.task(TaskId).RefTicks);
      Tick Ready = std::max(externalReady(TaskId, NodeId, Dist, Release),
                            ExtraReady[0]);
      Tick Start = View.earliestFit(NodeId, Ready, Dur);
      ++FitQueries;
      Tick Finish = Start + Dur;
      if (Finish > latestFinish(TaskId, NodeId, Dist, Deadline))
        continue;
      Tick Inbound = placedInboundTicks(TaskId, NodeId, Dist,
                                        /*SkipPred=*/J.taskCount());
      double C = Cost.nodeCost(NodeId, Dur) + Cost.transferCost(Inbound);
      insertLabel(Fronts[0][NodeIdx], {Finish, C, Start, -1, -1});
    }

    for (size_t Pos = 1; Pos < K; ++Pos) {
      const std::vector<LabelFront> &PrevFronts = Fronts[Pos - 1];
      if (std::all_of(PrevFronts.begin(), PrevFronts.end(),
                      [](const LabelFront &F) { return F.empty(); }))
        break; // Nothing reaches this position; the chain is unplaceable.
      unsigned TaskId = Chain[Pos];
      unsigned PrevTask = Chain[Pos - 1];
      Tick EdgeBase = chainEdgeBase(J, PrevTask, TaskId);
      Gaps.clear();
      for (size_t NodeIdx = 0; NodeIdx < N; ++NodeIdx) {
        unsigned NodeId = Cand[NodeIdx];
        NodeStep &Step = Steps[NodeIdx];
        Step.Dur = G.node(NodeId).execTicks(J.task(TaskId).RefTicks);
        Step.External = std::max(externalReady(TaskId, NodeId, Dist, Release),
                                 ExtraReady[Pos]);
        Step.GapBegin = Gaps.size();
        View.freeGaps(NodeId, Step.External,
                      latestFinish(TaskId, NodeId, Dist, Deadline), Step.Dur,
                      Gaps);
        Step.GapEnd = Gaps.size();
        if (Step.GapBegin == Step.GapEnd)
          continue; // Nothing fits by the latest finish.
        Step.Inbound =
            placedInboundTicks(TaskId, NodeId, Dist, /*SkipPred=*/PrevTask);
        Step.NodeCost = Cost.nodeCost(NodeId, Step.Dur);
      }

      for (size_t PrevIdx = 0; PrevIdx < N; ++PrevIdx) {
        const LabelFront &PrevFront = PrevFronts[PrevIdx];
        if (PrevFront.empty())
          continue;
        unsigned PrevNode = Cand[PrevIdx];
        for (size_t NodeIdx = 0; NodeIdx < N; ++NodeIdx) {
          const NodeStep &Step = Steps[NodeIdx];
          if (Step.GapBegin == Step.GapEnd)
            continue;
          unsigned NodeId = Cand[NodeIdx];
          Tick ChainTr =
              Policy.previewTicks(PrevTask, EdgeBase, PrevNode, NodeId);
          Tick ChainBill =
              Policy.billedTicks(PrevTask, EdgeBase, PrevNode, NodeId);
          double StepCost = Step.NodeCost +
                            Cost.transferCost(ChainBill + Step.Inbound) +
                            (NodeId != PrevNode ? Params.NodeSwitchPenalty
                                                : 0.0);
          // The front ascends in Finish, so Ready ascends and the fit
          // cursor only moves forward; once it runs off the slot list no
          // later label fits by the latest finish either.
          size_t Gap = Step.GapBegin;
          for (size_t LabelIdx = 0; LabelIdx < PrevFront.size(); ++LabelIdx) {
            const Label &Prev = PrevFront[LabelIdx];
            Tick Ready = std::max(Step.External, Prev.Finish + ChainTr);
            ++FitQueries;
            while (Gap < Step.GapEnd && Gaps[Gap].End < Ready + Step.Dur)
              ++Gap;
            if (Gap == Step.GapEnd)
              break;
            Tick Start = std::max(Gaps[Gap].Begin, Ready);
            insertLabel(Fronts[Pos][NodeIdx],
                        {Start + Step.Dur, Prev.Cost + StepCost, Start,
                         static_cast<int32_t>(PrevIdx),
                         static_cast<int32_t>(LabelIdx)});
          }
        }
      }
    }

    AllocatorMetrics &M = AllocatorMetrics::get();
    M.Labels.add(KeptLabels - Labels0);
    M.Evictions.add(CapEvictions - Evictions0);

    // --- Select the best terminal label per the optimization bias. ---
    int32_t BestNode = -1;
    int32_t BestLabel = -1;
    Tick BestFinish = std::numeric_limits<Tick>::max();
    double BestCost = std::numeric_limits<double>::max();
    for (size_t NodeIdx = 0; NodeIdx < N; ++NodeIdx) {
      const auto &Front = Fronts[K - 1][NodeIdx];
      for (size_t LabelIdx = 0; LabelIdx < Front.size(); ++LabelIdx) {
        const Label &L = Front[LabelIdx];
        bool Better;
        if (Params.Bias == OptimizationBias::Cost)
          Better = L.Cost < BestCost - 1e-9 ||
                   (L.Cost < BestCost + 1e-9 && L.Finish < BestFinish);
        else
          Better = L.Finish < BestFinish ||
                   (L.Finish == BestFinish && L.Cost < BestCost - 1e-9);
        if (Better) {
          BestNode = static_cast<int32_t>(NodeIdx);
          BestLabel = static_cast<int32_t>(LabelIdx);
          BestFinish = L.Finish;
          BestCost = L.Cost;
        }
      }
    }
    if (BestNode < 0)
      return false; // No feasible completion within the windows.

    // --- Reconstruct the chosen path. ---
    struct Chosen {
      unsigned NodeId;
      Tick Start;
      Tick Finish;
    };
    std::vector<Chosen> Path(K);
    {
      int32_t NodeIdx = BestNode;
      int32_t LabelIdx = BestLabel;
      for (size_t Pos = K; Pos-- > 0;) {
        const Label &L = Fronts[Pos][static_cast<size_t>(NodeIdx)]
                               [static_cast<size_t>(LabelIdx)];
        Path[Pos] = {Cand[static_cast<size_t>(NodeIdx)], L.Start, L.Finish};
        NodeIdx = L.PrevNode;
        LabelIdx = L.PrevLabel;
      }
    }

    // --- Verify non-adjacent intra-chain precedence. The DP links only
    // consecutive chain tasks; a direct edge Chain[i] -> Chain[m] with
    // i < m - 1 can still be violated when its transfer outweighs the
    // via-chain delay. Bump the readiness of the violated position and
    // re-run the DP. ---
    bool Violated = false;
    std::vector<size_t> PosOf(J.taskCount(), SIZE_MAX);
    for (size_t Pos = 0; Pos < K; ++Pos)
      PosOf[Chain[Pos]] = Pos;
    for (size_t Pos = 1; Pos < K; ++Pos) {
      unsigned TaskId = Chain[Pos];
      for (size_t EdgeIdx : J.inEdges(TaskId)) {
        const DataEdge &E = J.edge(EdgeIdx);
        size_t SrcPos = PosOf[E.Src];
        if (SrcPos == SIZE_MAX || SrcPos + 1 >= Pos + 1)
          continue; // Not an earlier chain task, or the adjacent one.
        if (SrcPos + 1 == Pos)
          continue;
        Tick Tr = Policy.previewTicks(E.Src, E.BaseTransfer,
                                      Path[SrcPos].NodeId, Path[Pos].NodeId);
        Tick Needed = Path[SrcPos].Finish + Tr;
        if (Path[Pos].Start < Needed) {
          ExtraReady[Pos] = std::max(ExtraReady[Pos], Needed);
          Violated = true;
        }
      }
    }
    if (Violated) {
      AllocatorMetrics::get().Reruns.add();
      ++DpReruns;
      continue;
    }

    // --- Finalize: detect collisions, place, charge, record replicas.
    for (size_t Pos = 0; Pos < K; ++Pos) {
      unsigned TaskId = Chain[Pos];
      unsigned NodeId = Path[Pos].NodeId;
      Tick Dur = Path[Pos].Finish - Path[Pos].Start;

      // Recompute the unconstrained ready time to detect contention.
      Tick Ready = std::max(externalReady(TaskId, NodeId, Dist, Release),
                            ExtraReady[Pos]);
      Tick ChainTr = 0;
      Tick ChainBill = 0;
      if (Pos > 0) {
        Tick EdgeBase = chainEdgeBase(J, Chain[Pos - 1], TaskId);
        ChainTr = Policy.previewTicks(Chain[Pos - 1], EdgeBase,
                                      Path[Pos - 1].NodeId, NodeId);
        ChainBill = Policy.billedTicks(Chain[Pos - 1], EdgeBase,
                                       Path[Pos - 1].NodeId, NodeId);
        Ready = std::max(Ready, Path[Pos - 1].Finish + ChainTr);
      }
      if (Path[Pos].Start > Ready) {
        // The preferred slot was occupied: a collision, resolved by
        // shifting the task later on the same node.
        Collisions.push_back({TaskId, NodeId,
                              View.blocker(NodeId, Ready, Ready + Dur),
                              Ready, Path[Pos].Start,
                              CollisionResolution::Shifted});
      } else if (Params.Bias == OptimizationBias::Cost) {
        // Check whether a strictly cheaper node was contended: then the
        // collision was resolved by moving the task here.
        for (unsigned Other : Cand) {
          if (Other == NodeId)
            continue;
          const ProcessorNode &Cheap = G.node(Other);
          Tick CheapDur = Cheap.execTicks(J.task(TaskId).RefTicks);
          if (Cost.nodeCost(Other, CheapDur) + 1e-9 >=
              Cost.nodeCost(NodeId, Dur))
            continue;
          Tick CheapReady = externalReady(TaskId, Other, Dist, Release);
          if (OwnerId Blocking =
                  View.blocker(Other, CheapReady, CheapReady + CheapDur)) {
            Collisions.push_back({TaskId, Other, Blocking, CheapReady,
                                  Path[Pos].Start,
                                  CollisionResolution::Moved});
            break;
          }
        }
      }

      Tick Inbound = placedInboundTicks(
          TaskId, NodeId, Dist,
          /*SkipPred=*/Pos > 0 ? Chain[Pos - 1] : J.taskCount());
      // The node-switch penalty shapes the DP toward coarse placements
      // but is not a real quota charge, so it is excluded here.
      double PlaceCost =
          Cost.nodeCost(NodeId, Dur) + Cost.transferCost(ChainBill + Inbound);

      CWS_CHECK(!View.blocker(NodeId, Path[Pos].Start, Path[Pos].Finish),
                "DP produced an overlapping reservation");
      Dist.add({TaskId, NodeId, Path[Pos].Start, Path[Pos].Finish, PlaceCost});

      // Record data movements in the policy's replica memory.
      for (size_t EdgeIdx : J.inEdges(TaskId)) {
        const DataEdge &E = J.edge(EdgeIdx);
        if (const Placement *Src = Dist.find(E.Src); Src && E.Src != TaskId)
          Policy.transferTicks(E.Src, E.BaseTransfer, Src->NodeId, NodeId);
      }
      for (size_t EdgeIdx : J.outEdges(TaskId)) {
        const DataEdge &E = J.edge(EdgeIdx);
        if (const Placement *Dst = Dist.find(E.Dst))
          Policy.transferTicks(TaskId, E.BaseTransfer, NodeId, Dst->NodeId);
      }
    }
    return true;
  }
  return false; // Verification kept failing; treat the chain as unplaceable.
}
