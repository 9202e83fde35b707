//===-- core/ChainAllocator.h - DP allocation of one chain ------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic-programming allocator of the critical works method: given
/// one critical work (a chain of tasks), the current partial
/// distribution and the node timelines, it searches "the best
/// combination of available resources" by a DP over (chain position,
/// node) states keeping a Pareto front of (finish time, economic cost)
/// labels — minimizing cost subject to the job's fixed completion time,
/// or minimizing finish time under the Time bias.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_CORE_CHAINALLOCATOR_H
#define CWS_CORE_CHAINALLOCATOR_H

#include "core/Collision.h"
#include "core/CostModel.h"
#include "core/CriticalWork.h"
#include "core/Distribution.h"
#include "core/ParetoFront.h"
#include "resource/DataPolicy.h"
#include "sim/Time.h"
#include "support/SmallVector.h"

#include <cstddef>
#include <vector>

namespace cws {

class Grid;
class Job;

/// What the DP optimizes, subject to the deadline either way.
enum class OptimizationBias {
  /// Minimize economic cost; finish time breaks ties.
  Cost,
  /// Minimize finish time; economic cost breaks ties.
  Time,
};

/// Short name ("cost" / "time").
const char *optimizationBiasName(OptimizationBias Bias);

/// Knobs of one allocation run.
struct AllocatorPolicy {
  /// Node ids the variant may use (the "environment event" it covers).
  std::vector<unsigned> CandidateNodes;
  OptimizationBias Bias = OptimizationBias::Cost;
  /// Economic penalty for placing consecutive chain tasks on different
  /// nodes. Coarse-grain strategies (S3) set this high, gluing chains to
  /// a single node and minimizing data exchanges.
  double NodeSwitchPenalty = 0.0;
  /// Pareto front size cap per (position, node) state.
  size_t MaxFrontSize = 8;
};

/// Allocates critical works against the live grid, read-only.
///
/// A job's tentative placements live only in the Distribution being
/// built: every query layers them over the node timelines, in which the
/// owner's own intervals count as free (a rebuild or repair replaces
/// them). The allocator mutates only the distribution and the data
/// policy's replica memory, both owned by the caller.
class ChainAllocator {
public:
  ChainAllocator(const Job &J, const Grid &Env, DataPolicy &Policy,
                 const CostModel &Cost, const AllocatorPolicy &Params);

  /// Places every task of \p Work around the placements already in
  /// \p Dist (earlier critical works, or a repair's pinned survivors)
  /// and everyone else's load in the grid. On success the placements are
  /// appended to \p Dist and any contention is recorded in
  /// \p Collisions. Returns false (leaving all state untouched) when the
  /// chain cannot meet its windows.
  bool allocate(const CriticalWork &Work, Distribution &Dist, Tick Release,
                Tick Deadline, OwnerId Owner,
                std::vector<CollisionRecord> &Collisions);

  /// Cumulative DP work of this allocator instance — Pareto labels
  /// kept, label fit queries answered and window-violation reruns.
  /// Deltas around an `allocate` call give that call's deterministic
  /// work (the caller attributes them to the `chain.dp` profiler phase).
  uint64_t labelsKept() const { return KeptLabels; }
  uint64_t fitQueries() const { return FitQueries; }
  uint64_t dpReruns() const { return DpReruns; }

private:
  struct Label {
    Tick Finish;
    double Cost;
    /// Start of this task on this node (Finish - reservation).
    Tick Start;
    /// Back-pointers: candidate-node index and label index at the
    /// previous position; -1 at position 0.
    int32_t PrevNode;
    int32_t PrevLabel;
  };

  /// One (position, node) state's Pareto front. The inline capacity
  /// matches the default `AllocatorPolicy::MaxFrontSize`, so with
  /// default knobs front maintenance never touches the heap.
  using LabelFront = SmallVector<Label, 8>;

  /// Ready time of chain position \p Pos on node \p NodeId considering
  /// placed predecessors only (the immediate chain predecessor is added
  /// by the DP transition).
  Tick externalReady(unsigned TaskId, unsigned NodeId,
                     const Distribution &Dist, Tick Release) const;

  /// Latest feasible finish of \p TaskId on \p NodeId given placed
  /// successors and the deadline.
  Tick latestFinish(unsigned TaskId, unsigned NodeId,
                    const Distribution &Dist, Tick Deadline) const;

  /// Inbound transfer ticks billed from already placed predecessors.
  Tick placedInboundTicks(unsigned TaskId, unsigned NodeId,
                          const Distribution &Dist, unsigned SkipPred) const;

  /// Inserts a label into a Pareto front (sorted by Finish ascending,
  /// Cost strictly descending); drops it when dominated. Counting
  /// wrapper over `paretoInsert` (core/ParetoFront.h).
  void insertLabel(LabelFront &Front, Label L);

  const Job &J;
  const Grid &G;
  DataPolicy &Policy;
  const CostModel &Cost;
  const AllocatorPolicy &Params;
  uint64_t KeptLabels = 0;
  uint64_t CapEvictions = 0;
  uint64_t FitQueries = 0;
  uint64_t DpReruns = 0;
};

} // namespace cws

#endif // CWS_CORE_CHAINALLOCATOR_H
