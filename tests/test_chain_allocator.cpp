//===-- tests/test_chain_allocator.cpp - DP chain allocator tests ---------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "core/ChainAllocator.h"
#include "job/Job.h"
#include "resource/Grid.h"
#include "resource/Network.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <tuple>

using namespace cws;

namespace {

struct AllocFixture {
  Grid G = makeSmallGrid(); // perfs 1.0, 0.8, 0.4, 0.33
  Network Net;
  DataPolicy Policy{DataPolicyKind::RemoteAccess, Net};
  CostModel Cost{G};
  AllocatorPolicy Params;
  Distribution Dist;
  std::vector<CollisionRecord> Collisions;

  AllocFixture() {
    for (const auto &N : G.nodes())
      Params.CandidateNodes.push_back(N.id());
  }

  bool allocate(const Job &J, const CriticalWork &W, Tick Release,
                Tick Deadline) {
    ChainAllocator A(J, G, Policy, Cost, Params);
    return A.allocate(W, Dist, Release, Deadline, /*Owner=*/42, Collisions);
  }
};

CriticalWork wholeChain(const Job &J) {
  CriticalWork W;
  for (unsigned T : J.topoOrder())
    W.TaskIds.push_back(T);
  W.RefLength = J.criticalPathRefTicks();
  return W;
}

} // namespace

TEST(ChainAllocator, SingleTaskCostBiasPicksCheapestNode) {
  AllocFixture F;
  Job J;
  J.addTask("t", 4, 40);
  J.setDeadline(100);
  CriticalWork W{{0}, 4};
  ASSERT_TRUE(F.allocate(J, W, 0, 100));
  const Placement *P = F.Dist.find(0);
  ASSERT_NE(P, nullptr);
  // Cheapest total = min over nodes of price * execTicks; with price
  // 10 * perf^2 that is the slowest node (id 3, perf 0.33).
  EXPECT_EQ(P->NodeId, 3u);
  EXPECT_EQ(P->Start, 0);
  EXPECT_EQ(P->End, 13); // ceil(4 / 0.33)
}

TEST(ChainAllocator, SingleTaskTimeBiasPicksFastestNode) {
  AllocFixture F;
  F.Params.Bias = OptimizationBias::Time;
  Job J;
  J.addTask("t", 4, 40);
  J.setDeadline(100);
  CriticalWork W{{0}, 4};
  ASSERT_TRUE(F.allocate(J, W, 0, 100));
  EXPECT_EQ(F.Dist.find(0)->NodeId, 0u);
  EXPECT_EQ(F.Dist.find(0)->End, 4);
}

TEST(ChainAllocator, DeadlineForcesFasterNode) {
  AllocFixture F;
  Job J;
  J.addTask("t", 4, 40);
  J.setDeadline(5);
  CriticalWork W{{0}, 4};
  ASSERT_TRUE(F.allocate(J, W, 0, 5));
  // Only nodes finishing by 5: node 0 (4 ticks) or node 1 (5 ticks);
  // cost bias picks the cheaper node 1.
  EXPECT_EQ(F.Dist.find(0)->NodeId, 1u);
}

TEST(ChainAllocator, InfeasibleDeadlineFails) {
  AllocFixture F;
  Job J;
  J.addTask("t", 4, 40);
  J.setDeadline(3);
  CriticalWork W{{0}, 4};
  EXPECT_FALSE(F.allocate(J, W, 0, 3));
  EXPECT_TRUE(F.Dist.empty());
}

TEST(ChainAllocator, ReleaseIsRespected) {
  AllocFixture F;
  Job J;
  J.addTask("t", 2, 20);
  J.setDeadline(100);
  CriticalWork W{{0}, 2};
  ASSERT_TRUE(F.allocate(J, W, 10, 100));
  EXPECT_GE(F.Dist.find(0)->Start, 10);
}

TEST(ChainAllocator, ChainRespectsTransfers) {
  AllocFixture F;
  Job J = makeChainJob(100);
  ASSERT_TRUE(F.allocate(J, wholeChain(J), 0, 100));
  expectValidDistribution(J, F.Dist);
  // Cross-node steps must leave at least the transfer gap.
  for (const auto &E : J.edges()) {
    const Placement *Src = F.Dist.find(E.Src);
    const Placement *Dst = F.Dist.find(E.Dst);
    if (Src->NodeId != Dst->NodeId)
      EXPECT_GE(Dst->Start, Src->End + E.BaseTransfer);
  }
}

TEST(ChainAllocator, OccupiedSlotShiftsTaskAndRecordsCollision) {
  AllocFixture F;
  // Restrict to one node so the task must shift.
  F.Params.CandidateNodes = {0};
  F.G.node(0).timeline().reserve(0, 6, 7);
  Job J;
  J.addTask("t", 2, 20);
  J.setDeadline(100);
  CriticalWork W{{0}, 2};
  ASSERT_TRUE(F.allocate(J, W, 0, 100));
  EXPECT_EQ(F.Dist.find(0)->Start, 6);
  ASSERT_EQ(F.Collisions.size(), 1u);
  EXPECT_EQ(F.Collisions[0].Resolution, CollisionResolution::Shifted);
  EXPECT_EQ(F.Collisions[0].BlockingOwner, 7u);
  EXPECT_EQ(F.Collisions[0].NodeId, 0u);
  EXPECT_EQ(F.Collisions[0].WantedStart, 0);
  EXPECT_EQ(F.Collisions[0].ActualStart, 6);
}

TEST(ChainAllocator, ContendedCheaperNodeRecordsMovedCollision) {
  AllocFixture F;
  // Slow, cheapest node 3 busy for a long while: the task moves.
  F.G.node(3).timeline().reserve(0, 200, 9);
  Job J;
  J.addTask("t", 4, 40);
  J.setDeadline(100);
  CriticalWork W{{0}, 4};
  ASSERT_TRUE(F.allocate(J, W, 0, 100));
  EXPECT_NE(F.Dist.find(0)->NodeId, 3u);
  bool FoundMoved = false;
  for (const auto &C : F.Collisions)
    if (C.Resolution == CollisionResolution::Moved && C.NodeId == 3)
      FoundMoved = true;
  EXPECT_TRUE(FoundMoved);
}

TEST(ChainAllocator, LatestFinishFromPlacedSuccessor) {
  AllocFixture F;
  Job J = makeChainJob(100);
  // Place task C (id 2) first, as an earlier critical work would have.
  F.Dist.add({2, 0, 20, 22, 0.0});
  ASSERT_TRUE(F.G.node(0).timeline().reserve(20, 22, 42));
  CriticalWork W{{0, 1}, 7};
  ASSERT_TRUE(F.allocate(J, W, 0, 100));
  const Placement *B = F.Dist.find(1);
  ASSERT_NE(B, nullptr);
  // B must deliver to C by 20: same node means End <= 20, cross node
  // End + transfer <= 20.
  Tick Gap = B->NodeId == 0 ? 0 : 1;
  EXPECT_LE(B->End + Gap, 20);
}

TEST(ChainAllocator, WindowTooTightFails) {
  AllocFixture F;
  Job J = makeChainJob(100);
  // C placed so early that A and B cannot possibly fit before it.
  F.Dist.add({2, 0, 3, 5, 0.0});
  ASSERT_TRUE(F.G.node(0).timeline().reserve(3, 5, 42));
  CriticalWork W{{0, 1}, 7};
  EXPECT_FALSE(F.allocate(J, W, 0, 100));
}

TEST(ChainAllocator, SwitchPenaltyGluesChain) {
  AllocFixture F;
  F.Params.NodeSwitchPenalty = 1e6;
  Job J = makeChainJob(100);
  ASSERT_TRUE(F.allocate(J, wholeChain(J), 0, 100));
  unsigned Node = F.Dist.find(0)->NodeId;
  EXPECT_EQ(F.Dist.find(1)->NodeId, Node);
  EXPECT_EQ(F.Dist.find(2)->NodeId, Node);
}

TEST(ChainAllocator, AllocateLeavesGridUntouchedAndAvoidsOwnPlacements) {
  AllocFixture F;
  // One candidate node, so every critical work competes for it.
  F.Params.CandidateNodes = {0};
  ASSERT_TRUE(F.G.node(0).timeline().reserve(3, 5, 7));
  auto Snapshot = [&F] {
    std::vector<std::tuple<unsigned, Tick, Tick, OwnerId>> All;
    for (const auto &N : F.G.nodes())
      for (const Interval &I : N.timeline().intervals())
        All.emplace_back(N.id(), I.Begin, I.End, I.Owner);
    return All;
  };
  const auto Before = Snapshot();
  Job J;
  J.addTask("a", 4, 40);
  J.addTask("b", 4, 40);
  J.addTask("c", 4, 40);
  J.setDeadline(100);

  // a lands after the foreign interval; the grid itself is never
  // written — the placement lives only in the distribution.
  ASSERT_TRUE(F.allocate(J, CriticalWork{{0}, 4}, 0, 100));
  EXPECT_EQ(Snapshot(), Before);
  const Placement A = *F.Dist.find(0);
  EXPECT_EQ(A.Start, 5);

  // b fits neither before the foreign interval nor over a: the fit
  // alternates between the live timeline and the job's own placements.
  ASSERT_TRUE(F.allocate(J, CriticalWork{{1}, 4}, 0, 100));
  EXPECT_EQ(Snapshot(), Before);
  const Placement B = *F.Dist.find(1);
  EXPECT_EQ(B.NodeId, A.NodeId);
  EXPECT_TRUE(B.End <= A.Start || B.Start >= A.End);
  EXPECT_EQ(B.Start, 9);

  // c, released at 5, is blocked first by the job's own placement a:
  // the collision blames the owner, not the later foreign load.
  ASSERT_TRUE(F.allocate(J, CriticalWork{{2}, 4}, 5, 100));
  EXPECT_EQ(Snapshot(), Before);
  ASSERT_FALSE(F.Collisions.empty());
  EXPECT_EQ(F.Collisions.back().TaskId, 2u);
  EXPECT_EQ(F.Collisions.back().BlockingOwner, 42u);
  expectValidDistribution(J, F.Dist);
}

TEST(ChainAllocator, EconomicCostIsPositive) {
  AllocFixture F;
  Job J = makeChainJob(100);
  ASSERT_TRUE(F.allocate(J, wholeChain(J), 0, 100));
  for (const auto &P : F.Dist.placements())
    EXPECT_GT(P.EconomicCost, 0.0);
}
