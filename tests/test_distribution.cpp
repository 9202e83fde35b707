//===-- tests/test_distribution.cpp - Distribution and cost tests ---------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "core/CostModel.h"
#include "core/Distribution.h"
#include "job/Job.h"
#include "resource/Grid.h"
#include "support/Prng.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace cws;

TEST(CostModel, CfTermIsCeil) {
  // "rounded to nearest not-smaller integer"
  EXPECT_EQ(CostModel::cfTerm(20.0, 2), 10);
  EXPECT_EQ(CostModel::cfTerm(10.0, 3), 4);
  EXPECT_EQ(CostModel::cfTerm(10.0, 4), 3);
  EXPECT_EQ(CostModel::cfTerm(9.0, 3), 3);
  EXPECT_EQ(CostModel::cfTerm(0.0, 5), 0);
}

TEST(CostModel, NodeCostScalesWithPriceAndTicks) {
  Grid G = Grid::makeFig2();
  CostModel Cost(G);
  EXPECT_DOUBLE_EQ(Cost.nodeCost(0, 2), G.node(0).pricePerTick() * 2.0);
  EXPECT_DOUBLE_EQ(Cost.nodeCost(3, 0), 0.0);
}

TEST(CostModel, TransferCost) {
  Grid G = Grid::makeFig2();
  CostConfig Config;
  Config.TransferCostPerTick = 4.0;
  CostModel Cost(G, Config);
  EXPECT_DOUBLE_EQ(Cost.transferCost(3), 12.0);
  EXPECT_DOUBLE_EQ(Cost.transferCost(0), 0.0);
}

TEST(Distribution, AddAndFind) {
  Distribution D;
  D.add({0, 1, 0, 4, 10.0});
  D.add({1, 2, 5, 9, 20.0});
  ASSERT_NE(D.find(0), nullptr);
  EXPECT_EQ(D.find(0)->NodeId, 1u);
  EXPECT_EQ(D.find(2), nullptr);
  EXPECT_EQ(D.size(), 2u);
}

TEST(Distribution, RemoveReturnsPlacement) {
  Distribution D;
  D.add({0, 1, 0, 4, 10.0});
  auto P = D.remove(0);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->NodeId, 1u);
  EXPECT_TRUE(D.empty());
  EXPECT_FALSE(D.remove(0).has_value());
}

TEST(Distribution, CoversNeedsEveryTask) {
  Job J = makeChainJob();
  Distribution D;
  D.add({0, 0, 0, 2, 1.0});
  D.add({1, 0, 3, 6, 1.0});
  EXPECT_FALSE(D.covers(J));
  D.add({2, 0, 7, 9, 1.0});
  EXPECT_TRUE(D.covers(J));
}

TEST(Distribution, MakespanAndStart) {
  Distribution D;
  EXPECT_EQ(D.makespan(), 0);
  EXPECT_EQ(D.startTime(), 0);
  D.add({0, 0, 5, 9, 1.0});
  D.add({1, 1, 2, 4, 1.0});
  EXPECT_EQ(D.makespan(), 9);
  EXPECT_EQ(D.startTime(), 2);
}

TEST(Distribution, EconomicCostSums) {
  Distribution D;
  D.add({0, 0, 0, 1, 10.5});
  D.add({1, 0, 2, 3, 4.5});
  EXPECT_DOUBLE_EQ(D.economicCost(), 15.0);
}

TEST(Distribution, CostFunctionUsesLoadTicks) {
  Job J = makeChainJob(); // Volumes 20, 30, 20.
  Distribution D;
  D.add({0, 0, 0, 2, 0.0});  // ceil(20/2) = 10
  D.add({1, 0, 3, 9, 0.0});  // ceil(30/6) = 5
  D.add({2, 0, 10, 18, 0.0}); // ceil(20/8) = 3
  EXPECT_EQ(D.costFunction(J), 18);
}

TEST(Distribution, FitsGridChecksEveryPlacement) {
  Grid G = makeSmallGrid();
  Distribution D;
  D.add({0, 0, 0, 5, 0.0});
  D.add({1, 1, 0, 5, 0.0});
  EXPECT_TRUE(D.fitsGrid(G));
  G.node(1).timeline().reserve(3, 4, 9);
  EXPECT_FALSE(D.fitsGrid(G));
  EXPECT_TRUE(D.fitsGrid(G, /*Ignore=*/9));
}

TEST(Distribution, CommitReservesUnderOwner) {
  Grid G = makeSmallGrid();
  Distribution D;
  D.add({0, 0, 0, 5, 0.0});
  D.add({1, 1, 2, 7, 0.0});
  EXPECT_TRUE(D.commit(G, 42));
  EXPECT_FALSE(G.node(0).timeline().isFree(0, 5));
  EXPECT_EQ(G.node(1).timeline().firstOverlap(2, 7)->Owner, 42u);
}

TEST(Distribution, CommitRollsBackOnConflict) {
  Grid G = makeSmallGrid();
  G.node(1).timeline().reserve(2, 7, 7);
  Distribution D;
  D.add({0, 0, 0, 5, 0.0});
  D.add({1, 1, 2, 7, 0.0});
  EXPECT_FALSE(D.commit(G, 42));
  // The first reservation must have been rolled back.
  EXPECT_TRUE(G.node(0).timeline().isFree(0, 5));
}

TEST(OccupancyView, FreeGapsMergeLiveAndOwnPlacements) {
  Grid G = makeSmallGrid();
  G.node(0).timeline().reserve(10, 20, 9);  // someone else's
  G.node(0).timeline().reserve(30, 40, 42); // the owner's own: free
  G.node(1).timeline().reserve(0, 100, 9);  // another node
  Distribution D;
  D.add({0, 0, 45, 50, 0.0}); // the job's tentative placement
  D.add({1, 1, 60, 70, 0.0}); // on another node
  const OccupancyView View{G, D, 42};

  std::vector<FreeGap> Gaps;
  View.freeGaps(0, 5, 60, 3, Gaps);
  ASSERT_EQ(Gaps.size(), 3u);
  EXPECT_EQ(Gaps[0].Begin, 5);
  EXPECT_EQ(Gaps[0].End, 10);
  EXPECT_EQ(Gaps[1].Begin, 20);
  EXPECT_EQ(Gaps[1].End, 45);
  EXPECT_EQ(Gaps[2].Begin, 50);
  EXPECT_EQ(Gaps[2].End, 60);

  // Gaps too short for the duration are left out; appending keeps what
  // Out already holds.
  View.freeGaps(0, 5, 60, 6, Gaps);
  ASSERT_EQ(Gaps.size(), 5u);
  EXPECT_EQ(Gaps[3].Begin, 20);
  EXPECT_EQ(Gaps[4].Begin, 50);

  Gaps.clear();
  View.freeGaps(0, 50, 52, 3, Gaps); // window shorter than the duration
  EXPECT_TRUE(Gaps.empty());
}

namespace {

/// Fills \p NodeId with non-overlapping random intervals, each owned by
/// someone else or by \p Own, and returns the end of the last one.
Tick fillRandomTimeline(Grid &G, unsigned NodeId, OwnerId Own, Prng &Rng) {
  Tick T = Rng.uniformInt(0, 5);
  for (int I = 0, Count = static_cast<int>(Rng.uniformInt(0, 12)); I < Count;
       ++I) {
    Tick Len = Rng.uniformInt(1, 8);
    OwnerId Holder = Rng.bernoulli(0.3) ? Own : Rng.uniformInt(1, 3);
    EXPECT_TRUE(G.node(NodeId).timeline().reserve(T, T + Len, Holder));
    T += Len + Rng.uniformInt(0, 6);
  }
  return T;
}

} // namespace

TEST(OccupancyView, FreeGapCursorMatchesEarliestFit) {
  const OwnerId Own = 42;
  Prng Rng(0x51075);
  for (int Round = 0; Round < 400; ++Round) {
    Grid G = makeSmallGrid();
    Tick Horizon = fillRandomTimeline(G, 0, Own, Rng);
    fillRandomTimeline(G, 1, Own, Rng);
    // The job's tentative placements: mutually disjoint, on node 0 or 1,
    // free to cover anyone's live interval (the view takes the union).
    Distribution D;
    Tick T = 0;
    for (unsigned Task = 0; Task < 6; ++Task) {
      T += Rng.uniformInt(0, 10);
      Tick Len = Rng.uniformInt(1, 6);
      D.add({Task, static_cast<unsigned>(Rng.uniformInt(0, 1)), T, T + Len,
             0.0});
      T += Len;
    }
    Horizon = std::max(Horizon, D.makespan());
    const OccupancyView View{G, D, Own};

    for (int Query = 0; Query < 8; ++Query) {
      Tick From = Rng.uniformInt(0, Horizon);
      Tick To = From + Rng.uniformInt(0, Horizon);
      Tick Dur = Rng.uniformInt(1, 10);
      std::vector<FreeGap> Gaps;
      View.freeGaps(0, From, To, Dur, Gaps);
      for (size_t I = 0; I < Gaps.size(); ++I) {
        EXPECT_LE(From, Gaps[I].Begin);
        EXPECT_LE(Gaps[I].End, To);
        EXPECT_GE(Gaps[I].End - Gaps[I].Begin, Dur);
        if (I > 0) {
          EXPECT_LT(Gaps[I - 1].End, Gaps[I].Begin);
        }
      }
      // Walk one cursor over ascending ready times, as the chain DP does.
      size_t Gap = 0;
      for (Tick Ready = From; Ready <= To + 2;
           Ready += Rng.uniformInt(0, 4)) {
        while (Gap < Gaps.size() && Gaps[Gap].End < Ready + Dur)
          ++Gap;
        Tick Fit = View.earliestFit(0, Ready, Dur);
        if (Fit + Dur <= To) {
          ASSERT_LT(Gap, Gaps.size()) << "round " << Round;
          EXPECT_EQ(std::max(Gaps[Gap].Begin, Ready), Fit)
              << "round " << Round << " ready " << Ready;
        } else {
          EXPECT_EQ(Gap, Gaps.size()) << "round " << Round;
        }
      }
    }
  }
}
