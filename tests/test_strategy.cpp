//===-- tests/test_strategy.cpp - Strategy generation tests ---------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "core/Strategy.h"
#include "job/Job.h"
#include "resource/Network.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace cws;

namespace {

Strategy buildFig2(StrategyKind Kind) {
  StrategyConfig Config;
  Config.Kind = Kind;
  return Strategy::build(makeFig2Job(), Grid::makeFig2(), Network{}, Config,
                         42);
}

} // namespace

TEST(Strategy, NamesAndPolicies) {
  EXPECT_STREQ(strategyName(StrategyKind::S1), "S1");
  EXPECT_STREQ(strategyName(StrategyKind::MS1), "MS1");
  EXPECT_EQ(strategyDataPolicy(StrategyKind::S1),
            DataPolicyKind::ActiveReplication);
  EXPECT_EQ(strategyDataPolicy(StrategyKind::S2),
            DataPolicyKind::RemoteAccess);
  EXPECT_EQ(strategyDataPolicy(StrategyKind::S3),
            DataPolicyKind::StaticStorage);
  EXPECT_EQ(strategyDataPolicy(StrategyKind::MS1),
            DataPolicyKind::ActiveReplication);
  EXPECT_TRUE(strategyBestWorstOnly(StrategyKind::MS1));
  EXPECT_FALSE(strategyBestWorstOnly(StrategyKind::S1));
}

TEST(Strategy, Fig2S1IsAdmissibleWithAlternatives) {
  Strategy S = buildFig2(StrategyKind::S1);
  EXPECT_TRUE(S.admissible());
  // The paper's Fig. 2b shows at least three alternative distributions.
  EXPECT_GE(S.feasibleCount(), 2u);
  EXPECT_EQ(S.levels().size(), 4u);
}

TEST(Strategy, VariantsScheduleAllTasks) {
  Strategy S = buildFig2(StrategyKind::S1);
  for (const auto &V : S.variants()) {
    if (!V.feasible())
      continue;
    expectValidDistribution(S.scheduledJob(), V.Result.Dist);
    EXPECT_LE(V.Result.Dist.makespan(), 20);
  }
}

TEST(Strategy, CheapestVariantIsUniqueMinimum) {
  // The Fig. 2b shape: one distribution is strictly cheapest (CF2 = 37
  // versus CF1 = CF3 = 41 in the paper's units).
  Strategy S = buildFig2(StrategyKind::S1);
  const ScheduleVariant *Best = S.bestByCost();
  ASSERT_NE(Best, nullptr);
  for (const auto &V : S.variants()) {
    if (!V.feasible() || &V == Best)
      continue;
    EXPECT_GE(V.Result.Dist.economicCost(),
              Best->Result.Dist.economicCost());
  }
}

TEST(Strategy, BestByTimeMinimizesMakespan) {
  Strategy S = buildFig2(StrategyKind::S1);
  const ScheduleVariant *Fastest = S.bestByTime();
  ASSERT_NE(Fastest, nullptr);
  for (const auto &V : S.variants())
    if (V.feasible()) {
      EXPECT_GE(V.Result.Dist.makespan(), Fastest->Result.Dist.makespan());
    }
}

TEST(Strategy, Ms1CoversOnlyBestAndWorstLevels) {
  Strategy S = buildFig2(StrategyKind::MS1);
  ASSERT_EQ(S.levels().size(), 4u);
  for (const auto &V : S.variants())
    EXPECT_TRUE(V.Level == 0 || V.Level == 3) << "level " << V.Level;
}

TEST(Strategy, Ms1HasNoMoreVariantsThanS1) {
  Strategy S1 = buildFig2(StrategyKind::S1);
  Strategy MS1 = buildFig2(StrategyKind::MS1);
  EXPECT_LE(MS1.variants().size(), S1.variants().size());
}

TEST(Strategy, S3SchedulesCoarseJob) {
  Strategy S = buildFig2(StrategyKind::S3);
  EXPECT_LT(S.scheduledJob().taskCount(), makeFig2Job().taskCount());
  EXPECT_EQ(S.scheduledJob().totalRefTicks(),
            makeFig2Job().totalRefTicks());
}

TEST(Strategy, FineGrainKindsScheduleOriginalJob) {
  for (StrategyKind Kind :
       {StrategyKind::S1, StrategyKind::S2, StrategyKind::MS1}) {
    Strategy S = buildFig2(Kind);
    EXPECT_EQ(S.scheduledJob().taskCount(), 6u);
  }
}

TEST(Strategy, VariantsAreDeduplicated) {
  Strategy S = buildFig2(StrategyKind::S1);
  for (size_t I = 0; I < S.variants().size(); ++I)
    for (size_t K = I + 1; K < S.variants().size(); ++K) {
      const Distribution &A = S.variants()[I].Result.Dist;
      const Distribution &B = S.variants()[K].Result.Dist;
      if (A.size() != B.size() || A.empty())
        continue;
      bool Same = true;
      for (const auto &P : A.placements()) {
        const Placement *Q = B.find(P.TaskId);
        if (!Q || Q->NodeId != P.NodeId || Q->Start != P.Start ||
            Q->End != P.End)
          Same = false;
      }
      EXPECT_FALSE(Same && S.variants()[I].feasible() ==
                               S.variants()[K].feasible())
          << "variants " << I << " and " << K << " are identical";
    }
}

TEST(Strategy, BestFittingRespectsCurrentLoad) {
  Grid Env = Grid::makeFig2();
  StrategyConfig Config;
  Strategy S = Strategy::build(makeFig2Job(), Env, Network{}, Config, 42);
  const ScheduleVariant *Before = S.bestFitting(Env);
  ASSERT_NE(Before, nullptr);
  // Occupy exactly the cheapest variant's first placement slot.
  const Placement &P = Before->Result.Dist.placements().front();
  ASSERT_TRUE(Env.node(P.NodeId).timeline().reserve(P.Start, P.End, 7));
  const ScheduleVariant *After = S.bestFitting(Env);
  if (After) {
    EXPECT_NE(After, Before);
  }
}

TEST(Strategy, BestFittingIgnoresOwnReservations) {
  Grid Env = Grid::makeFig2();
  StrategyConfig Config;
  Strategy S = Strategy::build(makeFig2Job(), Env, Network{}, Config, 42);
  const ScheduleVariant *Best = S.bestFitting(Env);
  ASSERT_NE(Best, nullptr);
  ASSERT_TRUE(Best->Result.Dist.commit(Env, /*Owner=*/77));
  EXPECT_EQ(S.bestFitting(Env, /*Ignore=*/77), Best);
  EXPECT_NE(S.bestFitting(Env), Best);
}

TEST(Strategy, InadmissibleWhenDeadlineImpossible) {
  Job J = makeFig2Job();
  J.setDeadline(4);
  StrategyConfig Config;
  Strategy S = Strategy::build(J, Grid::makeFig2(), Network{}, Config, 42);
  EXPECT_FALSE(S.admissible());
  EXPECT_EQ(S.bestByCost(), nullptr);
  EXPECT_EQ(S.bestByTime(), nullptr);
}

TEST(Strategy, CollectsCollisions) {
  Strategy S = buildFig2(StrategyKind::S1);
  // The Fig. 2 job is known to produce at least one collision (P4/P5
  // competing for a node) across the variant set.
  EXPECT_FALSE(S.allCollisions().empty());
}

TEST(Strategy, BuildLeavesEnvironmentUntouched) {
  Grid Env = Grid::makeFig2();
  StrategyConfig Config;
  Strategy::build(makeFig2Job(), Env, Network{}, Config, 42);
  for (const auto &N : Env.nodes())
    EXPECT_TRUE(N.timeline().intervals().empty());
}

TEST(Strategy, ParallelBuildMatchesSerialExactly) {
  // Variant generation fans out over a worker pool; the merged result
  // must be indistinguishable from the serial build at any lane count.
  Job J = makeFig2Job();
  Grid Env = Grid::makeFig2();
  Network Net;
  for (StrategyKind Kind : {StrategyKind::S1, StrategyKind::S2,
                            StrategyKind::S3, StrategyKind::MS1}) {
    StrategyConfig Serial;
    Serial.Kind = Kind;
    Serial.BuildThreads = 1;
    StrategyConfig Parallel = Serial;
    Parallel.BuildThreads = 4;
    Strategy A = Strategy::build(J, Env, Net, Serial, 42);
    Strategy B = Strategy::build(J, Env, Net, Parallel, 42);
    EXPECT_EQ(A.levels(), B.levels());
    ASSERT_EQ(A.variants().size(), B.variants().size())
        << strategyName(Kind);
    for (size_t I = 0; I < A.variants().size(); ++I) {
      const ScheduleVariant &VA = A.variants()[I];
      const ScheduleVariant &VB = B.variants()[I];
      EXPECT_EQ(VA.Level, VB.Level);
      EXPECT_EQ(VA.Bias, VB.Bias);
      EXPECT_EQ(VA.feasible(), VB.feasible());
      const Distribution &DA = VA.Result.Dist;
      const Distribution &DB = VB.Result.Dist;
      ASSERT_EQ(DA.size(), DB.size());
      for (const Placement &P : DA.placements()) {
        const Placement *Q = DB.find(P.TaskId);
        ASSERT_NE(Q, nullptr);
        EXPECT_EQ(Q->NodeId, P.NodeId);
        EXPECT_EQ(Q->Start, P.Start);
        EXPECT_EQ(Q->End, P.End);
        EXPECT_DOUBLE_EQ(Q->EconomicCost, P.EconomicCost);
      }
    }
  }
}

TEST(Strategy, JobIdAndKindAreRecorded) {
  Job J = makeFig2Job();
  J.setId(123);
  StrategyConfig Config;
  Config.Kind = StrategyKind::S2;
  Strategy S = Strategy::build(J, Grid::makeFig2(), Network{}, Config, 42, 9);
  EXPECT_EQ(S.jobId(), 123u);
  EXPECT_EQ(S.kind(), StrategyKind::S2);
  EXPECT_EQ(S.builtAt(), 9);
}
