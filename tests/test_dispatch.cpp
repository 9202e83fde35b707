//===-- tests/test_dispatch.cpp - Domains, forecasting, dispatch ----------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "flow/Dispatch.h"
#include "flow/Metascheduler.h"
#include "job/Generator.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

using namespace cws;

namespace {

Grid makeTieredGrid() {
  Grid G;
  G.addNode(1.0);
  G.addNode(0.9);
  G.addNode(0.5);
  G.addNode(0.45);
  G.addNode(0.33);
  G.addNode(0.33);
  return G;
}

} // namespace

TEST(Domain, PartitionByGroupCoversGrid) {
  Grid Env = makeTieredGrid();
  std::vector<Domain> Domains = partitionByGroup(Env);
  ASSERT_EQ(Domains.size(), 3u);
  EXPECT_EQ(Domains[0].Name, "fast");
  std::set<unsigned> Seen;
  size_t Total = 0;
  for (const auto &D : Domains) {
    Total += D.NodeIds.size();
    Seen.insert(D.NodeIds.begin(), D.NodeIds.end());
  }
  EXPECT_EQ(Total, Env.size());
  EXPECT_EQ(Seen.size(), Env.size());
}

TEST(Domain, PartitionStripedBalancesTiers) {
  Grid Env = makeTieredGrid();
  std::vector<Domain> Domains = partitionStriped(Env, 2);
  ASSERT_EQ(Domains.size(), 2u);
  EXPECT_EQ(Domains[0].NodeIds.size(), 3u);
  EXPECT_EQ(Domains[1].NodeIds.size(), 3u);
  // Each stripe gets one node of the fastest pair.
  bool Stripe0HasFast = Domains[0].contains(0) || Domains[0].contains(1);
  bool Stripe1HasFast = Domains[1].contains(0) || Domains[1].contains(1);
  EXPECT_TRUE(Stripe0HasFast);
  EXPECT_TRUE(Stripe1HasFast);
}

TEST(Domain, PartitionStripedCapsAtGridSize) {
  Grid Env = makeSmallGrid();
  EXPECT_EQ(partitionStriped(Env, 100).size(), Env.size());
}

TEST(Domain, BookedLoad) {
  Grid Env = makeTieredGrid();
  Domain D{"d", {0, 1}};
  Env.node(0).timeline().reserve(0, 50, 1);
  EXPECT_DOUBLE_EQ(domainBookedLoad(Env, D, 0, 100), 0.25);
}

TEST(Forecast, StartsAtZero) {
  LoadForecaster F(4);
  EXPECT_DOUBLE_EQ(F.forecast(0), 0.0);
  EXPECT_EQ(F.observations(), 0u);
}

TEST(Forecast, FirstObservationSeedsLevels) {
  Grid Env = makeSmallGrid();
  Env.node(0).timeline().reserve(0, 50, 1);
  LoadForecaster F(Env.size(), 0.3);
  F.observe(Env, 0, 100);
  EXPECT_DOUBLE_EQ(F.forecast(0), 0.5);
  EXPECT_DOUBLE_EQ(F.forecast(1), 0.0);
}

TEST(Forecast, EwmaBlendsObservations) {
  Grid Env = makeSmallGrid();
  LoadForecaster F(Env.size(), 0.5);
  Env.node(0).timeline().reserve(0, 100, 1);
  F.observe(Env, 0, 100); // Level = 1.0.
  F.observe(Env, 100, 200); // Utilization 0 -> level 0.5.
  EXPECT_DOUBLE_EQ(F.forecast(0), 0.5);
}

TEST(Forecast, DomainForecastAverages) {
  Grid Env = makeSmallGrid();
  Env.node(0).timeline().reserve(0, 100, 1);
  LoadForecaster F(Env.size());
  F.observe(Env, 0, 100);
  Domain D{"d", {0, 1}};
  EXPECT_DOUBLE_EQ(F.domainForecast(D), 0.5);
}

TEST(Dispatch, RoundRobinCycles) {
  Grid Env = makeTieredGrid();
  Network Net;
  DomainDispatcher Dispatcher(Env, Net, StrategyConfig{},
                              partitionStriped(Env, 3),
                              DispatchPolicy::RoundRobin);
  JobGenerator Gen(WorkloadConfig{}, 5);
  std::vector<size_t> Picks;
  for (int I = 0; I < 6; ++I) {
    Job J = Gen.next(0);
    Picks.push_back(Dispatcher.dispatch(J, 100 + I, 0).DomainIdx);
  }
  EXPECT_EQ(Picks, (std::vector<size_t>{0, 1, 2, 0, 1, 2}));
}

TEST(Dispatch, LeastLoadedAvoidsBusyDomain) {
  Grid Env = makeTieredGrid();
  Network Net;
  std::vector<Domain> Domains = partitionStriped(Env, 2);
  // Saturate domain 0.
  for (unsigned NodeId : Domains[0].NodeIds)
    Env.node(NodeId).timeline().reserve(0, 1000, 9);
  DomainDispatcher Dispatcher(Env, Net, StrategyConfig{}, Domains,
                              DispatchPolicy::LeastLoaded);
  Job J = makeChainJob(200);
  DispatchDecision D = Dispatcher.dispatch(J, 100, 0);
  EXPECT_EQ(D.DomainIdx, 1u);
}

TEST(Dispatch, LeastForecastUsesObservedHistory) {
  Grid Env = makeTieredGrid();
  Network Net;
  std::vector<Domain> Domains = partitionStriped(Env, 2);
  for (unsigned NodeId : Domains[1].NodeIds)
    Env.node(NodeId).timeline().reserve(0, 50, 9);
  DomainDispatcher Dispatcher(Env, Net, StrategyConfig{}, Domains,
                              DispatchPolicy::LeastForecast);
  Dispatcher.observeLoad(50, 50);
  Job J = makeChainJob(300);
  EXPECT_EQ(Dispatcher.dispatch(J, 100, 60).DomainIdx, 0u);
}

TEST(Dispatch, CheapestBidPicksCheapestAdmissibleDomain) {
  Grid Env = makeTieredGrid();
  Network Net;
  std::vector<Domain> Domains = partitionByGroup(Env);
  DomainDispatcher Dispatcher(Env, Net, StrategyConfig{}, Domains,
                              DispatchPolicy::CheapestBid);
  Job J = makeChainJob(400); // Roomy deadline: every domain can host it.
  DispatchDecision D = Dispatcher.dispatch(J, 100, 0);
  ASSERT_EQ(D.Bids.size(), Domains.size());
  // The slow domain has the cheapest nodes.
  EXPECT_EQ(Domains[D.DomainIdx].Name, "slow");
  for (double Bid : D.Bids)
    EXPECT_GE(Bid, D.Bids[D.DomainIdx]);
  EXPECT_TRUE(D.S.admissible());
}

TEST(Dispatch, CheapestBidFallsBackWhenNobodyBids) {
  Grid Env = makeTieredGrid();
  Network Net;
  DomainDispatcher Dispatcher(Env, Net, StrategyConfig{},
                              partitionByGroup(Env),
                              DispatchPolicy::CheapestBid);
  Job J = makeChainJob(2); // Impossible deadline.
  DispatchDecision D = Dispatcher.dispatch(J, 100, 0);
  EXPECT_FALSE(D.S.admissible());
  for (double Bid : D.Bids)
    EXPECT_TRUE(std::isinf(Bid));
}

TEST(Dispatch, StrategyIsRestrictedToTheDomain) {
  Grid Env = makeTieredGrid();
  Network Net;
  std::vector<Domain> Domains = partitionByGroup(Env);
  DomainDispatcher Dispatcher(Env, Net, StrategyConfig{}, Domains,
                              DispatchPolicy::RoundRobin);
  Job J = makeChainJob(400);
  DispatchDecision D = Dispatcher.dispatch(J, 100, 0);
  const Domain &Chosen = Domains[D.DomainIdx];
  for (const auto &V : D.S.variants())
    for (const auto &P : V.Result.Dist.placements())
      EXPECT_TRUE(Chosen.contains(P.NodeId));
}

TEST(Dispatch, CommitAfterDispatchReservesInTheDomain) {
  Grid Env = makeTieredGrid();
  Network Net;
  Economy Econ;
  unsigned User = Econ.addUser(1e9);
  Metascheduler Meta(Env, Net, Econ, StrategyConfig{});
  std::vector<Domain> Domains = partitionByGroup(Env);
  DomainDispatcher Dispatcher(Env, Net, StrategyConfig{}, Domains,
                              DispatchPolicy::CheapestBid);
  Job J = makeChainJob(400);
  J.setId(3);
  DispatchDecision D = Dispatcher.dispatch(J, Metascheduler::ownerOf(3), 0);
  ASSERT_TRUE(D.S.admissible());
  ASSERT_TRUE(Meta.commit(J, *D.S.bestByCost(), User));
  for (const auto &N : Env.nodes())
    if (!N.timeline().intervals().empty()) {
      EXPECT_TRUE(Domains[D.DomainIdx].contains(N.id()))
          << "reservation leaked outside the domain";
    }
}
