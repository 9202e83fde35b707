//===-- tests/test_profiler.cpp - Phase profiler tests --------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
//
// The hierarchical phase profiler: nesting and self-time accounting,
// deterministic cross-thread merge, the disabled fast path, cross-
// thread work attachment, the JSON round trip, metric publication, the
// Chrome-trace fragment, and shard/thread invariance of the counts and
// work counters a profiled VO run accumulates.
//
//===----------------------------------------------------------------------===//

#include "flow/VirtualOrganization.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "obs/Profiler.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace cws;
using namespace cws::obs;

namespace {

class ProfilerTest : public ::testing::Test {
protected:
  void SetUp() override { Profiler::global().reset(); }
  void TearDown() override { Profiler::global().reset(); }
};

/// Spins until at least \p Us microseconds of wall time passed, so
/// phase durations are reliably nonzero without sleeping.
void burn(int64_t Us) {
  auto Start = std::chrono::steady_clock::now();
  while (std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - Start)
             .count() < Us)
    ;
}

const PhaseStats *find(const std::vector<PhaseStats> &Phases,
                       const std::string &Name) {
  for (const PhaseStats &P : Phases)
    if (P.Name == Name)
      return &P;
  return nullptr;
}

TEST_F(ProfilerTest, NestingAndSelfTime) {
  Profiler &P = Profiler::global();
  P.enable();
  for (int I = 0; I < 3; ++I) {
    Scope Outer("test", "outer");
    burn(200);
    {
      Scope Inner("test", "inner");
      burn(200);
    }
  }
  P.disable();

  std::vector<PhaseStats> S = P.snapshot();
  ASSERT_EQ(S.size(), 2u);
  // Sorted by name.
  EXPECT_EQ(S[0].Name, "inner");
  EXPECT_EQ(S[1].Name, "outer");
  const PhaseStats *Outer = find(S, "outer");
  const PhaseStats *Inner = find(S, "inner");
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Outer->Count, 3u);
  EXPECT_EQ(Inner->Count, 3u);
  // The outer total contains the inner total; its self time does not.
  EXPECT_GE(Outer->TotalUs, Inner->TotalUs);
  EXPECT_GE(Outer->SelfUs, 0.0);
  EXPECT_LE(Outer->SelfUs, Outer->TotalUs - Inner->TotalUs + 1.0);
  // The inner phase has no children: self == total.
  EXPECT_DOUBLE_EQ(Inner->SelfUs, Inner->TotalUs);
  EXPECT_GT(Outer->P50Us, 0.0);
  EXPECT_GE(Outer->P99Us, Outer->P50Us);
}

TEST_F(ProfilerTest, OpenScopesAreNotCounted) {
  Profiler &P = Profiler::global();
  P.enable();
  {
    Scope Done("test", "closed");
  }
  Scope Open("test", "still.open");
  std::vector<PhaseStats> S = P.snapshot();
  const PhaseStats *Closed = find(S, "closed");
  ASSERT_NE(Closed, nullptr);
  EXPECT_EQ(Closed->Count, 1u);
  const PhaseStats *StillOpen = find(S, "still.open");
  if (StillOpen != nullptr) {
    EXPECT_EQ(StillOpen->Count, 0u);
  }
}

TEST_F(ProfilerTest, DisabledPathRecordsNothing) {
  Profiler &P = Profiler::global();
  ASSERT_FALSE(P.enabled());
  for (int I = 0; I < 1000; ++I) {
    Scope Ghost("test", "ghost");
    Scope S("test", "ghost.child");
    S.work("units", 5);
    P.addWork("ghost", "units", 7);
  }
  EXPECT_TRUE(P.snapshot().empty());
  EXPECT_EQ(P.chromeTraceEvents(), "");
}

TEST_F(ProfilerTest, CrossThreadMergeIsDeterministic) {
  Profiler &P = Profiler::global();
  P.enable();
  constexpr int Threads = 4;
  constexpr int Reps = 25;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&P] {
      for (int I = 0; I < Reps; ++I) {
        Scope Lane("test", "worker.lane");
        Scope S("test", "worker.lane.child");
        S.work("units", 2);
        P.addWork("worker.lane", "attached", 3);
      }
    });
  for (std::thread &T : Pool)
    T.join();
  P.disable();

  std::vector<PhaseStats> S = P.snapshot();
  const PhaseStats *Lane = find(S, "worker.lane");
  ASSERT_NE(Lane, nullptr);
  EXPECT_EQ(Lane->Count, uint64_t(Threads * Reps));
  const uint64_t *Attached = Lane->work("attached");
  ASSERT_NE(Attached, nullptr);
  EXPECT_EQ(*Attached, uint64_t(3 * Threads * Reps));
  const PhaseStats *Child = find(S, "worker.lane.child");
  ASSERT_NE(Child, nullptr);
  EXPECT_EQ(Child->Count, uint64_t(Threads * Reps));
  const uint64_t *Units = Child->work("units");
  ASSERT_NE(Units, nullptr);
  EXPECT_EQ(*Units, uint64_t(2 * Threads * Reps));
}

TEST_F(ProfilerTest, AddWorkWithoutOpenScopeLandsInMergedPhase) {
  Profiler &P = Profiler::global();
  P.enable();
  {
    Scope Caller("test", "caller.side");
  }
  // A worker lane attaches work to a phase it never opened.
  std::thread([&P] { P.addWork("caller.side", "fanout", 11); }).join();
  P.disable();

  std::vector<PhaseStats> S = P.snapshot();
  const PhaseStats *Phase = find(S, "caller.side");
  ASSERT_NE(Phase, nullptr);
  EXPECT_EQ(Phase->Count, 1u);
  const uint64_t *Fanout = Phase->work("fanout");
  ASSERT_NE(Fanout, nullptr);
  EXPECT_EQ(*Fanout, 11u);
}

TEST_F(ProfilerTest, JsonRoundTrip) {
  Profiler &P = Profiler::global();
  RunProvenance Prov;
  Prov.Stamped = true;
  Prov.Seed = 42;
  Prov.ConfigHash = "0x00000000deadbeef";
  Prov.ScenarioId = "test:profile";
  Prov.Shards = 2;
  Prov.Cli = "test_profiler";
  P.setProvenance(Prov);
  P.enable();
  {
    Scope Parent("test", "round.trip");
    Scope S("test", "round.trip.child");
    S.work("labels", 123);
  }
  P.disable();

  std::string Json = P.json();
  ParsedProfile Parsed;
  std::string Error;
  ASSERT_TRUE(parseProfileJson(Json, Parsed, Error)) << Error;
  EXPECT_TRUE(Parsed.Prov.Stamped);
  EXPECT_EQ(Parsed.Prov.Seed, 42u);
  EXPECT_EQ(Parsed.Prov.ConfigHash, "0x00000000deadbeef");
  EXPECT_EQ(Parsed.Prov.ScenarioId, "test:profile");
  EXPECT_EQ(Parsed.Prov.Shards, 2u);
  ASSERT_EQ(Parsed.Phases.size(), 2u);
  EXPECT_EQ(Parsed.Phases[0].Name, "round.trip");
  EXPECT_EQ(Parsed.Phases[1].Name, "round.trip.child");
  const uint64_t *Labels = Parsed.Phases[1].work("labels");
  ASSERT_NE(Labels, nullptr);
  EXPECT_EQ(*Labels, 123u);
  EXPECT_EQ(Parsed.Phases[0].Count, 1u);
  EXPECT_GE(Parsed.Phases[0].TotalUs, 0.0);

  // Malformed input and schema mismatches are rejected.
  EXPECT_FALSE(parseProfileJson("not json", Parsed, Error));
  EXPECT_FALSE(parseProfileJson("{\"schema\":\"nope\",\"phases\":[]}",
                                Parsed, Error));
}

TEST_F(ProfilerTest, PublishesPhaseMetrics) {
  Profiler &P = Profiler::global();
  P.enable();
  {
    Scope Outer("test", "pub.phase");
    Scope S("test", "pub.phase");
    S.work("units", 4);
  }
  P.disable();

  Registry R;
  publishProfilerStats(P, R);
  std::string Prom = R.prometheusText();
  EXPECT_NE(Prom.find("cws_phase_count"), std::string::npos);
  EXPECT_NE(Prom.find("cws_phase_total_us"), std::string::npos);
  EXPECT_NE(Prom.find("cws_phase_self_us"), std::string::npos);
  EXPECT_NE(Prom.find("cws_phase_p50_us{phase=\"pub.phase\"}"),
            std::string::npos);
  EXPECT_NE(Prom.find("cws_phase_p99_us{phase=\"pub.phase\"}"),
            std::string::npos);
  EXPECT_NE(Prom.find("cws_phase_work"), std::string::npos);
  EXPECT_NE(Prom.find("pub.phase"), std::string::npos);
}

TEST_F(ProfilerTest, ChromeTraceFragment) {
  Profiler &P = Profiler::global();
  EXPECT_EQ(P.chromeTraceEvents(), "");
  P.enable();
  {
    Scope Traced("test", "trace.me");
  }
  P.disable();
  std::string Fragment = P.chromeTraceEvents();
  ASSERT_FALSE(Fragment.empty());
  // A complete-event slice naming the phase; fragments are spliced into
  // a JSON array, so no enclosing brackets.
  EXPECT_NE(Fragment.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Fragment.find("trace.me"), std::string::npos);
  EXPECT_EQ(Fragment.front(), '{');
  EXPECT_EQ(Fragment.back(), '}');
}

/// Counts and work counters of a profiled VO run, wall time stripped.
std::map<std::string, std::pair<uint64_t, std::vector<std::pair<
                                              std::string, uint64_t>>>>
profiledVoWork(size_t Shards, size_t BuildThreads) {
  Profiler &P = Profiler::global();
  P.reset();
  P.enable();
  VoConfig Config;
  Config.JobCount = 24;
  Config.InterarrivalLo = 0;
  Config.InterarrivalHi = 4;
  Config.Shards = Shards;
  Config.Strategy.BuildThreads = BuildThreads;
  runVirtualOrganization(Config, StrategyKind::S1, /*Seed=*/5);
  P.disable();
  std::map<std::string,
           std::pair<uint64_t, std::vector<std::pair<std::string, uint64_t>>>>
      Out;
  for (const PhaseStats &S : P.snapshot())
    Out[S.Name] = {S.Count, S.Work};
  P.reset();
  return Out;
}

TEST_F(ProfilerTest, VoRunCountsAreShardAndThreadInvariant) {
  auto Reference = profiledVoWork(/*Shards=*/1, /*BuildThreads=*/1);
  ASSERT_FALSE(Reference.empty());
  EXPECT_TRUE(Reference.count("sim.tick"));
  EXPECT_TRUE(Reference.count("chain.dp"));
  EXPECT_TRUE(Reference.count("strategy.build"));
  for (size_t Shards : {size_t(1), size_t(4)})
    for (size_t BuildThreads : {size_t(1), size_t(4)}) {
      if (Shards == 1 && BuildThreads == 1)
        continue;
      auto Got = profiledVoWork(Shards, BuildThreads);
      EXPECT_EQ(Got, Reference)
          << "profile diverged at shards=" << Shards
          << " build_threads=" << BuildThreads;
    }
}

} // namespace
