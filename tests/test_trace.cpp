//===-- tests/test_trace.cpp - Span tracer and scope tests ----------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
//
// The ring-buffer tracer and the one instrumentation scope that feeds
// it: each sink alone, sinks switched on mid-scope, End-event args, the
// Chrome JSON export, and the property that the profile and the trace
// of one run count the same scopes.
//
//===----------------------------------------------------------------------===//

#include "flow/VirtualOrganization.h"
#include "obs/Profiler.h"
#include "obs/Trace.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace cws;
using namespace cws::obs;

namespace {

/// True when \p Text is one RFC 8259 JSON value.
bool validJson(const std::string &Text) {
  json::Value V;
  std::string Error;
  return json::parse(Text, V, Error);
}

class TraceTest : public ::testing::Test {
protected:
  void SetUp() override {
    Tracer::global().reset();
    Profiler::global().reset();
  }
  void TearDown() override {
    Tracer::global().reset();
    Profiler::global().reset();
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  Tracer &T = Tracer::global();
  EXPECT_FALSE(T.enabled());
  {
    Scope S("test", "outer");
    S.work("units", 1);
    T.instant("test", "tick");
  }
  EXPECT_EQ(T.recorded(), 0u);
  EXPECT_TRUE(T.snapshot().empty());
  EXPECT_TRUE(Profiler::global().snapshot().empty());
}

TEST_F(TraceTest, TracerOnlyScopesRecordMatchedBeginEndAndNoPhase) {
  Tracer &T = Tracer::global();
  T.enable(64);
  {
    Scope Outer("test", "outer");
    {
      Scope Inner("test", "inner");
      T.instant("test", "mark");
    }
  }
  T.disable();
  EXPECT_TRUE(Profiler::global().snapshot().empty());
  std::vector<TraceEvent> E = T.snapshot();
  ASSERT_EQ(E.size(), 5u);
  EXPECT_EQ(E[0].Phase, TracePhase::Begin);
  EXPECT_STREQ(E[0].Name, "outer");
  EXPECT_EQ(E[1].Phase, TracePhase::Begin);
  EXPECT_STREQ(E[1].Name, "inner");
  EXPECT_EQ(E[2].Phase, TracePhase::Instant);
  EXPECT_STREQ(E[2].Name, "mark");
  EXPECT_EQ(E[3].Phase, TracePhase::End);
  EXPECT_STREQ(E[3].Name, "inner");
  EXPECT_EQ(E[4].Phase, TracePhase::End);
  EXPECT_STREQ(E[4].Name, "outer");
  EXPECT_STREQ(E[4].Category, "test");
  // Timestamps never run backwards and sequence numbers are dense.
  for (size_t I = 1; I < E.size(); ++I) {
    EXPECT_GE(E[I].TsMicros, E[I - 1].TsMicros);
    EXPECT_EQ(E[I].Seq, E[I - 1].Seq + 1);
  }
}

TEST_F(TraceTest, ProfilerOnlyScopesAccumulateAPhaseAndNoEvents) {
  Profiler &P = Profiler::global();
  P.enable();
  {
    Scope S("test", "phase.only", "input", 7);
    S.work("units", 3);
  }
  P.disable();
  EXPECT_EQ(Tracer::global().recorded(), 0u);
  std::vector<PhaseStats> Phases = P.snapshot();
  ASSERT_EQ(Phases.size(), 1u);
  EXPECT_EQ(Phases[0].Name, "phase.only");
  EXPECT_EQ(Phases[0].Count, 1u);
  ASSERT_NE(Phases[0].work("units"), nullptr);
  EXPECT_EQ(*Phases[0].work("units"), 3u);
}

TEST_F(TraceTest, SinksEnabledMidScopeSeeNothingOfIt) {
  Tracer &T = Tracer::global();
  Profiler &P = Profiler::global();
  {
    Scope Before("test", "before");
    T.enable(16);
    P.enable();
    Before.work("units", 1);
    Before.arg("late", 1);
  }
  // Neither sink was on when the scope opened: no unmatched End, no
  // partial phase.
  EXPECT_EQ(T.recorded(), 0u);
  EXPECT_TRUE(P.snapshot().empty());

  // The tracer alone was on at open: a full Begin/End pair, and still
  // no phase from the profiler switched on inside.
  P.disable();
  {
    Scope Traced("test", "traced");
    P.enable();
  }
  T.disable();
  P.disable();
  std::vector<TraceEvent> E = T.snapshot();
  ASSERT_EQ(E.size(), 2u);
  EXPECT_EQ(E[0].Phase, TracePhase::Begin);
  EXPECT_EQ(E[1].Phase, TracePhase::End);
  EXPECT_TRUE(P.snapshot().empty());
}

TEST_F(TraceTest, ScopeArgsTravelWithTheEndEvent) {
  Tracer &T = Tracer::global();
  T.enable(16);
  {
    Scope S("test", "work", "input", 7);
    S.arg("output", 42);
    // A third arg overwrites the second slot.
    S.arg("final", 9);
  }
  T.disable();
  std::vector<TraceEvent> E = T.snapshot();
  ASSERT_EQ(E.size(), 2u);
  EXPECT_EQ(E[0].ArgCount, 0u);
  ASSERT_EQ(E[1].ArgCount, 2u);
  EXPECT_STREQ(E[1].Args[0].Key, "input");
  EXPECT_EQ(E[1].Args[0].Value, 7);
  EXPECT_STREQ(E[1].Args[1].Key, "final");
  EXPECT_EQ(E[1].Args[1].Value, 9);
}

TEST_F(TraceTest, ProfileAndTraceOfAVoRunCountTheSameScopes) {
  Tracer &T = Tracer::global();
  Profiler &P = Profiler::global();
  T.enable(1 << 17);
  P.enable();
  VoConfig Config;
  Config.JobCount = 8;
  runVirtualOrganization(Config, StrategyKind::S1, /*Seed=*/3);
  T.disable();
  P.disable();
  ASSERT_EQ(T.dropped(), 0u) << "ring too small for the run";

  std::map<std::string, uint64_t> Begins;
  for (const TraceEvent &E : T.snapshot())
    if (E.Phase == TracePhase::Begin)
      ++Begins[E.Name];
  std::map<std::string, uint64_t> Counts;
  for (const PhaseStats &S : P.snapshot())
    Counts[S.Name] = S.Count;
  EXPECT_TRUE(Counts.count("strategy.build"));
  EXPECT_TRUE(Counts.count("chain.dp"));
  EXPECT_TRUE(Counts.count("sim.run"));
  EXPECT_EQ(Counts, Begins);
}

TEST_F(TraceTest, RingWraparoundKeepsTheNewestEvents) {
  Tracer &T = Tracer::global();
  T.enable(8);
  for (int64_t I = 0; I < 20; ++I)
    T.instant("test", "tick", "i", I);
  T.disable();
  EXPECT_EQ(T.recorded(), 20u);
  EXPECT_EQ(T.dropped(), 12u);
  std::vector<TraceEvent> E = T.snapshot();
  ASSERT_EQ(E.size(), 8u);
  // The survivors are the last 8, oldest first.
  for (size_t I = 0; I < E.size(); ++I) {
    EXPECT_EQ(E[I].Seq, 12 + I);
    ASSERT_EQ(E[I].ArgCount, 1u);
    EXPECT_EQ(E[I].Args[0].Value, static_cast<int64_t>(12 + I));
  }
}

TEST_F(TraceTest, ChromeJsonIsStructurallyValid) {
  Tracer &T = Tracer::global();
  T.enable(64);
  {
    Scope S("core", "scheduleJob", "tasks", 5);
    T.instant("flow", "job.commit", "variant", 2);
  }
  // A name needing escaping must not break the output.
  T.instant("test", "weird \"name\"\n");
  T.disable();
  std::string Json = T.chromeJson();
  EXPECT_TRUE(validJson(Json)) << Json;
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(Json.find("\"args\":{\"variant\":2}"), std::string::npos);
}

TEST_F(TraceTest, EmptyTracerStillExportsValidJson) {
  std::string Json = Tracer::global().chromeJson();
  EXPECT_TRUE(validJson(Json)) << Json;
}

TEST_F(TraceTest, ConcurrentRecordingLosesNoEvents) {
  Tracer &T = Tracer::global();
  constexpr size_t Threads = 4;
  constexpr size_t PerThread = 2000;
  // Each iteration records Begin + instant + End; size the ring so
  // nothing wraps.
  T.enable(Threads * PerThread * 3);
  std::vector<std::thread> Workers;
  for (size_t W = 0; W < Threads; ++W)
    Workers.emplace_back([&T] {
      for (size_t I = 0; I < PerThread; ++I) {
        Scope S("test", "worker");
        T.instant("test", "tick");
      }
    });
  for (auto &W : Workers)
    W.join();
  T.disable();
  // Each iteration records Begin + instant + End.
  EXPECT_EQ(T.recorded(), Threads * PerThread * 3);
  EXPECT_EQ(T.snapshot().size(), Threads * PerThread * 3);
  EXPECT_TRUE(validJson(T.chromeJson()));
}

TEST_F(TraceTest, CategoryFilterMasksUnlistedCategories) {
  Tracer &T = Tracer::global();
  T.setCategoryFilter("core, flow");
  T.enable(64);
  T.instant("core", "keep1");
  T.instant("sim", "drop1");
  T.instant("flow", "keep2");
  T.instant("sim", "drop2");
  T.disable();
  EXPECT_EQ(T.filtered(), 2u);
  std::vector<TraceEvent> E = T.snapshot();
  ASSERT_EQ(E.size(), 2u);
  EXPECT_STREQ(E[0].Name, "keep1");
  EXPECT_STREQ(E[1].Name, "keep2");
  EXPECT_TRUE(T.categoryEnabled("core"));
  EXPECT_TRUE(T.categoryEnabled("flow"));
  EXPECT_FALSE(T.categoryEnabled("sim"));
}

TEST_F(TraceTest, EmptyCategoryFilterRecordsEverything) {
  Tracer &T = Tracer::global();
  T.setCategoryFilter("");
  T.enable(16);
  T.instant("core", "a");
  T.instant("sim", "b");
  T.disable();
  EXPECT_EQ(T.filtered(), 0u);
  EXPECT_EQ(T.snapshot().size(), 2u);
  EXPECT_TRUE(T.categoryEnabled("anything"));
}

TEST_F(TraceTest, ResetClearsTheCategoryFilter) {
  Tracer &T = Tracer::global();
  T.setCategoryFilter("core");
  T.reset();
  T.enable(16);
  T.instant("sim", "survives");
  T.disable();
  EXPECT_EQ(T.filtered(), 0u);
  EXPECT_EQ(T.snapshot().size(), 1u);
}

TEST_F(TraceTest, ReenableResetsEpochAndRing) {
  Tracer &T = Tracer::global();
  T.enable(8);
  T.instant("test", "old");
  T.enable(8);
  T.instant("test", "new");
  T.disable();
  std::vector<TraceEvent> E = T.snapshot();
  ASSERT_EQ(E.size(), 1u);
  EXPECT_STREQ(E[0].Name, "new");
  EXPECT_EQ(E[0].Seq, 0u);
}

} // namespace
