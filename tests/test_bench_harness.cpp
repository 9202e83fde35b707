//===-- tests/test_bench_harness.cpp - Bench harness tests ----------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
//
// The structured benchmark harness: registration, the warmup /
// repetition discipline, work-counter stability enforcement, the
// BENCH_*.json round trip with its provenance stamp, and the
// compareBench verdict taxonomy (Identical / Compatible / Regressed /
// Refused) that backs the CI ratchet.
//
//===----------------------------------------------------------------------===//

#include "harness.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

using namespace cws;
using namespace cws::bench;

namespace {

// Registration happens via static initializers, so these fixture
// benches live at namespace scope and record into globals the tests
// inspect. Only runBench invocations below execute them.
int FixtureCalls = 0;
int FixtureMeasuredCalls = 0;

CWS_BENCH(harness_fixture, "test fixture: one metric, stable work",
          /*Reps=*/3, /*Warmup=*/2, /*Profile=*/true) {
  ++FixtureCalls;
  if (Ctx.measured())
    ++FixtureMeasuredCalls;
  Ctx.setSeed(7);
  Ctx.setExecSeed(11);
  Ctx.setInvalidation("scan");
  Ctx.setConfig("jobs=5\n");
  Ctx.setWork("units", 40);
  Ctx.addMetric("latency_us", 100.0 + 10.0 * Ctx.rep());
  Ctx.check("always holds", true);
  obs::Scope Phase("test", "fixture.phase");
}

CWS_BENCH(harness_unstable_fixture, "test fixture: rep-varying work",
          /*Reps=*/2, /*Warmup=*/0, /*Profile=*/false) {
  Ctx.setSeed(1);
  Ctx.setWork("drifting", 10 + Ctx.rep());
}

const BenchInfo *findBench(const std::string &Name) {
  for (const BenchInfo *B : BenchRegistry::global().all())
    if (Name == B->Name)
      return B;
  return nullptr;
}

const uint64_t *findWork(const std::vector<std::pair<std::string, uint64_t>> &W,
                         const std::string &Counter) {
  for (const auto &[Name, Value] : W)
    if (Name == Counter)
      return &Value;
  return nullptr;
}

TEST(BenchRegistryTest, MacroRegistersSortedByName) {
  std::vector<const BenchInfo *> All = BenchRegistry::global().all();
  ASSERT_GE(All.size(), 2u);
  for (size_t I = 1; I < All.size(); ++I)
    EXPECT_LT(std::string(All[I - 1]->Name), std::string(All[I]->Name));
  const BenchInfo *Fixture = findBench("harness_fixture");
  ASSERT_NE(Fixture, nullptr);
  EXPECT_EQ(Fixture->DefaultReps, 3);
  EXPECT_EQ(Fixture->DefaultWarmup, 2);
  EXPECT_TRUE(Fixture->Profile);
}

TEST(BenchRunTest, WarmupRepsAndProvenanceStamp) {
  const BenchInfo *Fixture = findBench("harness_fixture");
  ASSERT_NE(Fixture, nullptr);
  FixtureCalls = 0;
  FixtureMeasuredCalls = 0;
  BenchRun Run = runBench(*Fixture, /*Reps=*/0, /*Warmup=*/-1,
                          "cws-bench harness_fixture");
  // Defaults apply: 2 warmup + 3 measured bodies.
  EXPECT_EQ(FixtureCalls, 5);
  EXPECT_EQ(FixtureMeasuredCalls, 3);
  EXPECT_EQ(Run.Reps, 3);
  EXPECT_EQ(Run.Warmup, 2);
  EXPECT_TRUE(Run.passed());

  // Provenance carries what the body stamped.
  EXPECT_TRUE(Run.Prov.Stamped);
  EXPECT_EQ(Run.Prov.Seed, 7u);
  EXPECT_EQ(Run.ExecSeed, 11u);
  EXPECT_EQ(Run.Invalidation, "scan");
  EXPECT_EQ(Run.Prov.ScenarioId, "bench:harness_fixture");
  EXPECT_FALSE(Run.Prov.ConfigHash.empty());
  EXPECT_EQ(Run.Prov.Cli, "cws-bench harness_fixture");

  // Work recorded once per rep, stable, so it survives as one counter.
  const uint64_t *Units = findWork(Run.Work, "units");
  ASSERT_NE(Units, nullptr);
  EXPECT_EQ(*Units, 40u);

  // The metric pooled all three measured samples: 100, 110, 120.
  ASSERT_TRUE(Run.Metrics.count("latency_us"));
  const obs::SweepIndicatorStats &Lat = Run.Metrics.at("latency_us");
  EXPECT_EQ(Lat.N, 3u);
  EXPECT_DOUBLE_EQ(Lat.Mean, 110.0);
  EXPECT_DOUBLE_EQ(Lat.Min, 100.0);
  EXPECT_DOUBLE_EQ(Lat.Max, 120.0);

  // wall_us is recorded automatically for every measured rep.
  ASSERT_TRUE(Run.Metrics.count("wall_us"));
  EXPECT_EQ(Run.Metrics.at("wall_us").N, 3u);

  // Profile=true benches get the merged phase profile attached.
  bool SawPhase = false;
  for (const obs::PhaseStats &P : Run.Profile)
    SawPhase = SawPhase || P.Name == "fixture.phase";
  EXPECT_TRUE(SawPhase);
}

TEST(BenchRunTest, UnstableWorkFailsTheRun) {
  const BenchInfo *Unstable = findBench("harness_unstable_fixture");
  ASSERT_NE(Unstable, nullptr);
  BenchRun Run = runBench(*Unstable, 0, -1, "test");
  EXPECT_FALSE(Run.passed());
  bool SawStability = false;
  for (const CheckOutcome &C : Run.Checks)
    if (C.What.find("work_stable") != std::string::npos) {
      SawStability = true;
      EXPECT_FALSE(C.Pass);
    }
  EXPECT_TRUE(SawStability);
}

TEST(BenchJsonTest, RoundTrip) {
  const BenchInfo *Fixture = findBench("harness_fixture");
  ASSERT_NE(Fixture, nullptr);
  BenchRun Run = runBench(*Fixture, 0, -1, "cws-bench");
  std::string Json = Run.json();

  ParsedBench P;
  std::string Error;
  ASSERT_TRUE(parseBenchJson(Json, P, Error)) << Error;
  EXPECT_EQ(P.Name, "harness_fixture");
  EXPECT_EQ(P.Seed, 7u);
  EXPECT_EQ(P.ExecSeed, 11u);
  EXPECT_EQ(P.Invalidation, "scan");
  EXPECT_EQ(P.ConfigHash, Run.Prov.ConfigHash);
  EXPECT_EQ(P.Scenario, "bench:harness_fixture");
  EXPECT_EQ(P.Reps, 3);
  EXPECT_EQ(P.Warmup, 2);
  const uint64_t *Units = findWork(P.Work, "units");
  ASSERT_NE(Units, nullptr);
  EXPECT_EQ(*Units, 40u);
  ASSERT_TRUE(P.Metrics.count("latency_us"));
  EXPECT_DOUBLE_EQ(P.Metrics.at("latency_us").Mean, 110.0);
  EXPECT_GT(P.ProfilePhases, 0u);

  EXPECT_FALSE(parseBenchJson("not json", P, Error));
  EXPECT_FALSE(parseBenchJson("{\"schema\":\"nope\"}", P, Error));
}

/// A baseline ParsedBench the verdict tests perturb.
ParsedBench baselineBench() {
  ParsedBench B;
  B.Name = "fixture";
  B.Seed = 7;
  B.ExecSeed = 7;
  B.ConfigHash = "0x00000000000000aa";
  B.Scenario = "bench:fixture";
  B.Invalidation = "index";
  B.Cli = "cws-bench fixture";
  B.Shards = 1;
  B.Reps = 3;
  B.Work = {{"labels", 1000}, {"placements", 50}};
  B.Checks = {{"oracle agrees", true}};
  obs::SweepIndicatorStats S;
  S.N = 3;
  S.Mean = 100;
  S.Ci95 = 5;
  S.P50 = 100;
  S.P90 = 104;
  S.P99 = 105;
  S.Min = 95;
  S.Max = 105;
  B.Metrics["wall_us"] = S;
  return B;
}

TEST(BenchCompareTest, IdenticalRuns) {
  ParsedBench Base = baselineBench();
  BenchCompareResult R = compareBench(Base, Base);
  EXPECT_EQ(R.Verdict, BenchVerdict::Identical);
  EXPECT_TRUE(R.Gated.empty());
  EXPECT_TRUE(R.Advisory.empty());
}

TEST(BenchCompareTest, MetricWobbleIsAdvisoryOnly) {
  ParsedBench Base = baselineBench();
  ParsedBench New = Base;
  // 5x wall time: far outside CI overlap and quantile tolerance, but
  // metrics never gate.
  obs::SweepIndicatorStats &S = New.Metrics["wall_us"];
  S.Mean *= 5;
  S.P50 *= 5;
  S.P90 *= 5;
  S.P99 *= 5;
  S.Min *= 5;
  S.Max *= 5;
  BenchCompareResult R = compareBench(Base, New);
  EXPECT_EQ(R.Verdict, BenchVerdict::Compatible);
  EXPECT_TRUE(R.Gated.empty());
  EXPECT_FALSE(R.Advisory.empty());
}

TEST(BenchCompareTest, SmallWobbleInsideCiIsCompatibleWithoutFindings) {
  ParsedBench Base = baselineBench();
  ParsedBench New = Base;
  // Inside CI overlap (|103-100| <= 5+5) and the 10% quantile band:
  // metrics moved, but no advisory finding.
  obs::SweepIndicatorStats &S = New.Metrics["wall_us"];
  S.Mean = 103;
  S.P50 = 102;
  BenchCompareResult R = compareBench(Base, New);
  EXPECT_EQ(R.Verdict, BenchVerdict::Compatible);
  EXPECT_TRUE(R.Gated.empty());
  EXPECT_TRUE(R.Advisory.empty());
}

TEST(BenchCompareTest, MetricsFollowTheSweepDiffRules) {
  ParsedBench Base = baselineBench();
  // n/a on both sides is the same statistic, not a move.
  Base.Metrics["wall_us"].P99 = std::nan("");
  BenchCompareResult R = compareBench(Base, Base);
  EXPECT_EQ(R.Verdict, BenchVerdict::Identical);

  // A changed sample count is never noise, even with equal statistics.
  ParsedBench New = Base;
  New.Metrics["wall_us"].N = 5;
  R = compareBench(Base, New);
  EXPECT_EQ(R.Verdict, BenchVerdict::Compatible);
  ASSERT_EQ(R.Advisory.size(), 1u);
  EXPECT_EQ(R.Advisory[0], "metric wall_us: n 3 -> 5 changed the sample count");
}

TEST(BenchCompareTest, WorkCounterChangeRegresses) {
  ParsedBench Base = baselineBench();
  ParsedBench New = Base;
  New.Work = {{"labels", 1001}, {"placements", 50}};
  BenchCompareResult R = compareBench(Base, New);
  EXPECT_EQ(R.Verdict, BenchVerdict::Regressed);
  ASSERT_FALSE(R.Gated.empty());
  EXPECT_NE(R.Gated[0].find("labels"), std::string::npos);
}

TEST(BenchCompareTest, DroppedAndAppearedWorkCountersRegress) {
  ParsedBench Base = baselineBench();
  ParsedBench New = Base;
  New.Work = {{"labels", 1000}, {"new_counter", 1}};
  BenchCompareResult R = compareBench(Base, New);
  EXPECT_EQ(R.Verdict, BenchVerdict::Regressed);
  // Both the dropped baseline counter and the appeared one are named.
  std::string AllGated;
  for (const std::string &G : R.Gated)
    AllGated += G + "\n";
  EXPECT_NE(AllGated.find("placements"), std::string::npos);
  EXPECT_NE(AllGated.find("new_counter"), std::string::npos);
}

TEST(BenchCompareTest, FailedCheckRegresses) {
  ParsedBench Base = baselineBench();
  ParsedBench New = Base;
  New.Checks = {{"oracle agrees", false}};
  BenchCompareResult R = compareBench(Base, New);
  EXPECT_EQ(R.Verdict, BenchVerdict::Regressed);
}

TEST(BenchCompareTest, IdentityMismatchRefuses) {
  ParsedBench Base = baselineBench();
  struct Perturb {
    const char *Field;
    void (*Apply)(ParsedBench &);
  };
  const Perturb Cases[] = {
      {"name", [](ParsedBench &B) { B.Name = "other"; }},
      {"config_hash",
       [](ParsedBench &B) { B.ConfigHash = "0x00000000000000bb"; }},
      {"scenario", [](ParsedBench &B) { B.Scenario = "bench:other"; }},
      {"seed", [](ParsedBench &B) { B.Seed = 8; }},
      {"exec_seed", [](ParsedBench &B) { B.ExecSeed = 8; }},
      {"invalidation", [](ParsedBench &B) { B.Invalidation = "scan"; }},
  };
  for (const Perturb &C : Cases) {
    ParsedBench New = baselineBench();
    C.Apply(New);
    BenchCompareResult R = compareBench(Base, New);
    EXPECT_EQ(R.Verdict, BenchVerdict::Refused) << C.Field;
    std::string All;
    for (const std::string &M : R.Mismatched)
      All += M + "\n";
    EXPECT_NE(All.find(C.Field), std::string::npos) << All;
  }
}

TEST(BenchCompareTest, ShardsAndCliMayDiffer) {
  // The shard-invariance contract: the same work from a differently
  // parallel run is the same result.
  ParsedBench Base = baselineBench();
  ParsedBench New = Base;
  New.Shards = 4;
  New.Cli = "cws-bench fixture --reps 9";
  New.Reps = 9;
  BenchCompareResult R = compareBench(Base, New);
  EXPECT_EQ(R.Verdict, BenchVerdict::Identical);
}

TEST(BenchCompareTest, VerdictNames) {
  EXPECT_STREQ(benchVerdictName(BenchVerdict::Identical), "identical");
  EXPECT_STREQ(benchVerdictName(BenchVerdict::Compatible), "compatible");
  EXPECT_STREQ(benchVerdictName(BenchVerdict::Regressed), "REGRESSED");
  EXPECT_STREQ(benchVerdictName(BenchVerdict::Refused), "refused");
}

} // namespace
