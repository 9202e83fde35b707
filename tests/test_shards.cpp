//===-- tests/test_shards.cpp - Batched job-flow pipeline tests -----------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
//
// The batched job-flow pipeline (one job manager per flow, parallel
// prepares, serial applies in job-id order): lane-count differentials
// (byte-identical journals and per-job stats at any --shards value,
// both invalidation modes), quota enforcement within a drain, and
// lane-count resolution.
//
//===----------------------------------------------------------------------===//

#include "flow/VirtualOrganization.h"
#include "metrics/Export.h"
#include "obs/Journal.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

using namespace cws;

namespace {

class ShardTest : public ::testing::Test {
protected:
  void SetUp() override { obs::Journal::global().reset(); }
  void TearDown() override { obs::Journal::global().reset(); }
};

/// One journaled multi-flow run; returns the journal bytes and the
/// per-flow per-job CSVs (everything downstream consumers see), plus
/// the per-flow results they were rendered from.
struct RunArtifacts {
  std::string Journal;
  std::vector<std::string> FlowCsvs;
  std::vector<VoRunResult> Flows;
};

RunArtifacts shardedVoRun(size_t Shards, uint64_t Seed,
                          InvalidationMode Mode, bool Exec = false,
                          double Quota = 1e12) {
  VoConfig Config;
  Config.JobCount = 36;
  // Bursty arrivals so per-tick batches genuinely hold several jobs
  // and the commit pipeline sees multi-job drains.
  Config.InterarrivalLo = 0;
  Config.InterarrivalHi = 6;
  Config.Invalidation = Mode;
  Config.ExecuteWithDeviations = Exec;
  Config.Shards = Shards;
  Config.UserQuota = Quota;
  obs::Journal &Jn = obs::Journal::global();
  Jn.reset();
  Jn.enable();
  RunArtifacts Out;
  Out.Flows =
      runMultiFlowVo(Config, {StrategyKind::S1, StrategyKind::S3}, Seed);
  Jn.disable();
  Out.Journal = Jn.jsonl();
  for (const VoRunResult &R : Out.Flows)
    Out.FlowCsvs.push_back(voStatsCsv(R.Jobs));
  Jn.reset();
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Shard-count differential: byte-identical journals and stats
//===----------------------------------------------------------------------===//

TEST_F(ShardTest, JournalsAndStatsAreByteIdenticalAtAnyShardCount) {
  for (uint64_t Seed : {3u, 7u, 11u}) {
    for (InvalidationMode Mode :
         {InvalidationMode::Scan, InvalidationMode::Index}) {
      RunArtifacts Base = shardedVoRun(1, Seed, Mode);
      ASSERT_FALSE(Base.Journal.empty());
      for (size_t Shards : {size_t(2), size_t(4)}) {
        RunArtifacts Sharded = shardedVoRun(Shards, Seed, Mode);
        EXPECT_EQ(Base.Journal, Sharded.Journal)
            << "seed " << Seed << ", " << Shards << " shards, "
            << (Mode == InvalidationMode::Scan ? "scan" : "index");
        ASSERT_EQ(Base.FlowCsvs.size(), Sharded.FlowCsvs.size());
        for (size_t F = 0; F < Base.FlowCsvs.size(); ++F)
          EXPECT_EQ(Base.FlowCsvs[F], Sharded.FlowCsvs[F])
              << "seed " << Seed << ", " << Shards << " shards, flow "
              << F;
      }
    }
  }
}

TEST_F(ShardTest, ExecutionDeviationsAreShardInvariant) {
  // The per-job execution RNG derives from (flow seed, job id), so
  // actual completions must not depend on which shard ran the job or
  // on commit batching.
  RunArtifacts Base = shardedVoRun(1, /*Seed=*/5, InvalidationMode::Index,
                                   /*Exec=*/true);
  RunArtifacts Sharded = shardedVoRun(3, /*Seed=*/5, InvalidationMode::Index,
                                      /*Exec=*/true);
  EXPECT_EQ(Base.Journal, Sharded.Journal);
  EXPECT_EQ(Base.FlowCsvs, Sharded.FlowCsvs);
}

//===----------------------------------------------------------------------===//
// Quota enforcement within a drain
//===----------------------------------------------------------------------===//

TEST_F(ShardTest, TightQuotaIsNeverOverspentWithinADrain) {
  // Bursty arrivals put several commits of one flow into the same
  // drain; every charge debits at once, so a later commit of the drain
  // sees the earlier ones and a flow can never spend past its quota.
  // At this seed and quota, debits deferred to the end of the drain
  // would let the S1 flow spend ~751.
  constexpr double Quota = 500.0;
  RunArtifacts Serial = shardedVoRun(1, /*Seed=*/32, InvalidationMode::Index,
                                     /*Exec=*/false, Quota);
  ASSERT_EQ(Serial.Flows.size(), 2u);
  size_t Committed = 0, Rejected = 0;
  for (const VoRunResult &R : Serial.Flows) {
    double Spent = 0.0;
    for (const VoJobStats &St : R.Jobs) {
      if (St.Committed)
        Spent += St.Cost;
      Committed += St.Committed;
      Rejected += St.Rejected;
    }
    // canAfford admits a charge up to 1e-9 past the remaining quota.
    EXPECT_LE(Spent, Quota + 1e-6) << strategyName(R.Kind);
  }
  EXPECT_GT(Committed, 0u);
  EXPECT_GT(Rejected, 0u);
  EXPECT_NE(Serial.Journal.find("quota-denied"), std::string::npos)
      << "the quota never bound; tighten it";
  RunArtifacts Parallel = shardedVoRun(4, /*Seed=*/32, InvalidationMode::Index,
                                       /*Exec=*/false, Quota);
  EXPECT_EQ(Serial.Journal, Parallel.Journal);
  EXPECT_EQ(Serial.FlowCsvs, Parallel.FlowCsvs);
}

//===----------------------------------------------------------------------===//
// Shard-count resolution
//===----------------------------------------------------------------------===//

TEST(ShardResolve, ExplicitValueWinsEnvFillsDefaultCapsApply) {
  ASSERT_EQ(unsetenv("CWS_SHARDS"), 0);
  EXPECT_EQ(resolveShardCount(0), 1u);
  EXPECT_EQ(resolveShardCount(3), 3u);
  EXPECT_EQ(resolveShardCount(200), 64u); // pool lane cap

  ASSERT_EQ(setenv("CWS_SHARDS", "4", 1), 0);
  EXPECT_EQ(resolveShardCount(0), 4u);
  // An explicit configuration beats the environment.
  EXPECT_EQ(resolveShardCount(2), 2u);
  // Garbage and non-positive values fall back to 1.
  ASSERT_EQ(setenv("CWS_SHARDS", "banana", 1), 0);
  EXPECT_EQ(resolveShardCount(0), 1u);
  ASSERT_EQ(setenv("CWS_SHARDS", "0", 1), 0);
  EXPECT_EQ(resolveShardCount(0), 1u);
  ASSERT_EQ(setenv("CWS_SHARDS", "-3", 1), 0);
  EXPECT_EQ(resolveShardCount(0), 1u);
  ASSERT_EQ(unsetenv("CWS_SHARDS"), 0);
}

//===----------------------------------------------------------------------===//
// Config canonical text is shard-invariant
//===----------------------------------------------------------------------===//

TEST(ShardCanonical, ShardCountStaysOutOfTheConfigHash) {
  // Results are shard-invariant by construction (the differential
  // above), so the shard count must not perturb the config hash —
  // cws-diff compares the hash strictly across shard-count runs. The
  // resolved count travels as its own provenance field instead.
  ASSERT_EQ(unsetenv("CWS_SHARDS"), 0);
  VoConfig Config;
  std::string One = voConfigCanonical(Config, StrategyKind::S1);
  EXPECT_EQ(One.find("vo.shards"), std::string::npos);
  Config.Shards = 4;
  std::string Four = voConfigCanonical(Config, StrategyKind::S1);
  EXPECT_EQ(One, Four);
}
