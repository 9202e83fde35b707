//===-- bench/reg_meta_shard_scaling.cpp - Job-flow lane scaling ----------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the batched job-flow pipeline (one job manager per flow)
/// at 1, 2, 4 and 8 lanes (`VoConfig::Shards`) on a bursty arrival
/// stream (zero minimum interarrival gap, so per-tick admission batches
/// genuinely hold several jobs): jobs ingested per wall second and the
/// commit-pipeline drain latency. The hard gate is determinism, not
/// speed — every multi-lane run's journal and per-job stats are
/// compared against the 1-lane run and any difference fails the
/// recorded check (the check and metric names keep their historical
/// "shards" wording, so the committed baseline still matches). Speedup
/// is hardware-bound: on a single-core host every lane count degrades
/// to the same serial schedule and the throughput metrics only show
/// pipeline overhead.
///
//===----------------------------------------------------------------------===//

#include "flow/VirtualOrganization.h"
#include "harness.h"
#include "metrics/Export.h"
#include "obs/Diff.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "support/Check.h"

#include <chrono>
#include <string>
#include <vector>

using namespace cws;

namespace {

constexpr size_t Jobs = 120;
constexpr uint64_t Seed = 9;

VoConfig benchConfig(size_t Shards) {
  VoConfig Config;
  Config.JobCount = Jobs;
  // Bursty arrivals: gaps drawn from [0, 3] make same-tick batches the
  // rule instead of the exception, which is what the parallel prepare
  // stages feed on.
  Config.InterarrivalLo = 0;
  Config.InterarrivalHi = 3;
  Config.Shards = Shards;
  return Config;
}

/// Everything downstream consumers can see of a run.
struct RunArtifacts {
  std::string Journal;
  std::string StatsCsv;
};

RunArtifacts journaledRun(size_t Shards) {
  obs::Journal &Jn = obs::Journal::global();
  Jn.reset();
  Jn.enable();
  VoRunResult Run =
      runVirtualOrganization(benchConfig(Shards), StrategyKind::S1, Seed);
  Jn.disable();
  RunArtifacts Out{Jn.jsonl(), voStatsCsv(Run.Jobs)};
  Jn.reset();
  return Out;
}

struct ShardCost {
  double WallMs = 0;
  double DrainP50Us = 0;
  double DrainP99Us = 0;
  uint64_t CommitBatches = 0;
};

ShardCost timedRun(size_t Shards) {
  obs::Registry &R = obs::Registry::global();
  obs::Histogram &DrainUs = R.histogram(
      "cws_shard_commit_drain_us",
      {50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000});
  obs::Counter &Batches = R.counter("cws_shard_commit_batches_total");
  // The registry is global and cumulative; reset so the drain-latency
  // quantiles cover exactly this run.
  R.reset();
  uint64_t B0 = Batches.value();

  auto T0 = std::chrono::steady_clock::now();
  runVirtualOrganization(benchConfig(Shards), StrategyKind::S1, Seed);
  auto T1 = std::chrono::steady_clock::now();

  ShardCost Cost;
  Cost.WallMs =
      std::chrono::duration_cast<std::chrono::microseconds>(T1 - T0).count() /
      1000.0;
  Cost.DrainP50Us = DrainUs.quantile(0.5);
  Cost.DrainP99Us = DrainUs.quantile(0.99);
  Cost.CommitBatches = Batches.value() - B0;
  return Cost;
}

} // namespace

CWS_BENCH(meta_shard_scaling,
          "job-flow lane scaling: determinism gate + scaling curve",
          /*Reps=*/3, /*Warmup=*/1, /*Profile=*/true) {
  const std::vector<size_t> ShardCounts = {1, 2, 4, 8};
  Ctx.setSeed(Seed);
  Ctx.setExecSeed(Seed);
  Ctx.setInvalidation("index");
  Ctx.setConfig("jobs=" + std::to_string(Jobs) +
                "\ninterarrival=[0,3]\nshards=1,2,4,8\n");
  Ctx.setWork("jobs", Jobs);

  // Determinism gate first: sharding must never change what the run
  // computes, only how fast it computes it.
  RunArtifacts Base = journaledRun(1);
  obs::ParsedJournal BaseJournal;
  std::string ParseError;
  CWS_CHECK(obs::parseJournalJsonl(Base.Journal, BaseJournal, ParseError),
            "baseline journal must parse");
  Ctx.setWork("journal_events", BaseJournal.Events.size());
  for (size_t Shards : ShardCounts) {
    if (Shards == 1)
      continue;
    RunArtifacts Sharded = journaledRun(Shards);
    obs::ParsedJournal ShardedJournal;
    CWS_CHECK(obs::parseJournalJsonl(Sharded.Journal, ShardedJournal,
                                     ParseError),
              "sharded journal must parse");
    obs::DiffResult Diff = obs::diffJournals(BaseJournal, ShardedJournal);
    Ctx.check("journal identical to 1-shard run at " +
                  std::to_string(Shards) + " shards",
              Diff.identical());
    Ctx.check("per-job stats identical to 1-shard run at " +
                  std::to_string(Shards) + " shards",
              Sharded.StatsCsv == Base.StatsCsv);
  }

  // Timing pass, journal off so ingest throughput is the bottleneck.
  for (size_t Shards : ShardCounts) {
    ShardCost Cost = timedRun(Shards);
    std::string S = std::to_string(Shards);
    Ctx.setWork("commit_drains_s" + S, Cost.CommitBatches);
    Ctx.addMetric("wall_ms_s" + S, Cost.WallMs);
    Ctx.addMetric("jobs_per_sec_s" + S,
                  Cost.WallMs > 0 ? Jobs / (Cost.WallMs / 1000.0) : 0);
    Ctx.addMetric("drain_p50_us_s" + S, Cost.DrainP50Us);
    Ctx.addMetric("drain_p99_us_s" + S, Cost.DrainP99Us);
  }
}
