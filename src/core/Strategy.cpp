//===-- core/Strategy.cpp - Scheduling strategies -------------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "core/Strategy.h"
#include "job/Coarsen.h"
#include "job/Estimates.h"
#include "job/Job.h"
#include "obs/Journal.h"
#include "obs/Profiler.h"
#include "support/Check.h"
#include "support/ThreadPool.h"

#include <cmath>

#include <algorithm>
#include <limits>

using namespace cws;

const char *cws::strategyName(StrategyKind Kind) {
  switch (Kind) {
  case StrategyKind::S1:
    return "S1";
  case StrategyKind::S2:
    return "S2";
  case StrategyKind::S3:
    return "S3";
  case StrategyKind::MS1:
    return "MS1";
  }
  CWS_UNREACHABLE("unknown strategy kind");
}

DataPolicyKind cws::strategyDataPolicy(StrategyKind Kind) {
  switch (Kind) {
  case StrategyKind::S1:
  case StrategyKind::MS1:
    return DataPolicyKind::ActiveReplication;
  case StrategyKind::S2:
    return DataPolicyKind::RemoteAccess;
  case StrategyKind::S3:
    return DataPolicyKind::StaticStorage;
  }
  CWS_UNREACHABLE("unknown strategy kind");
}

bool cws::strategyBestWorstOnly(StrategyKind Kind) {
  return Kind == StrategyKind::MS1;
}

/// Distinct node performances quantized to at most MaxLevels values
/// (always keeping the fastest and the slowest).
static std::vector<double> quantizeLevels(std::vector<double> Levels,
                                          size_t MaxLevels) {
  CWS_CHECK(MaxLevels >= 2, "need at least two estimation levels");
  if (Levels.size() <= MaxLevels)
    return Levels;
  std::vector<double> Picked;
  Picked.reserve(MaxLevels);
  for (size_t I = 0; I < MaxLevels; ++I) {
    size_t Idx = I * (Levels.size() - 1) / (MaxLevels - 1);
    Picked.push_back(Levels[Idx]);
  }
  Picked.erase(std::unique(Picked.begin(), Picked.end()), Picked.end());
  return Picked;
}

/// True when \p Config lets the strategy use node \p NodeId.
static bool isAllowed(const StrategyConfig &Config, unsigned NodeId) {
  return Config.AllowedNodes.empty() ||
         std::find(Config.AllowedNodes.begin(), Config.AllowedNodes.end(),
                   NodeId) != Config.AllowedNodes.end();
}

SchedulerConfig cws::variantSchedulerConfig(const StrategyConfig &Config,
                                            const Grid &Env, double LevelPerf,
                                            OptimizationBias Bias) {
  SchedulerConfig SC;
  SC.DataKind = strategyDataPolicy(Config.Kind);
  SC.DataConfig = Config.DataConfig;
  SC.Costs = Config.Costs;
  for (const auto &N : Env.nodes())
    if (isAllowed(Config, N.id()) && N.relPerf() <= LevelPerf + 1e-9)
      SC.Alloc.CandidateNodes.push_back(N.id());
  SC.Alloc.Bias = Bias;
  SC.Alloc.NodeSwitchPenalty =
      Config.Kind == StrategyKind::S3 ? Config.CoarsePenalty : 0.0;
  SC.Alloc.MaxFrontSize = Config.MaxFrontSize;
  return SC;
}

/// True when both distributions place every task identically.
static bool sameDistribution(const Distribution &A, const Distribution &B) {
  if (A.size() != B.size())
    return false;
  for (const auto &P : A.placements()) {
    const Placement *Q = B.find(P.TaskId);
    if (!Q || Q->NodeId != P.NodeId || Q->Start != P.Start || Q->End != P.End)
      return false;
  }
  return true;
}

Strategy Strategy::build(const Job &J, const Grid &Env, const Network &Net,
                         const StrategyConfig &Config, OwnerId Owner,
                         Tick Now) {
  obs::Scope Build("core", "strategy.build", "job",
                   static_cast<int64_t>(J.id()));
  Strategy S;
  S.Kind = Config.Kind;
  S.JobId = J.id();
  S.BuiltAt = Now;
  // S3 plans the job at coarse granularity: fewer, larger tasks and
  // fewer data exchanges (the transformation keeps the QoS contract).
  if (Config.Kind == StrategyKind::S3) {
    CoarsenConfig CC;
    CC.SiblingRounds = Config.CoarsenSiblingRounds;
    CC.MaxMergedRef = Config.CoarsenMaxRef;
    S.Scheduled = coarsenJob(J, CC).Coarse;
  } else {
    S.Scheduled = J;
  }
  // Restrict to the allowed node set (a domain), when given.
  std::vector<double> NodePerfs;
  for (const auto &N : Env.nodes())
    if (isAllowed(Config, N.id()))
      NodePerfs.push_back(N.relPerf());
  CWS_CHECK(!NodePerfs.empty(), "no allowed nodes in the environment");
  std::sort(NodePerfs.begin(), NodePerfs.end(), std::greater<double>());
  NodePerfs.erase(std::unique(NodePerfs.begin(), NodePerfs.end(),
                              [](double A, double B) {
                                return std::abs(A - B) < 1e-12;
                              }),
                  NodePerfs.end());
  S.Levels = quantizeLevels(std::move(NodePerfs), Config.MaxLevels);

  std::vector<size_t> Covered;
  if (strategyBestWorstOnly(Config.Kind) && S.Levels.size() > 2)
    Covered = {0, S.Levels.size() - 1};
  else
    for (size_t I = 0; I < S.Levels.size(); ++I)
      Covered.push_back(I);

  // One build task per covered (level, bias) pair. Each task runs
  // scheduleJob against the shared read-only environment with its own
  // distribution, data policy and cost model, so the set is
  // embarrassingly parallel — the paper's strategy is precisely a set
  // of *independent* supporting schedules, one per environment event.
  struct VariantTask {
    size_t Level;
    SchedulerConfig SC;
  };
  std::vector<VariantTask> Tasks;
  for (size_t Level : Covered)
    for (OptimizationBias Bias :
         {OptimizationBias::Cost, OptimizationBias::Time}) {
      SchedulerConfig SC =
          variantSchedulerConfig(Config, Env, S.Levels[Level], Bias);
      if (SC.Alloc.CandidateNodes.empty())
        break;
      Tasks.push_back({Level, std::move(SC)});
    }

  std::vector<ScheduleVariant> Built(Tasks.size());
  auto BuildOne = [&](size_t I) {
    const VariantTask &T = Tasks[I];
    Built[I] = {T.Level, S.Levels[T.Level], T.SC.Alloc.Bias,
                scheduleJob(S.Scheduled, Env, Net, T.SC, Owner, Now)};
  };

  size_t Lanes = Config.BuildThreads > 0 ? Config.BuildThreads
                                         : ThreadPool::defaultThreads();
  if (Lanes <= 1 || Tasks.size() <= 1)
    for (size_t I = 0; I < Tasks.size(); ++I)
      BuildOne(I);
  else
    ThreadPool::global().parallelFor(Tasks.size(), BuildOne, Lanes);

  // Merge in (level, bias) order — deterministic and identical to the
  // serial build at any lane count. Identical supporting schedules add
  // no coverage; keep one.
  for (ScheduleVariant &Variant : Built) {
    bool Duplicate = false;
    for (const auto &Existing : S.Variants)
      if (Existing.feasible() == Variant.feasible() &&
          sameDistribution(Existing.Result.Dist, Variant.Result.Dist)) {
        Duplicate = true;
        break;
      }
    if (!Duplicate)
      S.Variants.push_back(std::move(Variant));
  }
  // Journal the per-variant outcomes post-merge, on the calling thread
  // and in (level, bias) order — the event stream stays byte-identical
  // at any BuildThreads lane count.
  obs::Journal &Jn = obs::Journal::global();
  if (Jn.enabled()) {
    auto JobId = static_cast<int64_t>(J.id());
    for (size_t I = 0; I < S.Variants.size(); ++I) {
      const ScheduleVariant &V = S.Variants[I];
      Jn.append(obs::JournalKind::Variant, JobId, Now,
                {{"level", static_cast<int64_t>(V.Level)},
                 {"bias", static_cast<int64_t>(V.Bias)},
                 {"feasible", V.feasible() ? 1 : 0},
                 {"cost", std::llround(V.Result.Dist.economicCost())},
                 {"cf", V.Result.Dist.costFunction(S.Scheduled)},
                 {"makespan", V.Result.Dist.makespan()}},
                optimizationBiasName(V.Bias));
      for (const CollisionRecord &C : V.Result.Collisions)
        Jn.append(obs::JournalKind::Collision, JobId, Now,
                  {{"variant", static_cast<int64_t>(I)},
                   {"task", C.TaskId},
                   {"node", C.NodeId},
                   {"wanted", C.WantedStart},
                   {"actual", C.ActualStart},
                   {"owner", static_cast<int64_t>(C.BlockingOwner)}},
                  collisionResolutionName(C.Resolution));
    }
  }
  Build.arg("variants", static_cast<int64_t>(S.Variants.size()));
  Build.work("variants_built", Tasks.size());
  Build.work("variants_kept", S.Variants.size());
  return S;
}

Strategy Strategy::repaired(const Strategy &Stale, ScheduleVariant Fixed,
                            Tick Now) {
  Strategy S;
  S.Kind = Stale.Kind;
  S.JobId = Stale.JobId;
  S.BuiltAt = Now;
  S.Scheduled = Stale.Scheduled;
  S.Levels = Stale.Levels;
  S.Variants.push_back(std::move(Fixed));
  return S;
}

size_t Strategy::feasibleCount() const {
  size_t Count = 0;
  for (const auto &V : Variants)
    if (V.feasible())
      ++Count;
  return Count;
}

const ScheduleVariant *Strategy::bestByCost() const {
  const ScheduleVariant *Best = nullptr;
  for (const auto &V : Variants) {
    if (!V.feasible())
      continue;
    if (!Best ||
        V.Result.Dist.economicCost() < Best->Result.Dist.economicCost())
      Best = &V;
  }
  return Best;
}

const ScheduleVariant *Strategy::bestByTime() const {
  const ScheduleVariant *Best = nullptr;
  for (const auto &V : Variants) {
    if (!V.feasible())
      continue;
    if (!Best || V.Result.Dist.makespan() < Best->Result.Dist.makespan())
      Best = &V;
  }
  return Best;
}

const ScheduleVariant *Strategy::bestFitting(const Grid &Current,
                                             OwnerId Ignore) const {
  const ScheduleVariant *Best = nullptr;
  for (const auto &V : Variants) {
    if (!V.feasible() || !V.Result.Dist.fitsGrid(Current, Ignore))
      continue;
    if (!Best ||
        V.Result.Dist.economicCost() < Best->Result.Dist.economicCost())
      Best = &V;
  }
  return Best;
}

std::vector<CollisionRecord> Strategy::allCollisions() const {
  std::vector<CollisionRecord> All;
  for (const auto &V : Variants)
    All.insert(All.end(), V.Result.Collisions.begin(),
               V.Result.Collisions.end());
  return All;
}
