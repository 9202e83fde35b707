//===-- perfbench/vo_bench.cpp - End-to-end and per-layer VO benchmark ----===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository benchmark. It drives the two-level virtual
/// organization through its public API (runVirtualOrganization,
/// runMultiFlowVo) on the workloads of `perfbench/spec.json` and prints
/// one JSON result line. Usage:
///
///   vo-bench run --spec perfbench/spec.json --workload W --seed S
///                --seconds N --trace 0|1 [--jobs N] [--tamper-digest]
///
/// `run` is the orchestrator. Every simulation runs in a child process
/// of its own (`vo-bench sim`), because the peak resident set never
/// falls inside a process. The other children are `setup` (the public
/// set-up calls alone, timed from spawn) and `probe` (Strategy::build
/// per call against a fresh grid).
///
/// With --trace 0 the orchestrator cycles through the workload's seed
/// instances (instanceSeed) until the window closes and reports the
/// end-to-end metrics of these untraced runs, pooled over the
/// instances. With --trace 1 it alternates untraced and profiled runs
/// of the first instance and reports the per-layer metrics: profiler
/// phases, registry counters and the benchmark's own timings of its
/// calls into the layers.
///
/// Every run checks that the per-job decision digest (`voStatsCsv`) of
/// an instance is the same in every child, traced or not, and at the
/// workload's reference lanes when it names some; and that every job
/// ends in exactly one outcome. The result counts the instances' jobs
/// as attempted operations and jobs without exactly one outcome as
/// failed ones. Rejected jobs are a scheduling outcome, reported by
/// committed_share, not a failure.
///
//===----------------------------------------------------------------------===//

#include "flow/Metascheduler.h"
#include "flow/VirtualOrganization.h"
#include "metrics/Experiment.h"
#include "metrics/Export.h"
#include "metrics/QoS.h"
#include "obs/Metrics.h"
#include "obs/Profiler.h"
#include "obs/Provenance.h"
#include "resource/Network.h"
#include "support/Flags.h"
#include "support/Json.h"
#include "support/Stats.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace cws;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

struct Lanes {
  size_t BuildThreads = 0;
  size_t Shards = 0;
};

/// One workload of the spec file.
struct Workload {
  std::string Name;
  bool Fig4 = false;
  std::vector<StrategyKind> Flows;
  size_t Jobs = 0;
  /// Seed instances a --trace 0 run pools (see instanceSeed).
  size_t Instances = 1;
  unsigned Nodes = 0;
  Tick ArriveLo = 0;
  Tick ArriveHi = 0;
  double Slack = 0.0; // 0 = keep the base config's slack
  bool Execute = false;
  /// Strategy build threads x job-flow shards.
  Lanes Timed;
  /// Parallel lanes, {0, 0} = none. A workload with parallel lanes
  /// reports end-to-end metrics at its timed lanes and per-layer metrics
  /// at its parallel lanes, and every run checks that both give the same
  /// decisions.
  Lanes Parallel;
};

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "vo-bench: %s\n", Msg.c_str());
  std::exit(2);
}

size_t count(const json::Value &V, const char *Name) {
  const json::Value *M = V.find(Name);
  if (!M || !M->isNumber() || M->number() < 0)
    die(std::string("spec: '") + Name + "' must be a non-negative number");
  return static_cast<size_t>(M->number());
}

Workload loadWorkload(const std::string &SpecPath, const std::string &Name) {
  std::ifstream In(SpecPath);
  if (!In)
    die("cannot read spec '" + SpecPath + "'");
  std::stringstream Text;
  Text << In.rdbuf();
  json::Value Root;
  std::string Error;
  if (!json::parse(Text.str(), Root, Error))
    die("spec: " + Error);
  const json::Value *All = Root.find("workloads");
  const json::Value *V = All ? All->find(Name) : nullptr;
  if (!V)
    die("unknown workload '" + Name + "'");

  Workload W;
  W.Name = Name;
  std::string Base;
  if (!V->getString("base", Base) || (Base != "paper" && Base != "fig4"))
    die("spec: 'base' must be paper or fig4");
  W.Fig4 = Base == "fig4";
  if (const json::Value *F = V->find("flows"))
    for (const json::Value &K : F->array())
      for (StrategyKind Kind : {StrategyKind::S1, StrategyKind::S2,
                                StrategyKind::S3, StrategyKind::MS1})
        if (K.text() == strategyName(Kind))
          W.Flows.push_back(Kind);
  if (W.Flows.empty())
    die("spec: 'flows' must name strategy types");
  W.Jobs = count(*V, "jobs");
  W.Instances = std::max<size_t>(1, count(*V, "instances"));
  W.Nodes = static_cast<unsigned>(count(*V, "nodes"));
  const json::Value *Gap = V->find("interarrival");
  if (!Gap || Gap->array().size() != 2)
    die("spec: 'interarrival' must be [lo, hi]");
  W.ArriveLo = static_cast<Tick>(Gap->array()[0].number());
  W.ArriveHi = static_cast<Tick>(Gap->array()[1].number());
  V->getNumber("slack", W.Slack);
  if (const json::Value *E = V->find("execute"))
    W.Execute = E->boolean();
  W.Timed = {count(*V, "build_threads"), count(*V, "shards")};
  if (const json::Value *P = V->find("parallel"))
    W.Parallel = {count(*P, "build_threads"), count(*P, "shards")};
  if (W.Jobs == 0 || W.Nodes == 0 || W.Timed.BuildThreads == 0 ||
      W.Timed.Shards == 0)
    die("spec: jobs, nodes and lanes must be positive");
  return W;
}

VoConfig voConfigOf(const Workload &W, size_t Jobs, size_t BuildThreads,
                    size_t Shards) {
  VoConfig C = W.Fig4 ? makeFig4VoConfig() : VoConfig();
  C.JobCount = Jobs;
  C.GridCfg.MinNodes = C.GridCfg.MaxNodes = W.Nodes;
  C.InterarrivalLo = W.ArriveLo;
  C.InterarrivalHi = W.ArriveHi;
  if (W.Slack > 0)
    C.Workload.DeadlineSlack = W.Slack;
  C.ExecuteWithDeviations = W.Execute;
  C.Strategy.BuildThreads = BuildThreads;
  C.Shards = Shards;
  return C;
}

/// The VO's grid and job flow, made by the same public set-up calls in
/// the same draw order as runMultiFlowVo, so the probe sees the run's
/// own first jobs.
struct Inputs {
  Grid Env;
  std::vector<Job> Flow;
  double GenerateMs = 0.0;
};

Inputs makeInputs(const VoConfig &C, size_t NumFlows, uint64_t Seed) {
  Inputs In;
  Prng Root(Seed);
  In.Env = Grid::makeRandom(C.GridCfg, Root);
  if (C.ExecuteWithDeviations)
    for (size_t F = 0; F < NumFlows; ++F)
      Root.fork().next();
  Prng ArrivalRng = Root.fork();
  Root.fork(); // negotiation delays
  Root.fork(); // background load
  JobGenerator Gen(C.Workload, Root.next());
  auto T0 = Clock::now();
  In.Flow.reserve(C.JobCount);
  Tick At = 0;
  for (size_t I = 0; I < C.JobCount; ++I) {
    At += ArrivalRng.uniformInt(C.InterarrivalLo, C.InterarrivalHi);
    In.Flow.push_back(Gen.next(At));
  }
  In.GenerateMs = 1e3 * secondsSince(T0);
  return In;
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + 1e-6 * static_cast<double>(T.tv_usec);
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

void emit(const char *Name, double Value) {
  std::printf("%s %.17g\n", Name, Value);
}

/// Per-layer metrics of a profiled run: phase statistics from the
/// profiler, counters from the metrics registry.
void emitLayerMetrics() {
  const std::vector<obs::PhaseStats> Phases =
      obs::Profiler::global().snapshot();
  auto Phase = [&Phases](const char *Name) {
    static const obs::PhaseStats None;
    for (const obs::PhaseStats &P : Phases)
      if (P.Name == Name)
        return P;
    return None;
  };
  auto Work = [&Phase](const char *Name, const char *Counter) {
    obs::PhaseStats P = Phase(Name);
    const uint64_t *N = P.work(Counter);
    return N ? static_cast<double>(*N) : 0.0;
  };
  std::map<std::string, double> Reg;
  for (const obs::Registry::Sample &S : obs::Registry::global().samples())
    if (S.Series != "bucket")
      Reg[S.Series.empty() ? S.Name : S.Name + "." + S.Series] = S.Value;
  auto Share = [](double Part, double Whole) {
    return Whole > 0 ? Part / Whole : 0.0;
  };
  auto Ms = [](double Us) { return Us / 1e3; };

  emit("sim.events", Reg["cws_sim_events_total"]);
  emit("sim.tick.self_ms", Ms(Phase("sim.tick").SelfUs));
  emit("meta.admission.count", Phase("meta.admission").Count);
  emit("meta.admission.self_ms", Ms(Phase("meta.admission").SelfUs));
  emit("commit.prepare.total_ms", Ms(Phase("commit.prepare").TotalUs));
  emit("commit.apply.self_ms", Ms(Phase("commit.apply").SelfUs));
  emit("commit.apply.total_ms", Ms(Phase("commit.apply").TotalUs));
  emit("tender.eval.self_ms", Ms(Phase("tender.eval").SelfUs));
  double Kept = Reg["cws_shard_tender_kept_total"];
  double Retried = Reg["cws_shard_tender_retried_total"];
  emit("tender.retried_share", Share(Retried, Kept + Retried));
  emit("economy.merge.self_ms", Ms(Phase("economy.merge").SelfUs));
  emit("shard.commit_drain_us.p99", Reg["cws_shard_commit_drain_us.p99"]);
  emit("meta.repair.self_ms", Ms(Phase("meta.repair").SelfUs));
  double Attempts = Reg["cws_meta_realloc_attempts_total"];
  emit("realloc.attempts", Attempts);
  emit("realloc.resolved_share",
       Share(Reg["cws_meta_reallocations_total"], Attempts));
  emit("realloc.rebuilt_share",
       Share(Reg["cws_meta_realloc_rebuilt_total"], Attempts));
  emit("env.changes", Reg["cws_env_changes_total"]);
  emit("env.invalidate.self_ms", Ms(Phase("env.invalidate").SelfUs));
  emit("env.invalidate.placements", Work("env.invalidate", "placements"));
  emit("env.index_candidates", Reg["cws_env_index_candidates_total"]);
  emit("env.index_intersections", Reg["cws_env_index_intersections_total"]);
  obs::PhaseStats Build = Phase("strategy.build");
  emit("strategy.build.count", Build.Count);
  emit("strategy.build.self_ms", Ms(Build.SelfUs));
  emit("strategy.build.p50_us", Build.Count ? Build.P50Us : 0.0);
  emit("strategy.build.p99_us", Build.Count ? Build.P99Us : 0.0);
  emit("strategy.variants_kept_share",
       Share(Work("strategy.build", "variants_kept"),
             Work("strategy.build", "variants_built")));
  emit("chain.dp.self_ms", Ms(Phase("chain.dp").SelfUs));
  emit("chain.dp.labels", Work("chain.dp", "labels"));
  emit("chain.front_evictions", Reg["cws_chain_front_evictions_total"]);
  emit("scheduler.collisions", Reg["cws_scheduler_collisions_total"]);
  emit("scheduler.infeasible", Reg["cws_scheduler_infeasible_total"]);
}

struct ChildFlags {
  std::string Spec = "perfbench/spec.json";
  std::string Workload;
  int64_t Seed = 1;
  int64_t Jobs = 0;
  int64_t BuildThreads = 1;
  int64_t Shards = 1;
  bool Profile = false;
};

/// `sim`: one simulation; prints `name value` lines.
int runSim(const Workload &W, const ChildFlags &F) {
  VoConfig C = voConfigOf(W, static_cast<size_t>(F.Jobs),
                          static_cast<size_t>(F.BuildThreads),
                          static_cast<size_t>(F.Shards));
  if (F.Profile)
    obs::Profiler::global().enable();
  double Cpu0 = cpuSeconds();
  auto T0 = Clock::now();
  std::vector<VoRunResult> Runs =
      runMultiFlowVo(C, W.Flows, static_cast<uint64_t>(F.Seed));
  double Wall = secondsSince(T0);
  double Cpu = cpuSeconds() - Cpu0;
  obs::Profiler::global().disable();

  size_t Jobs = 0, Committed = 0, Decided = 0;
  double CostSum = 0.0, ResponseSum = 0.0;
  std::string Decisions;
  for (const VoRunResult &R : Runs) {
    VoAggregates A = summarizeVo(R);
    Jobs += A.Jobs;
    Committed += A.Committed;
    CostSum += A.MeanCost * static_cast<double>(A.Committed);
    ResponseSum += A.MeanResponseTicks * static_cast<double>(A.Committed);
    // Every job ends in exactly one outcome: committed, rejected after
    // admission, or inadmissible on arrival.
    for (const VoJobStats &St : R.Jobs)
      Decided += (St.Committed + St.Rejected + !St.Admissible) == 1;
    Decisions += std::string("flow ") + strategyName(R.Kind) + "\n" +
                 voStatsCsv(R.Jobs);
  }
  rusage U{};
  getrusage(RUSAGE_SELF, &U);

  emit("wall_s", Wall);
  emit("cpu_s", Cpu);
  emit("rss_mb", static_cast<double>(U.ru_maxrss) / 1024.0);
  emit("jobs", static_cast<double>(Jobs));
  emit("committed", static_cast<double>(Committed));
  emit("decided", static_cast<double>(Decided));
  emit("mean_cost", Committed ? CostSum / static_cast<double>(Committed) : 0);
  emit("mean_response_ticks",
       Committed ? ResponseSum / static_cast<double>(Committed) : 0);
  std::printf("digest %s\n", obs::configHashOf(Decisions).c_str());
  if (F.Profile)
    emitLayerMetrics();
  return 0;
}

/// `setup`: the VO's public set-up calls for the workload's jobs.
int runSetup(const Workload &W, const ChildFlags &F) {
  VoConfig C = voConfigOf(W, static_cast<size_t>(F.Jobs), 1, 1);
  Inputs In = makeInputs(C, W.Flows.size(), static_cast<uint64_t>(F.Seed));
  emit("gen_ms", In.GenerateMs);
  return In.Flow.size() == C.JobCount ? 0 : 1;
}

/// `probe`: Strategy::build per call, for the workload's first jobs
/// against the fresh grid, so its cost carries no history.
int runProbe(const Workload &W, const ChildFlags &F) {
  constexpr size_t ProbeJobs = 100;
  constexpr size_t Passes = 10;
  VoConfig C = voConfigOf(W, std::min<size_t>(ProbeJobs, F.Jobs),
                          static_cast<size_t>(F.BuildThreads), 1);
  Inputs In = makeInputs(C, W.Flows.size(), static_cast<uint64_t>(F.Seed));
  Network Net;
  std::vector<double> Us;
  for (size_t P = 0; P < Passes; ++P)
    for (size_t I = 0; I < In.Flow.size(); ++I) {
      const Job &J = In.Flow[I];
      StrategyConfig SC = C.Strategy;
      SC.Kind = W.Flows[I % W.Flows.size()];
      auto T0 = Clock::now();
      Strategy::build(J, In.Env, Net, SC, Metascheduler::ownerOf(J.id()),
                      J.release());
      Us.push_back(1e6 * secondsSince(T0));
    }
  emit("probe.build_us.p50", quantile(Us, 0.50));
  emit("probe.build_us.p99", quantile(Us, 0.99));
  return 0;
}

/// Output of one child process.
struct Child {
  std::map<std::string, std::string> Values;
  /// Seconds from spawn to the child's first output line.
  double FirstLineS = 0.0;

  std::string text(const std::string &Key) const {
    auto It = Values.find(Key);
    return It == Values.end() ? std::string() : It->second;
  }
  double num(const std::string &Key) const {
    auto It = Values.find(Key);
    return It == Values.end() ? 0.0 : std::strtod(It->second.c_str(), nullptr);
  }
};

std::string selfPath() {
  char Buf[4096];
  ssize_t N = readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N <= 0)
    die("cannot resolve /proc/self/exe");
  return std::string(Buf, static_cast<size_t>(N));
}

/// Runs this executable with \p Args, waits for it and parses its
/// `name value` output lines. A child that fails ends the benchmark
/// without a result.
Child spawnSelf(const std::vector<std::string> &Args) {
  static const std::string Self = selfPath();
  std::vector<char *> Argv;
  Argv.push_back(const_cast<char *>(Self.c_str()));
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);

  int Pipe[2];
  if (pipe(Pipe) != 0)
    die("pipe failed");
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&Actions, Pipe[0]);
  posix_spawn_file_actions_addclose(&Actions, Pipe[1]);
  Child Out;
  pid_t Pid = 0;
  auto T0 = Clock::now();
  int Rc = posix_spawn(&Pid, Self.c_str(), &Actions, nullptr, Argv.data(),
                       environ);
  posix_spawn_file_actions_destroy(&Actions);
  close(Pipe[1]);
  if (Rc != 0) {
    close(Pipe[0]);
    die("posix_spawn failed");
  }
  std::string Text;
  char Buf[4096];
  for (;;) {
    ssize_t N = read(Pipe[0], Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    if (Out.FirstLineS == 0.0 && std::memchr(Buf, '\n', static_cast<size_t>(N)))
      Out.FirstLineS = secondsSince(T0);
    Text.append(Buf, static_cast<size_t>(N));
  }
  close(Pipe[0]);
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    die("child '" + Args.front() + "' failed");
  std::istringstream Lines(Text);
  std::string Key, Value;
  while (Lines >> Key >> Value)
    Out.Values[Key] = Value;
  return Out;
}

struct MetricDef {
  const char *Name;
  const char *Unit;
};

const MetricDef EndToEnd[] = {
    {"jobs_per_s", "jobs/s"},       {"cpu_ms_per_job", "ms"},
    {"peak_rss_mb", "MB"},          {"setup_s", "s"},
    {"committed_share", "ratio"},   {"mean_cost", "quota"},
    {"mean_response_ticks", "ticks"},
};

const MetricDef PerLayer[] = {
    {"sim.events", "count"},
    {"sim.tick.self_ms", "ms"},
    {"meta.admission.count", "count"},
    {"meta.admission.self_ms", "ms"},
    {"commit.prepare.total_ms", "ms"},
    {"commit.apply.self_ms", "ms"},
    {"commit.apply.total_ms", "ms"},
    {"tender.eval.self_ms", "ms"},
    {"tender.retried_share", "ratio"},
    {"economy.merge.self_ms", "ms"},
    {"shard.commit_drain_us.p99", "us"},
    {"meta.repair.self_ms", "ms"},
    {"realloc.attempts", "count"},
    {"realloc.resolved_share", "ratio"},
    {"realloc.rebuilt_share", "ratio"},
    {"env.changes", "count"},
    {"env.invalidate.self_ms", "ms"},
    {"env.invalidate.placements", "count"},
    {"env.index_candidates", "count"},
    {"env.index_intersections", "count"},
    {"strategy.build.count", "count"},
    {"strategy.build.self_ms", "ms"},
    {"strategy.build.p50_us", "us"},
    {"strategy.build.p99_us", "us"},
    {"strategy.variants_kept_share", "ratio"},
    {"chain.dp.self_ms", "ms"},
    {"chain.dp.labels", "count"},
    {"chain.front_evictions", "count"},
    {"scheduler.collisions", "count"},
    {"scheduler.infeasible", "count"},
    {"probe.build_us.p50", "us"},
    {"probe.build_us.p99", "us"},
    {"job.generate_ms", "ms"},
    {"pool.cpu_per_wall", "ratio"},
    {"obs.trace_overhead", "ratio"},
};

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

std::vector<double> column(const std::vector<Child> &Runs,
                           const std::string &Key) {
  std::vector<double> Out;
  for (const Child &C : Runs)
    Out.push_back(C.num(Key));
  return Out;
}

/// VO seed of instance \p K of a run seeded \p Seed.
uint64_t instanceSeed(const Workload &W, int64_t Seed, size_t K) {
  return static_cast<uint64_t>(Seed) * W.Instances + K;
}

/// `run`: the orchestrator.
int runBench(const Workload &W, const ChildFlags &F, int64_t Seconds,
             bool Trace, bool TamperDigest) {
  // Set-up children run in small groups before every simulation, so
  // their median samples the whole window rather than one moment of it.
  constexpr int SetupsPerRun = 3;
  auto Args = [&](const char *Mode, size_t K, Lanes L, bool Profile) {
    return std::vector<std::string>{
        Mode,
        "--spec",
        F.Spec,
        "--workload",
        W.Name,
        "--seed",
        std::to_string(instanceSeed(W, F.Seed, K)),
        "--jobs",
        std::to_string(F.Jobs),
        "--build-threads",
        std::to_string(L.BuildThreads),
        "--shards",
        std::to_string(L.Shards),
        Profile ? "--profile=1" : "--profile=0"};
  };

  bool Correct = true;
  auto Check = [&Correct](bool Cond, const std::string &What) {
    if (!Cond && Correct)
      std::fprintf(stderr, "vo-bench: check failed: %s\n", What.c_str());
    Correct = Correct && Cond;
  };

  // Wall time at parallel lanes swings with any other load on the host
  // (a stalled lane stalls the per-tick barrier), so end-to-end metrics
  // come from the timed lanes and the parallel lanes are profiled.
  // Either way one run at the other lanes checks the decision digest.
  const bool HasParallel = W.Parallel.BuildThreads > 0;
  const Lanes Measured = Trace && HasParallel ? W.Parallel : W.Timed;
  std::string RefDigest;
  if (HasParallel)
    RefDigest = spawnSelf(Args("sim", 0, Trace ? W.Timed : W.Parallel, false))
                    .text("digest");

  Child Probe;
  if (Trace)
    Probe = spawnSelf(Args("probe", 0, {Measured.BuildThreads, 1}, false));

  // --trace 0 cycles through the instances; --trace 1 alternates
  // untraced and profiled runs of instance 0. Either way the window
  // closes only once every instance (mode) has a run.
  const size_t Instances = Trace ? 1 : W.Instances;
  std::vector<std::vector<Child>> Plain(Instances);
  std::vector<Child> Traced, Setups;
  size_t Runs = 0;
  auto T0 = Clock::now();
  for (;; ++Runs) {
    bool Profile = Trace && Runs % 2 == 1;
    size_t K = Trace ? 0 : Runs % Instances;
    for (int S = 0; S < SetupsPerRun; ++S)
      Setups.push_back(spawnSelf(Args("setup", K, {1, 1}, false)));
    Child R = spawnSelf(Args("sim", K, Measured, Profile));
    (Profile ? Traced : Plain[K]).push_back(std::move(R));
    if (secondsSince(T0) >= static_cast<double>(Seconds) &&
        Runs + 1 >= (Trace ? 2 : Instances))
      break;
  }
  ++Runs;
  if (TamperDigest)
    (Trace ? Traced : Plain[0]).back().Values["digest"] += "-tampered";

  double Jobs = 0, Committed = 0, Decided = 0, CostSum = 0, ResponseSum = 0;
  double WallSum = 0, CpuSum = 0;
  std::vector<double> Rss;
  for (size_t K = 0; K < Instances; ++K) {
    const Child &First = Plain[K].front();
    const std::string Digest = First.text("digest");
    for (const Child &R : Plain[K])
      Check(R.text("digest") == Digest,
            "decision digest differs between runs");
    if (K == 0) {
      for (const Child &R : Traced)
        Check(R.text("digest") == Digest,
              "decision digest differs between untraced and traced runs");
      if (!RefDigest.empty())
        Check(RefDigest == Digest,
              "decision digest differs between timed and parallel lanes");
    }
    Check(First.num("jobs") == static_cast<double>(F.Jobs),
          "job count mismatch");
    Check(First.num("decided") == First.num("jobs"),
          "a job ended without exactly one outcome");
    double C = First.num("committed");
    Jobs += First.num("jobs");
    Decided += First.num("decided");
    Committed += C;
    CostSum += C * First.num("mean_cost");
    ResponseSum += C * First.num("mean_response_ticks");
    WallSum += median(column(Plain[K], "wall_s"));
    CpuSum += median(column(Plain[K], "cpu_s"));
    for (const Child &R : Plain[K])
      Rss.push_back(R.num("rss_mb"));
  }

  std::map<std::string, double> M;
  if (!Trace) {
    M["jobs_per_s"] = Jobs / WallSum;
    M["cpu_ms_per_job"] = 1e3 * CpuSum / Jobs;
    M["peak_rss_mb"] = median(Rss);
    std::vector<double> SetupS;
    for (const Child &S : Setups)
      SetupS.push_back(S.FirstLineS);
    M["setup_s"] = median(SetupS);
    M["committed_share"] = Committed / Jobs;
    M["mean_cost"] = Committed > 0 ? CostSum / Committed : 0.0;
    M["mean_response_ticks"] = Committed > 0 ? ResponseSum / Committed : 0.0;
  } else {
    for (const MetricDef &D : PerLayer)
      if (Traced.front().Values.count(D.Name))
        M[D.Name] = median(column(Traced, D.Name));
    M["probe.build_us.p50"] = Probe.num("probe.build_us.p50");
    M["probe.build_us.p99"] = Probe.num("probe.build_us.p99");
    M["job.generate_ms"] = median(column(Setups, "gen_ms"));
    M["pool.cpu_per_wall"] = CpuSum / WallSum;
    M["obs.trace_overhead"] =
        median(column(Traced, "wall_s")) / WallSum - 1.0;
  }

  std::string Out;
  char Buf[256];
  auto Print = [&](const MetricDef &D) {
    auto It = M.find(D.Name);
    double V = It == M.end() ? NAN : It->second;
    Check(std::isfinite(V), std::string("metric missing: ") + D.Name);
    std::snprintf(Buf, sizeof(Buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  Out.empty() ? "" : ", ", D.Name,
                  std::isfinite(V) ? V : 0.0, D.Unit);
    Out += Buf;
  };
  if (Trace)
    for (const MetricDef &D : PerLayer)
      Print(D);
  else
    for (const MetricDef &D : EndToEnd)
      Print(D);
  std::fprintf(stderr,
               "vo-bench: %s seed %lld: %zu instance(s), %zu runs (%zu "
               "traced), %.1f s measured\n",
               W.Name.c_str(), static_cast<long long>(F.Seed), Instances,
               Runs, Traced.size(), secondsSince(T0));
  std::printf("{\"correct\": %s, \"attempted\": %.0f, \"failed\": %.0f, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false", Jobs, Jobs - Decided,
              Out.c_str());
  return Correct ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    die("usage: vo-bench run|sim|setup|probe --workload W [flags]");
  const std::string Mode = Argv[1];
  ChildFlags CF;
  int64_t Seconds = 10;
  int64_t Trace = 0;
  bool TamperDigest = false;
  Flags F;
  F.addString("spec", &CF.Spec, "workload spec (JSON)");
  F.addString("workload", &CF.Workload, "workload name in the spec");
  F.addInt("seed", &CF.Seed, "VO seed");
  F.addInt("jobs", &CF.Jobs, "compound jobs (0 = the workload's count)");
  F.addInt("build-threads", &CF.BuildThreads, "strategy build lanes");
  F.addInt("shards", &CF.Shards, "job-flow shards");
  F.addBool("profile", &CF.Profile, "profile the run (sim)");
  F.addInt("seconds", &Seconds, "measuring window (run)");
  F.addInt("trace", &Trace, "0: end-to-end metrics, 1: per-layer (run)");
  F.addBool("tamper-digest", &TamperDigest,
            "corrupt one digest to show the check fires (run)");
  if (!F.parse(Argc - 1, Argv + 1))
    return 0;
  if (CF.Workload.empty())
    die("--workload is required");
  if (CF.Seed < 0 || CF.Jobs < 0 || CF.BuildThreads < 1 || CF.Shards < 1 ||
      Seconds < 1 || (Trace != 0 && Trace != 1))
    die("flag out of range");
  const Workload W = loadWorkload(CF.Spec, CF.Workload);
  if (CF.Jobs == 0)
    CF.Jobs = static_cast<int64_t>(W.Jobs);

  if (Mode == "run")
    return runBench(W, CF, Seconds, Trace == 1, TamperDigest);
  if (Mode == "sim")
    return runSim(W, CF);
  if (Mode == "setup")
    return runSetup(W, CF);
  if (Mode == "probe")
    return runProbe(W, CF);
  die("unknown mode '" + Mode + "'");
}
