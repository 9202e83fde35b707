//===-- obs/Diff.cpp - Semantic differential run analysis -----------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "obs/Diff.h"
#include "obs/Explain.h"
#include "obs/Metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

using namespace cws;
using namespace cws::obs;

const char *cws::obs::diffVerdictName(DiffVerdict V) {
  switch (V) {
  case DiffVerdict::Identical:
    return "identical";
  case DiffVerdict::Compatible:
    return "compatible";
  case DiffVerdict::Diverged:
    return "diverged";
  }
  return "?";
}

bool cws::obs::globMatch(const std::string &Pattern, const std::string &Text) {
  // Iterative star-backtracking: '*' matches any run of characters.
  size_t P = 0, T = 0, Star = std::string::npos, Mark = 0;
  while (T < Text.size()) {
    if (P < Pattern.size() &&
        (Pattern[P] == Text[T] || Pattern[P] == '?')) {
      ++P;
      ++T;
    } else if (P < Pattern.size() && Pattern[P] == '*') {
      Star = P++;
      Mark = T;
    } else if (Star != std::string::npos) {
      P = Star + 1;
      T = ++Mark;
    } else {
      return false;
    }
  }
  while (P < Pattern.size() && Pattern[P] == '*')
    ++P;
  return P == Pattern.size();
}

std::vector<SeriesRule> cws::obs::defaultSeriesRules() {
  // Wall-time-contaminated families can never be compared across runs;
  // the sim's own telemetry keeps them out of ts.csv by construction,
  // but metrics-registry exports carry them.
  return {{"*_us", SeriesClass::Excluded, 0.0},
          {"*_ms", SeriesClass::Excluded, 0.0},
          {"*wall*", SeriesClass::Excluded, 0.0}};
}

namespace {

/// Findings accumulator honoring MaxFindings.
struct Findings {
  std::vector<DiffFinding> Items;
  size_t Total = 0;
  size_t Cap;

  explicit Findings(size_t Cap) : Cap(Cap) {}

  void add(std::string Where, std::string A, std::string B) {
    ++Total;
    if (Items.size() < Cap)
      Items.push_back({std::move(Where), std::move(A), std::move(B)});
  }
};

const char *Absent = "(absent)";

/// Compares one provenance field under the policy.
void metaField(Findings &F, const char *Name, bool Allowed,
               const std::string &A, const std::string &B) {
  if (!Allowed && A != B)
    F.add(std::string("meta.") + Name, A, B);
}

void compareMeta(Findings &F, const RunProvenance &A, const RunProvenance &B,
                 const MetaPolicy &P) {
  if (P.Off)
    return;
  // An unstamped side has nothing to compare field-by-field; stamp
  // presence itself only matters when exactly one side carries one.
  if (!A.Stamped && !B.Stamped)
    return;
  if (A.Stamped != B.Stamped) {
    F.add("meta.provenance", A.Stamped ? "stamped" : Absent,
          B.Stamped ? "stamped" : Absent);
    return;
  }
  metaField(F, "seed", P.AllowSeed, std::to_string(A.Seed),
            std::to_string(B.Seed));
  metaField(F, "config_hash", P.AllowConfigHash, A.ConfigHash, B.ConfigHash);
  metaField(F, "scenario", P.AllowScenario, A.ScenarioId, B.ScenarioId);
  // A side that recorded no shard count (0) is compatible with any.
  if (A.Shards > 0 && B.Shards > 0)
    metaField(F, "shards", P.AllowShards, std::to_string(A.Shards),
              std::to_string(B.Shards));
  metaField(F, "cli", P.AllowCli, A.Cli, B.Cli);
}

//===----------------------------------------------------------------------===//
// Journal mode
//===----------------------------------------------------------------------===//

/// Rendered content of the environment change a trigger resolves to,
/// for structural (id-free) comparison across runs.
std::string triggerContent(const ParsedJournal &J,
                           const ParsedJournalEvent &E) {
  if (E.Trigger == 0)
    return std::string();
  const ParsedJournalEvent *T = J.byId(E.Trigger);
  if (!T)
    return "(dropped)";
  std::string Out = "t=" + std::to_string(T->At) + " " + T->Kind;
  if (!T->Detail.empty())
    Out += " [" + T->Detail + "]";
  for (const auto &A : T->Args)
    Out += " " + A.first + "=" + std::to_string(A.second);
  return Out;
}

/// Semantic equality of two events from different runs. Raw ids and
/// `cause` links are ordinal bookkeeping (the cause is always the
/// job's previous event, which the per-job walk already aligned);
/// triggers compare by the content of the env.change they reference.
bool sameEvent(const ParsedJournal &JA, const ParsedJournalEvent &A,
               const ParsedJournal &JB, const ParsedJournalEvent &B) {
  return A.Kind == B.Kind && A.At == B.At && A.JobId == B.JobId &&
         A.FlowId == B.FlowId && A.Detail == B.Detail && A.Args == B.Args &&
         triggerContent(JA, A) == triggerContent(JB, B);
}

/// The job's cause chain up to and including event index \p Upto, with
/// resolvable triggers expanded. Long prefixes are elided to the last
/// `Keep` entries.
std::string renderChain(const ParsedJournal &J,
                        const std::vector<const ParsedJournalEvent *> &Chain,
                        size_t Upto) {
  constexpr size_t Keep = 8;
  std::string Out;
  size_t Begin = 0;
  if (Upto + 1 > Keep) {
    Begin = Upto + 1 - Keep;
    Out += "  ... " + std::to_string(Begin) + " earlier event(s)\n";
  }
  for (size_t I = Begin; I <= Upto && I < Chain.size(); ++I) {
    Out += "  " + renderJournalEventInline(*Chain[I]) + "\n";
    if (Chain[I]->Trigger != 0) {
      std::string T = triggerContent(J, *Chain[I]);
      if (!T.empty())
        Out += "      trigger: " + T + "\n";
    }
  }
  return Out;
}

using JobChains =
    std::map<int64_t, std::vector<const ParsedJournalEvent *>>;

JobChains chainsOf(const ParsedJournal &J) {
  JobChains Out;
  for (const ParsedJournalEvent &E : J.Events)
    Out[E.JobId].push_back(&E);
  return Out;
}

const char *jobLabel(int64_t JobId) {
  // -1 groups the job-agnostic stream (env.change, notes).
  return JobId < 0 ? "environment" : "job";
}

} // namespace

DiffResult cws::obs::diffJournals(const ParsedJournal &A,
                                  const ParsedJournal &B,
                                  const DiffOptions &Opts) {
  DiffResult R;
  R.Mode = "journal";
  Findings Meta(Opts.MaxFindings);
  compareMeta(Meta, A.Prov, B.Prov, Opts.Meta);
  R.MetaFindings = std::move(Meta.Items);

  Findings F(Opts.MaxFindings);
  JobChains CA = chainsOf(A);
  JobChains CB = chainsOf(B);

  // First-divergence candidate: the diverging event with the smallest
  // (tick, job, index) triple across all per-job walks.
  struct Candidate {
    bool Present = false;
    int64_t Tick = 0;
    int64_t JobId = -1;
    size_t Index = 0;
    const ParsedJournalEvent *EvA = nullptr;
    const ParsedJournalEvent *EvB = nullptr;
  } Best;
  auto Consider = [&Best](int64_t Tick, int64_t JobId, size_t Index,
                          const ParsedJournalEvent *EvA,
                          const ParsedJournalEvent *EvB) {
    if (Best.Present && std::tie(Best.Tick, Best.JobId, Best.Index) <=
                            std::tie(Tick, JobId, Index))
      return;
    Best = {true, Tick, JobId, Index, EvA, EvB};
  };

  std::set<int64_t> Jobs;
  for (const auto &[Job, Chain] : CA)
    Jobs.insert(Job);
  for (const auto &[Job, Chain] : CB)
    Jobs.insert(Job);
  for (int64_t Job : Jobs) {
    auto IA = CA.find(Job);
    auto IB = CB.find(Job);
    static const std::vector<const ParsedJournalEvent *> None;
    const auto &EA = IA == CA.end() ? None : IA->second;
    const auto &EB = IB == CB.end() ? None : IB->second;
    size_t N = std::min(EA.size(), EB.size());
    size_t Div = N;
    for (size_t I = 0; I < N; ++I)
      if (!sameEvent(A, *EA[I], B, *EB[I])) {
        Div = I;
        break;
      }
    if (Div == N && EA.size() == EB.size())
      continue; // This chain agrees end to end.
    const ParsedJournalEvent *EvA = Div < EA.size() ? EA[Div] : nullptr;
    const ParsedJournalEvent *EvB = Div < EB.size() ? EB[Div] : nullptr;
    int64_t Tick = EvA && EvB ? std::min(EvA->At, EvB->At)
                              : (EvA ? EvA->At : EvB->At);
    Consider(Tick, Job, Div, EvA, EvB);
    std::string Where = std::string(jobLabel(Job)) +
                        (Job < 0 ? std::string()
                                 : " " + std::to_string(Job)) +
                        " event " + std::to_string(Div + 1) + "/" +
                        std::to_string(std::max(EA.size(), EB.size()));
    F.add(std::move(Where),
          EvA ? renderJournalEventInline(*EvA) : Absent,
          EvB ? renderJournalEventInline(*EvB) : Absent);
  }

  // Ring-loss accounting: identical surviving chains can still hide
  // different histories when the rings dropped different amounts.
  if (A.Dropped != B.Dropped)
    F.add("meta.dropped", std::to_string(A.Dropped),
          std::to_string(B.Dropped));
  else if (A.Recorded != B.Recorded)
    F.add("meta.recorded", std::to_string(A.Recorded),
          std::to_string(B.Recorded));

  if (Best.Present) {
    R.First.Present = true;
    R.First.JobId = Best.JobId;
    R.First.Tick = Best.Tick;
    R.First.IndexInJob = Best.Index;
    R.First.EventA =
        Best.EvA ? renderJournalEventInline(*Best.EvA) : Absent;
    R.First.EventB =
        Best.EvB ? renderJournalEventInline(*Best.EvB) : Absent;
    auto ChainFor = [&](const ParsedJournal &J, const JobChains &C,
                        const ParsedJournalEvent *Ev) {
      auto I = C.find(Best.JobId);
      if (I == C.end() || I->second.empty())
        return std::string("  (no events)\n");
      size_t Upto = Ev ? Best.Index : I->second.size() - 1;
      if (Upto >= I->second.size())
        Upto = I->second.size() - 1;
      return renderChain(J, I->second, Upto);
    };
    R.First.ChainA = ChainFor(A, CA, Best.EvA);
    R.First.ChainB = ChainFor(B, CB, Best.EvB);
  }

  R.Findings = std::move(F.Items);
  R.TotalFindings = F.Total + R.MetaFindings.size();
  R.Verdict = R.TotalFindings == 0 ? DiffVerdict::Identical
                                   : DiffVerdict::Diverged;
  if (R.identical()) {
    R.Summary = "journals identical: " + std::to_string(A.Events.size()) +
                " events, " + std::to_string(Jobs.size()) +
                " causal chain(s) agree";
  } else if (R.First.Present) {
    R.Summary = std::string(jobLabel(R.First.JobId)) +
                (R.First.JobId < 0 ? std::string()
                                   : " " + std::to_string(R.First.JobId)) +
                " diverged at t=" + std::to_string(R.First.Tick) + ": A " +
                R.First.EventA + " vs B " + R.First.EventB;
  } else {
    R.Summary = "journals diverge in meta only (" +
                std::to_string(R.TotalFindings) + " finding(s))";
  }
  return R;
}

DiffResult cws::obs::diffJournalOutcomes(const ParsedJournal &A,
                                         const ParsedJournal &B,
                                         const DiffOptions &Opts) {
  DiffResult R;
  R.Mode = "journal-outcomes";
  Findings Meta(Opts.MaxFindings);
  compareMeta(Meta, A.Prov, B.Prov, Opts.Meta);
  R.MetaFindings = std::move(Meta.Items);

  // Terminal verdict of every job, plus the tick of the event that
  // decided it: rejected beats committed beats open (a reject is
  // final; a commit without a reject stands).
  struct Verdict {
    std::string Out;
    int64_t Tick = -1;
  };
  auto Verdicts = [](const ParsedJournal &J) {
    std::map<int64_t, Verdict> V;
    for (const ParsedJournalEvent &E : J.Events) {
      if (E.JobId < 0)
        continue;
      if (E.Kind == "arrival")
        V.emplace(E.JobId, Verdict{"open", E.At});
      else if (E.Kind == "reject")
        V[E.JobId] = {"rejected", E.At};
      else if (E.Kind == "commit" && V[E.JobId].Out != "rejected")
        V[E.JobId] = {"committed", E.At};
    }
    return V;
  };
  std::map<int64_t, Verdict> VA = Verdicts(A);
  std::map<int64_t, Verdict> VB = Verdicts(B);

  // Jobs run A's journal vouches for: a successful repair resolution
  // explains why A could commit where the rebuild oracle rejected.
  // The first *stage-1/2* success is also the moment the two runs'
  // grids can part ways — a repair keeps placements of the stale plan
  // that the rebuild run replaces with fresh ones — so decisive
  // verdicts after that tick may legitimately drift in either
  // direction, and strict equivalence is only enforceable before it.
  std::set<int64_t> SavedByRepair;
  int64_t FirstRepairTick = std::numeric_limits<int64_t>::max();
  if (Opts.AllowRepairSaves)
    for (const ParsedJournalEvent &E : A.Events) {
      if (E.JobId < 0 || E.Kind != "repair.stage")
        continue;
      const int64_t *Ok = E.arg("ok");
      if (!Ok || !*Ok)
        continue;
      SavedByRepair.insert(E.JobId);
      const int64_t *Stage = E.arg("stage");
      if (Stage && *Stage < 3)
        FirstRepairTick = std::min(FirstRepairTick, E.At);
    }

  Findings F(Opts.MaxFindings);
  std::set<int64_t> Jobs;
  for (const auto &[Job, V] : VA)
    Jobs.insert(Job);
  for (const auto &[Job, V] : VB)
    Jobs.insert(Job);
  size_t Agreed = 0;
  size_t Saves = 0;
  size_t Drift = 0;
  size_t CommittedA = 0;
  size_t CommittedB = 0;
  auto Decisive = [](const std::string &O) {
    return O == "committed" || O == "rejected";
  };
  for (int64_t Job : Jobs) {
    auto IA = VA.find(Job);
    auto IB = VB.find(Job);
    std::string OA = IA == VA.end() ? std::string(Absent) : IA->second.Out;
    std::string OB = IB == VB.end() ? std::string(Absent) : IB->second.Out;
    CommittedA += OA == "committed";
    CommittedB += OB == "committed";
    if (OA == OB) {
      ++Agreed;
      continue;
    }
    if (OA == "committed" && OB == "rejected" && SavedByRepair.count(Job)) {
      ++Saves;
      continue;
    }
    // Post-repair drift: both verdicts decisive, both decided after
    // the grids could have diverged. Open/absent mismatches and any
    // divergence before the first repair are still defects.
    if (Opts.AllowRepairSaves && Decisive(OA) && Decisive(OB) &&
        IA->second.Tick >= FirstRepairTick &&
        IB->second.Tick >= FirstRepairTick) {
      ++Drift;
      continue;
    }
    F.add("job " + std::to_string(Job) + " outcome", OA, OB);
  }
  // The dominance backstop on accepted drift: repair exists to save
  // jobs, so the drift it causes must never leave the repair run
  // committing fewer jobs than its rebuild oracle.
  if (Drift && CommittedA < CommittedB)
    F.add("committed jobs total", std::to_string(CommittedA),
          std::to_string(CommittedB));

  R.Findings = std::move(F.Items);
  R.TotalFindings = F.Total + R.MetaFindings.size();
  R.Verdict = R.TotalFindings == 0 ? DiffVerdict::Identical
                                   : DiffVerdict::Diverged;
  std::string SaveNote;
  if (Saves)
    SaveNote += ", " + std::to_string(Saves) + " repair save(s) accepted";
  if (Drift)
    SaveNote += ", " + std::to_string(Drift) + " post-repair drift(s) accepted";
  if (R.identical())
    R.Summary = "outcomes equivalent: " + std::to_string(Agreed) +
                " job verdict(s) agree" + SaveNote;
  else
    R.Summary = "outcomes diverge: " + std::to_string(F.Total) +
                " of " + std::to_string(Jobs.size()) +
                " job verdict(s) differ" + SaveNote;
  return R;
}

//===----------------------------------------------------------------------===//
// Series mode
//===----------------------------------------------------------------------===//

namespace {

SeriesClass classify(const std::string &Series,
                     const std::vector<SeriesRule> &Rules, double &Eps) {
  for (const SeriesRule &R : Rules)
    if (globMatch(R.Pattern, Series)) {
      Eps = R.Eps;
      return R.Class;
    }
  Eps = 0.0;
  return SeriesClass::Exact;
}

std::string rowKey(const TimeSeriesRow &R) {
  std::string Out = "seq " + std::to_string(R.Seq) + " t=" +
                    std::to_string(R.At) + " " + R.Series;
  if (R.Node >= 0)
    Out += " node " + std::to_string(R.Node);
  if (!R.Flow.empty())
    Out += " flow " + R.Flow;
  return Out;
}

std::string rowText(const TimeSeriesRow &R) {
  return rowKey(R) + " (" + R.Reason + ") = " + renderNumber(R.Value);
}

} // namespace

DiffResult cws::obs::diffTimeSeries(const ParsedTimeSeries &A,
                                    const ParsedTimeSeries &B,
                                    const DiffOptions &Opts) {
  DiffResult R;
  R.Mode = "series";
  Findings Meta(Opts.MaxFindings);
  compareMeta(Meta, A.Prov, B.Prov, Opts.Meta);
  R.MetaFindings = std::move(Meta.Items);

  std::vector<SeriesRule> Rules;
  if (!Opts.NoDefaultSeriesRules)
    Rules = defaultSeriesRules();
  Rules.insert(Rules.end(), Opts.Series.begin(), Opts.Series.end());

  auto Included = [&Rules](const TimeSeriesRow &Row, double &Eps,
                           SeriesClass &C) {
    C = classify(Row.Series, Rules, Eps);
    return C != SeriesClass::Excluded;
  };

  Findings F(Opts.MaxFindings);
  size_t IA = 0, IB = 0, ExcludedRows = 0;
  while (IA < A.Rows.size() || IB < B.Rows.size()) {
    double EpsA = 0, EpsB = 0;
    SeriesClass ClA = SeriesClass::Exact, ClB = SeriesClass::Exact;
    if (IA < A.Rows.size() && !Included(A.Rows[IA], EpsA, ClA)) {
      ++IA;
      ++ExcludedRows;
      continue;
    }
    if (IB < B.Rows.size() && !Included(B.Rows[IB], EpsB, ClB)) {
      ++IB;
      ++ExcludedRows;
      continue;
    }
    if (IA >= A.Rows.size() || IB >= B.Rows.size()) {
      // One run has surplus rows past the common prefix.
      if (IA < A.Rows.size())
        F.add(rowKey(A.Rows[IA]), rowText(A.Rows[IA]), Absent);
      else
        F.add(rowKey(B.Rows[IB]), Absent, rowText(B.Rows[IB]));
      ++IA;
      ++IB;
      continue;
    }
    const TimeSeriesRow &RA = A.Rows[IA];
    const TimeSeriesRow &RB = B.Rows[IB];
    ++IA;
    ++IB;
    if (RA.Seq != RB.Seq || RA.At != RB.At || RA.Reason != RB.Reason ||
        RA.Series != RB.Series || RA.Node != RB.Node || RA.Flow != RB.Flow) {
      F.add("row alignment", rowText(RA), rowText(RB));
      continue;
    }
    bool Equal = RA.Value == RB.Value;
    if (!Equal && ClA == SeriesClass::Tolerance)
      Equal = std::fabs(RA.Value - RB.Value) <= EpsA;
    if (!Equal)
      F.add(rowKey(RA), renderNumber(RA.Value), renderNumber(RB.Value));
  }

  R.Findings = std::move(F.Items);
  R.TotalFindings = F.Total + R.MetaFindings.size();
  R.Verdict = R.TotalFindings == 0 ? DiffVerdict::Identical
                                   : DiffVerdict::Diverged;
  if (R.identical()) {
    R.Summary = "series identical: " + std::to_string(A.Rows.size()) +
                " rows agree";
    if (ExcludedRows > 0)
      R.Summary += " (" + std::to_string(ExcludedRows) +
                   " wall-time row(s) excluded)";
  } else {
    R.Summary = "series diverge: " + std::to_string(R.TotalFindings) +
                " finding(s)";
    if (!R.Findings.empty())
      R.Summary += ", first at " + R.Findings.front().Where;
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Sweep mode
//===----------------------------------------------------------------------===//

namespace {

/// NaN-aware exact equality (n/a round-trips as NaN).
bool statEq(double X, double Y) {
  if (std::isnan(X) || std::isnan(Y))
    return std::isnan(X) && std::isnan(Y);
  return X == Y;
}

std::string renderStat(double X) {
  return std::isnan(X) ? std::string("n/a") : renderNumber(X);
}

} // namespace

bool cws::obs::statsIdentical(const SweepIndicatorStats &X,
                              const SweepIndicatorStats &Y) {
  return X.N == Y.N && statEq(X.Mean, Y.Mean) && statEq(X.Stddev, Y.Stddev) &&
         statEq(X.Ci95, Y.Ci95) && statEq(X.P50, Y.P50) &&
         statEq(X.P90, Y.P90) && statEq(X.P99, Y.P99) &&
         statEq(X.Min, Y.Min) && statEq(X.Max, Y.Max);
}

bool cws::obs::statsCompatible(const SweepIndicatorStats &X,
                               const SweepIndicatorStats &Y,
                               double QuantileShiftTol, std::string *Why) {
  auto Fail = [Why](std::string Reason) {
    if (Why)
      *Why = std::move(Reason);
    return false;
  };
  if (X.N != Y.N)
    return Fail("n " + std::to_string(X.N) + " -> " + std::to_string(Y.N) +
                " changed the sample count");
  bool MeanOk = statEq(X.Mean, Y.Mean) ||
                (!std::isnan(X.Mean) && !std::isnan(Y.Mean) &&
                 std::fabs(X.Mean - Y.Mean) <= X.Ci95 + Y.Ci95);
  if (!MeanOk)
    return Fail("mean " + renderStat(X.Mean) + " -> " + renderStat(Y.Mean) +
                " outside CI overlap (" + renderStat(X.Ci95) + " + " +
                renderStat(Y.Ci95) + ")");
  struct Q {
    const char *Name;
    double X, Y;
  } Quantiles[] = {
      {"p50", X.P50, Y.P50}, {"p90", X.P90, Y.P90}, {"p99", X.P99, Y.P99}};
  for (const Q &Qu : Quantiles) {
    double Scale = std::max(std::fabs(Qu.X), std::fabs(Qu.Y));
    bool QuantileOk = statEq(Qu.X, Qu.Y) ||
                      (!std::isnan(Qu.X) && !std::isnan(Qu.Y) &&
                       std::fabs(Qu.X - Qu.Y) <= QuantileShiftTol * Scale);
    if (!QuantileOk)
      return Fail(std::string(Qu.Name) + " " + renderStat(Qu.X) + " -> " +
                  renderStat(Qu.Y) + " shifts more than " +
                  renderNumber(QuantileShiftTol * 100) + "%");
  }
  return true;
}

DiffResult cws::obs::diffSweeps(const SweepStore &A, const SweepStore &B,
                                const DiffOptions &Opts) {
  DiffResult R;
  R.Mode = "sweep";
  Findings F(Opts.MaxFindings);
  bool AllCompatible = true;

  if (A.Seeds != B.Seeds)
    F.add("sweep.seeds", std::to_string(A.Seeds), std::to_string(B.Seeds));
  if (A.Runs != B.Runs)
    F.add("sweep.runs", std::to_string(A.Runs), std::to_string(B.Runs));
  if (F.Total > 0)
    AllCompatible = false;

  std::map<std::string, const SweepScenario *> SB;
  for (const SweepScenario &S : B.Scenarios)
    SB[S.Id] = &S;
  std::set<std::string> SeenB;
  for (const SweepScenario &SA : A.Scenarios) {
    auto I = SB.find(SA.Id);
    if (I == SB.end()) {
      F.add("scenario " + SA.Id, "present", Absent);
      AllCompatible = false;
      continue;
    }
    SeenB.insert(SA.Id);
    const SweepScenario &SBS = *I->second;
    for (const auto &[Name, StA] : SA.Indicators) {
      const SweepIndicatorStats *StB = SBS.indicator(Name);
      std::string Where = "scenario " + SA.Id + " " + Name;
      if (!StB) {
        F.add(Where, "present", Absent);
        AllCompatible = false;
        continue;
      }
      if (statsIdentical(StA, *StB))
        continue;
      bool Compatible = statsCompatible(StA, *StB, Opts.QuantileShiftTol);
      if (!Compatible)
        AllCompatible = false;
      auto Render = [](const SweepIndicatorStats &S) {
        return "n=" + std::to_string(S.N) + " mean=" + renderStat(S.Mean) +
               "±" + renderStat(S.Ci95) + " p50=" + renderStat(S.P50) +
               " p90=" + renderStat(S.P90) + " p99=" + renderStat(S.P99);
      };
      F.add(Where + (Compatible ? " (compatible)" : " (regressed)"),
            Render(StA), Render(*StB));
    }
    // Indicators only the B side has.
    for (const auto &[Name, StB] : SBS.Indicators)
      if (!SA.indicator(Name)) {
        F.add("scenario " + SA.Id + " " + Name, Absent, "present");
        AllCompatible = false;
      }
  }
  for (const SweepScenario &S : B.Scenarios)
    if (!SeenB.count(S.Id)) {
      F.add("scenario " + S.Id, Absent, "present");
      AllCompatible = false;
    }

  R.Findings = std::move(F.Items);
  R.TotalFindings = F.Total;
  if (R.TotalFindings == 0)
    R.Verdict = DiffVerdict::Identical;
  else if (AllCompatible)
    R.Verdict = DiffVerdict::Compatible;
  else
    R.Verdict = DiffVerdict::Diverged;
  switch (R.Verdict) {
  case DiffVerdict::Identical:
    R.Summary = "sweeps identical: " + std::to_string(A.Scenarios.size()) +
                " scenario(s) agree on every pooled statistic";
    break;
  case DiffVerdict::Compatible:
    R.Summary = "sweeps statistically compatible: " +
                std::to_string(R.TotalFindings) +
                " indicator(s) shifted within CI overlap / quantile "
                "tolerance";
    break;
  case DiffVerdict::Diverged:
    R.Summary = "sweep regression: " + std::to_string(R.TotalFindings) +
                " finding(s)";
    if (!R.Findings.empty())
      R.Summary += ", first at " + R.Findings.front().Where;
    break;
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

static void renderFirstDivergence(std::string &Out, const DiffResult &R,
                                  const std::string &LabelA,
                                  const std::string &LabelB, bool Markdown) {
  if (!R.First.Present)
    return;
  const JournalDivergence &D = R.First;
  std::string Head = std::string(D.JobId < 0 ? "environment stream"
                                             : "job " +
                                                   std::to_string(D.JobId)) +
                     " diverged at t=" + std::to_string(D.Tick) +
                     " (event " + std::to_string(D.IndexInJob + 1) +
                     " of its chain)";
  if (Markdown) {
    Out += "## First divergence\n\n" + Head + ":\n\n";
    Out += "- A: `" + D.EventA + "`\n";
    Out += "- B: `" + D.EventB + "`\n\n";
    Out += "Cause chain in A (" + LabelA + "):\n\n```\n" + D.ChainA +
           "```\n\nCause chain in B (" + LabelB + "):\n\n```\n" + D.ChainB +
           "```\n\n";
  } else {
    Out += "first divergence: " + Head + "\n";
    Out += "  A: " + D.EventA + "\n";
    Out += "  B: " + D.EventB + "\n";
    Out += "cause chain in A (" + LabelA + "):\n" + D.ChainA;
    Out += "cause chain in B (" + LabelB + "):\n" + D.ChainB;
  }
}

std::string cws::obs::renderDiffText(const DiffResult &R,
                                     const std::string &LabelA,
                                     const std::string &LabelB) {
  std::string Out = "cws-diff [" + R.Mode + "] A=" + LabelA +
                    " B=" + LabelB + "\n";
  Out += "verdict: " + std::string(diffVerdictName(R.Verdict)) + " — " +
         R.Summary + "\n";
  for (const DiffFinding &F : R.MetaFindings)
    Out += "  " + F.Where + ": A=" + F.A + " B=" + F.B + "\n";
  renderFirstDivergence(Out, R, LabelA, LabelB, false);
  for (const DiffFinding &F : R.Findings)
    Out += "  " + F.Where + ": A=" + F.A + " B=" + F.B + "\n";
  if (R.TotalFindings >
      R.Findings.size() + R.MetaFindings.size())
    Out += "  ... " +
           std::to_string(R.TotalFindings - R.Findings.size() -
                          R.MetaFindings.size()) +
           " more finding(s) not shown\n";
  return Out;
}

std::string cws::obs::renderDiffReport(const DiffResult &R,
                                       const std::string &LabelA,
                                       const std::string &LabelB) {
  std::string Out = "# Differential run analysis (" + R.Mode + ")\n\n";
  Out += "- run A: `" + LabelA + "`\n";
  Out += "- run B: `" + LabelB + "`\n";
  Out += "- verdict: **" + std::string(diffVerdictName(R.Verdict)) +
         "** — " + R.Summary + "\n\n";
  if (!R.MetaFindings.empty()) {
    Out += "## Meta / provenance differences\n\n";
    Out += "| field | A | B |\n|---|---|---|\n";
    for (const DiffFinding &F : R.MetaFindings)
      Out += "| " + F.Where + " | `" + F.A + "` | `" + F.B + "` |\n";
    Out += "\n";
  }
  renderFirstDivergence(Out, R, LabelA, LabelB, true);
  if (!R.Findings.empty()) {
    Out += "## Findings\n\n";
    Out += "| where | A | B |\n|---|---|---|\n";
    for (const DiffFinding &F : R.Findings)
      Out += "| " + F.Where + " | `" + F.A + "` | `" + F.B + "` |\n";
    size_t Shown = R.Findings.size() + R.MetaFindings.size();
    if (R.TotalFindings > Shown)
      Out += "\n... " + std::to_string(R.TotalFindings - Shown) +
             " more finding(s) not shown.\n";
    Out += "\n";
  }
  return Out;
}

std::string cws::obs::explainJobDiff(const ParsedJournal &A,
                                     const ParsedJournal &B, int64_t JobId) {
  DiffOptions Opts;
  Opts.Meta.Off = true; // Only this job's chain matters here.
  DiffResult R = diffJournals(A, B, Opts);
  std::string Out = "--- run A ---\n" + explainJob(A, JobId);
  Out += "--- run B ---\n" + explainJob(B, JobId);
  // Localize within the requested job even when an earlier job holds
  // the run's global first divergence.
  JobChains CA = chainsOf(A), CB = chainsOf(B);
  auto IA = CA.find(JobId);
  auto IB = CB.find(JobId);
  static const std::vector<const ParsedJournalEvent *> None;
  const auto &EA = IA == CA.end() ? None : IA->second;
  const auto &EB = IB == CB.end() ? None : IB->second;
  size_t N = std::min(EA.size(), EB.size());
  size_t Div = N;
  for (size_t I = 0; I < N; ++I)
    if (!sameEvent(A, *EA[I], B, *EB[I])) {
      Div = I;
      break;
    }
  if (Div == N && EA.size() == EB.size()) {
    Out += "--- job " + std::to_string(JobId) +
           ": causal chains agree (" + std::to_string(EA.size()) +
           " event(s))";
    if (!R.identical())
      Out += "; the runs first diverge elsewhere: " + R.Summary;
    Out += "\n";
    return Out;
  }
  const ParsedJournalEvent *EvA = Div < EA.size() ? EA[Div] : nullptr;
  const ParsedJournalEvent *EvB = Div < EB.size() ? EB[Div] : nullptr;
  int64_t Tick = EvA && EvB ? std::min(EvA->At, EvB->At)
                            : (EvA ? EvA->At : EvB ? EvB->At : 0);
  Out += "--- job " + std::to_string(JobId) + " diverges at t=" +
         std::to_string(Tick) + " (event " + std::to_string(Div + 1) +
         " of its chain)\n";
  Out += "  A: " + (EvA ? renderJournalEventInline(*EvA)
                        : std::string(Absent)) + "\n";
  Out += "  B: " + (EvB ? renderJournalEventInline(*EvB)
                        : std::string(Absent)) + "\n";
  return Out;
}
