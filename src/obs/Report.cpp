//===-- obs/Report.cpp - Run reports and SLO evaluation -------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "obs/Report.h"
#include "obs/Metrics.h"
#include "support/Stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>

using namespace cws;
using namespace cws::obs;

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

static const char TimeSeriesHeader[] = "seq,tick,reason,series,node,flow,value";

bool cws::obs::parseTimeSeriesCsv(const std::string &Text,
                                  ParsedTimeSeries &Out,
                                  std::string &Error) {
  Out = ParsedTimeSeries{};
  size_t Pos = 0, LineNo = 0;
  bool SawHeader = false;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    std::string Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    ++LineNo;
    if (Line.empty())
      continue;
    if (!SawHeader) {
      // Comment lines may precede the header; the provenance stamp is
      // one of them.
      if (!Line.empty() && Line[0] == '#') {
        parseProvenanceCsvComment(Line, Out.Prov);
        continue;
      }
      if (Line != TimeSeriesHeader) {
        Error = "line " + std::to_string(LineNo) + ": expected header '" +
                std::string(TimeSeriesHeader) + "'";
        return false;
      }
      SawHeader = true;
      continue;
    }
    // Values never contain commas (series/reason names are literals,
    // flow labels are strategy names), so a plain split suffices.
    std::vector<std::string> Fields;
    size_t Start = 0;
    while (true) {
      size_t Comma = Line.find(',', Start);
      if (Comma == std::string::npos) {
        Fields.push_back(Line.substr(Start));
        break;
      }
      Fields.push_back(Line.substr(Start, Comma - Start));
      Start = Comma + 1;
    }
    if (Fields.size() != 7) {
      Error = "line " + std::to_string(LineNo) + ": expected 7 fields, got " +
              std::to_string(Fields.size());
      return false;
    }
    TimeSeriesRow R;
    char *End = nullptr;
    R.Seq = std::strtoull(Fields[0].c_str(), &End, 10);
    if (End == Fields[0].c_str() || *End) {
      Error = "line " + std::to_string(LineNo) + ": bad seq '" + Fields[0] +
              "'";
      return false;
    }
    R.At = std::strtoll(Fields[1].c_str(), &End, 10);
    if (End == Fields[1].c_str() || *End) {
      Error = "line " + std::to_string(LineNo) + ": bad tick '" + Fields[1] +
              "'";
      return false;
    }
    R.Reason = Fields[2];
    R.Series = Fields[3];
    if (!Fields[4].empty()) {
      R.Node = std::strtoll(Fields[4].c_str(), &End, 10);
      if (End == Fields[4].c_str() || *End) {
        Error = "line " + std::to_string(LineNo) + ": bad node '" +
                Fields[4] + "'";
        return false;
      }
    }
    R.Flow = Fields[5];
    R.Value = std::strtod(Fields[6].c_str(), &End);
    if (End == Fields[6].c_str() || *End) {
      Error = "line " + std::to_string(LineNo) + ": bad value '" +
              Fields[6] + "'";
      return false;
    }
    Out.Rows.push_back(std::move(R));
  }
  if (!SawHeader) {
    Error = "empty file";
    return false;
  }
  return true;
}

bool cws::obs::parseSloFile(const std::string &Text,
                            std::vector<SloRule> &Out, std::string &Error) {
  Out.clear();
  size_t Pos = 0, LineNo = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    std::string Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    ++LineNo;
    if (size_t Hash = Line.find('#'); Hash != std::string::npos)
      Line = Line.substr(0, Hash);
    // Trim.
    size_t B = Line.find_first_not_of(" \t\r");
    if (B == std::string::npos)
      continue;
    size_t E = Line.find_last_not_of(" \t\r");
    Line = Line.substr(B, E - B + 1);
    SloRule R;
    size_t Op = Line.find("<=");
    if (Op != std::string::npos) {
      R.IsUpper = true;
    } else {
      Op = Line.find(">=");
      if (Op == std::string::npos) {
        Error = "line " + std::to_string(LineNo) +
                ": expected 'indicator <= bound' or 'indicator >= bound'";
        return false;
      }
      R.IsUpper = false;
    }
    std::string Name = Line.substr(0, Op);
    if (size_t NE = Name.find_last_not_of(" \t"); NE != std::string::npos)
      Name = Name.substr(0, NE + 1);
    if (Name.empty()) {
      Error = "line " + std::to_string(LineNo) + ": missing indicator name";
      return false;
    }
    // Sweep grammar: a `.stat` suffix selects the pooled statistic the
    // rule gates on ("deadline_miss_rate.p90"). Any other dotted suffix
    // stays part of the indicator name — profile indicators like
    // `phase.chain.dp.count` are dotted all the way through, and an
    // indicator nothing computes fails closed at evaluation anyway.
    if (size_t Dot = Name.rfind('.'); Dot != std::string::npos) {
      static const char *Stats[] = {"mean", "ci95", "p50", "p90",
                                    "p99",  "min",  "max"};
      std::string Suffix = Name.substr(Dot + 1);
      bool KnownStat = false;
      for (const char *S : Stats)
        KnownStat = KnownStat || Suffix == S;
      if (KnownStat) {
        R.Stat = Suffix;
        Name = Name.substr(0, Dot);
        if (Name.empty()) {
          Error = "line " + std::to_string(LineNo) +
                  ": missing indicator name";
          return false;
        }
      }
    }
    R.Indicator = Name;
    std::string Bound = Line.substr(Op + 2);
    char *End = nullptr;
    R.Bound = std::strtod(Bound.c_str(), &End);
    if (End == Bound.c_str()) {
      Error = "line " + std::to_string(LineNo) + ": bad bound '" + Bound +
              "'";
      return false;
    }
    while (*End == ' ' || *End == '\t')
      ++End;
    // Optional `across seeds` trailer: the rule explicitly scopes to
    // sweep evaluation (and fails closed in single-run evaluation).
    if (*End) {
      std::string Trailer(End);
      if (size_t TE = Trailer.find_last_not_of(" \t");
          TE != std::string::npos)
        Trailer = Trailer.substr(0, TE + 1);
      if (Trailer == "across seeds") {
        R.AcrossSeeds = true;
      } else {
        Error = "line " + std::to_string(LineNo) + ": trailing junk '" +
                Trailer + "'";
        return false;
      }
    }
    Out.push_back(std::move(R));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Indicators
//===----------------------------------------------------------------------===//

std::map<std::string, double>
cws::obs::computeIndicators(const ParsedJournal &J,
                            const ParsedTimeSeries &Ts) {
  std::map<std::string, double> Ind;

  // Journal-side counts and the per-job completion/deadline join.
  struct JobOutcome {
    int64_t Deadline = 0;
    bool HaveDeadline = false;
    int64_t Completion = 0;
    bool HaveCompletion = false;
    bool Committed = false;
  };
  std::map<int64_t, JobOutcome> Jobs;
  double Submitted = 0, Committed = 0, Rejected = 0, Reallocations = 0,
         Invalidations = 0, EnvChanges = 0;
  double RepairShift = 0, RepairDp = 0, RepairRebuilt = 0, RepairFailed = 0;
  double CommitCostSum = 0, CommitCfSum = 0;
  uint64_t CommitCostN = 0, CommitCfN = 0;
  for (const ParsedJournalEvent &E : J.Events) {
    if (E.Kind == "arrival") {
      ++Submitted;
      if (const int64_t *D = E.arg("deadline")) {
        Jobs[E.JobId].Deadline = *D;
        Jobs[E.JobId].HaveDeadline = true;
      }
    } else if (E.Kind == "commit") {
      ++Committed;
      JobOutcome &O = Jobs[E.JobId];
      O.Committed = true;
      // The journal's "makespan" is Distribution::makespan(), the
      // absolute completion tick the deadline check compares against.
      const int64_t *Makespan = E.arg("makespan");
      if (Makespan && !O.HaveCompletion)
        O.Completion = *Makespan;
      if (const int64_t *Cost = E.arg("cost")) {
        CommitCostSum += static_cast<double>(*Cost);
        ++CommitCostN;
      }
      if (const int64_t *Cf = E.arg("cf")) {
        CommitCfSum += static_cast<double>(*Cf);
        ++CommitCfN;
      }
    } else if (E.Kind == "execution") {
      // Actual completion under deviations overrides the committed
      // forecast.
      if (const int64_t *C = E.arg("completion")) {
        Jobs[E.JobId].Completion = *C;
        Jobs[E.JobId].HaveCompletion = true;
      }
    } else if (E.Kind == "reject") {
      ++Rejected;
    } else if (E.Kind == "reallocate") {
      ++Reallocations;
    } else if (E.Kind == "repair.stage") {
      if (E.Detail == "shift")
        ++RepairShift;
      else if (E.Detail == "dp")
        ++RepairDp;
      else if (E.Detail == "rebuild")
        ++RepairRebuilt;
      else if (E.Detail == "failed")
        ++RepairFailed;
    } else if (E.Kind == "invalidate") {
      ++Invalidations;
    } else if (E.Kind == "env.change") {
      ++EnvChanges;
    }
  }
  double Missed = 0, Judged = 0;
  for (const auto &[JobId, O] : Jobs) {
    if (!O.Committed || !O.HaveDeadline)
      continue;
    ++Judged;
    if (O.Completion > O.Deadline)
      ++Missed;
  }
  Ind["jobs_submitted"] = Submitted;
  Ind["jobs_committed"] = Committed;
  Ind["jobs_rejected"] = Rejected;
  Ind["commit_rate"] = Submitted > 0 ? Committed / Submitted : 0.0;
  Ind["reject_rate"] = Submitted > 0 ? Rejected / Submitted : 0.0;
  // With no committed job carrying a deadline the rate is undefined:
  // leaving it out (instead of a reassuring 0.0) makes an SLO rule on
  // it fail closed through the unknown-indicator path, and the report
  // renders n/a.
  if (Judged > 0)
    Ind["deadline_miss_rate"] = Missed / Judged;
  Ind["reallocations"] = Reallocations;
  Ind["invalidations"] = Invalidations;
  Ind["env_changes"] = EnvChanges;
  Ind["reallocations_per_commit"] =
      Reallocations / (Committed > 0 ? Committed : 1.0);
  // Staged-repair outcome mix (repair-mode journals only; a
  // rebuild-mode run has no repair.stage events and the indicators stay
  // absent, so SLO rules on them fail closed). The share is over the
  // reallocations that delivered a strategy at all — a failed one is a
  // job even the stage-3 rebuild could not fix, so no mode resolves it
  // (same denominator as bench/reg_realloc_repair).
  double RepairSeen = RepairShift + RepairDp + RepairRebuilt + RepairFailed;
  double RepairResolved = RepairShift + RepairDp + RepairRebuilt;
  if (RepairSeen > 0) {
    Ind["realloc_repaired_shift"] = RepairShift;
    Ind["realloc_repaired_dp"] = RepairDp;
    Ind["realloc_rebuilt"] = RepairRebuilt;
    Ind["realloc_failed"] = RepairFailed;
    if (RepairResolved > 0)
      Ind["repair_stage12_share"] =
          (RepairShift + RepairDp) / RepairResolved;
  }
  // Cost / cost-function means over committed schedules: the sweep's
  // cost-vs-time QoS axes. Undefined (absent) with no commits, same
  // convention as deadline_miss_rate.
  if (CommitCostN > 0)
    Ind["mean_commit_cost"] = CommitCostSum / static_cast<double>(CommitCostN);
  if (CommitCfN > 0)
    Ind["mean_commit_cf"] = CommitCfSum / static_cast<double>(CommitCfN);

  // Time-series side: per-node mean contention (busy + background).
  if (!Ts.empty()) {
    std::map<int64_t, std::pair<double, double>> NodeSum; // sum, count
    for (const TimeSeriesRow &R : Ts.Rows) {
      if (R.Node < 0 ||
          (R.Series != "util_busy" && R.Series != "util_background"))
        continue;
      NodeSum[R.Node].first += R.Value;
      NodeSum[R.Node].second += 1.0;
    }
    if (!NodeSum.empty()) {
      double Mean = 0, Max = 0;
      for (const auto &[Node, SC] : NodeSum) {
        // Busy and background rows of one node count separately, so
        // the per-node mean of their sum is 2 * (sum / rows).
        double NodeMean = SC.second > 0 ? 2.0 * SC.first / SC.second : 0.0;
        Mean += NodeMean;
        Max = std::max(Max, NodeMean);
      }
      Mean /= static_cast<double>(NodeSum.size());
      Ind["mean_node_busy"] = Mean;
      Ind["max_node_busy"] = Max;
    }
  }
  // Invalidation-pass sizing, when the sampler ran: probe values are
  // deltas since enable, so the last frame's value is the run total.
  for (const TimeSeriesRow &R : Ts.Rows) {
    if (R.Node >= 0)
      continue;
    if (R.Series == "env_scan_placements")
      Ind["env_scan_placements"] = R.Value;
    else if (R.Series == "env_index_placements")
      Ind["env_index_placements"] = R.Value;
    else if (R.Series == "env_index_candidates")
      Ind["env_index_candidates"] = R.Value;
  }
  return Ind;
}

std::vector<SloResult>
cws::obs::evaluateSlo(const std::vector<SloRule> &Rules,
                      const std::map<std::string, double> &Ind) {
  std::vector<SloResult> Out;
  for (const SloRule &R : Rules) {
    SloResult Res;
    Res.Rule = R;
    auto It = Ind.find(R.Indicator);
    if (!R.Stat.empty() || R.AcrossSeeds) {
      // Distribution rules need the pooled statistics of a sweep; a
      // single run has none, so they fail closed here instead of
      // silently gating on the point value.
      Res.Known = false;
      Res.Pass = false;
    } else if (It == Ind.end()) {
      // Unknown indicators fail closed: a typo must not silently pass.
      Res.Known = false;
      Res.Pass = false;
    } else {
      Res.Known = true;
      Res.Actual = It->second;
      Res.Pass = R.IsUpper ? Res.Actual <= R.Bound : Res.Actual >= R.Bound;
    }
    Out.push_back(std::move(Res));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

/// Fixed-precision rendering for rates and fractions; counts render
/// through renderNumber (no trailing ".000").
static std::string renderRate(double X) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3f", X);
  return Buf;
}

static std::string renderPercent(double Fraction) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1f%%", 100.0 * Fraction);
  return Buf;
}

void cws::obs::addProfileIndicators(const ParsedProfile &P,
                                    std::map<std::string, double> &Ind) {
  for (const PhaseStats &Phase : P.Phases) {
    const std::string Prefix = "phase." + Phase.Name + ".";
    Ind[Prefix + "count"] = static_cast<double>(Phase.Count);
    Ind[Prefix + "total_us"] = Phase.TotalUs;
    Ind[Prefix + "self_us"] = Phase.SelfUs;
    Ind[Prefix + "p50_us"] = Phase.P50Us;
    Ind[Prefix + "p99_us"] = Phase.P99Us;
    for (const auto &W : Phase.Work)
      Ind[Prefix + W.first] = static_cast<double>(W.second);
  }
}

std::string cws::obs::renderProfileSection(const ParsedProfile &P) {
  std::string Out = "## Where the time went\n\n";
  if (P.Phases.empty()) {
    Out += "The attached profile recorded no phases.\n\n";
    return Out;
  }
  // Rank by self time — total time double-counts nesting (sim.tick
  // contains nearly everything); self time is where the clock actually
  // burned. Ties break by name for a deterministic report.
  std::vector<const PhaseStats *> Ranked;
  double TotalSelfUs = 0.0;
  for (const PhaseStats &Phase : P.Phases) {
    Ranked.push_back(&Phase);
    TotalSelfUs += Phase.SelfUs;
  }
  std::sort(Ranked.begin(), Ranked.end(),
            [](const PhaseStats *A, const PhaseStats *B) {
              if (A->SelfUs != B->SelfUs)
                return A->SelfUs > B->SelfUs;
              return A->Name < B->Name;
            });
  Out += "| phase | count | total ms | self ms | self share | p50 us | "
         "p99 us | work |\n";
  Out += "|---|---|---|---|---|---|---|---|\n";
  for (const PhaseStats *Phase : Ranked) {
    std::string Work;
    for (const auto &W : Phase->Work) {
      if (!Work.empty())
        Work += ", ";
      Work += W.first + "=" + std::to_string(W.second);
    }
    if (Work.empty())
      Work = "-";
    double Share = TotalSelfUs > 0 ? Phase->SelfUs / TotalSelfUs : 0.0;
    Out += "| " + Phase->Name + " | " + std::to_string(Phase->Count) +
           " | " + renderRate(Phase->TotalUs / 1000.0) + " | " +
           renderRate(Phase->SelfUs / 1000.0) + " | " +
           renderPercent(Share) + " | " + renderRate(Phase->P50Us) + " | " +
           renderRate(Phase->P99Us) + " | " + Work + " |\n";
  }
  Out += "\n";
  return Out;
}

std::string cws::obs::renderRunReport(const ParsedJournal &J,
                                      const ParsedTimeSeries &Ts,
                                      const std::vector<SloResult> &Slo,
                                      const ParsedProfile *Profile) {
  std::map<std::string, double> Ind = computeIndicators(J, Ts);
  auto Get = [&Ind](const char *Name) {
    auto It = Ind.find(Name);
    return It == Ind.end() ? 0.0 : It->second;
  };
  Tick Horizon = 0;
  for (const ParsedJournalEvent &E : J.Events)
    Horizon = std::max(Horizon, static_cast<Tick>(E.At));
  for (const TimeSeriesRow &R : Ts.Rows)
    Horizon = std::max(Horizon, R.At);

  std::string Out = "# CWS run report\n\n";

  //===--- Overview -------------------------------------------------------===//
  Out += "## Overview\n\n";
  Out += "| indicator | value |\n|---|---|\n";
  auto Row = [&Out](const std::string &K, const std::string &V) {
    Out += "| " + K + " | " + V + " |\n";
  };
  Row("run horizon (ticks)", std::to_string(Horizon));
  Row("jobs submitted", renderNumber(Get("jobs_submitted")));
  Row("jobs committed", renderNumber(Get("jobs_committed")));
  Row("jobs rejected", renderNumber(Get("jobs_rejected")));
  Row("commit rate", renderPercent(Get("commit_rate")));
  Row("deadline miss rate", Ind.count("deadline_miss_rate")
                                ? renderPercent(Get("deadline_miss_rate"))
                                : "n/a");
  Row("environment changes", renderNumber(Get("env_changes")));
  Row("invalidations", renderNumber(Get("invalidations")));
  Row("reallocations", renderNumber(Get("reallocations")));
  Row("reallocations per commit",
      renderRate(Get("reallocations_per_commit")));
  // Staged-repair mix, present only in repair-mode journals (a
  // rebuild-mode run has no repair.stage events).
  if (Ind.count("realloc_failed")) {
    Row("reallocations repaired (shift)",
        renderNumber(Get("realloc_repaired_shift")));
    Row("reallocations repaired (dp)",
        renderNumber(Get("realloc_repaired_dp")));
    Row("reallocations rebuilt", renderNumber(Get("realloc_rebuilt")));
    Row("reallocations failed", renderNumber(Get("realloc_failed")));
    if (Ind.count("repair_stage12_share"))
      Row("stage-1/2 repair share",
          renderPercent(Get("repair_stage12_share")));
  }
  // Scan-vs-index comparison, present only when the run sampled the
  // invalidation probes (a scan run shows the first, an index run the
  // others — two runs of cws-report give the before/after).
  if (Ind.count("env_scan_placements"))
    Row("placements re-validated (scan)",
        renderNumber(Get("env_scan_placements")));
  if (Ind.count("env_index_candidates"))
    Row("index candidates re-validated",
        renderNumber(Get("env_index_candidates")));
  if (Ind.count("env_index_placements"))
    Row("hit slots re-validated (index)",
        renderNumber(Get("env_index_placements")));
  Out += "\n";

  //===--- Utilization ----------------------------------------------------===//
  Out += "## Utilization\n\n";
  // Per-node means over every frame that carried occupancy rows.
  struct NodeUtil {
    double Busy = 0, Background = 0, Reserved = 0;
    double BusyN = 0, BackgroundN = 0, ReservedN = 0;
    double meanBusy() const { return BusyN > 0 ? Busy / BusyN : 0; }
    double meanBackground() const {
      return BackgroundN > 0 ? Background / BackgroundN : 0;
    }
    double meanReserved() const {
      return ReservedN > 0 ? Reserved / ReservedN : 0;
    }
    double contention() const { return meanBusy() + meanBackground(); }
  };
  std::map<int64_t, NodeUtil> Nodes;
  for (const TimeSeriesRow &R : Ts.Rows) {
    if (R.Node < 0)
      continue;
    NodeUtil &N = Nodes[R.Node];
    if (R.Series == "util_busy") {
      N.Busy += R.Value;
      N.BusyN += 1;
    } else if (R.Series == "util_background") {
      N.Background += R.Value;
      N.BackgroundN += 1;
    } else if (R.Series == "util_reserved") {
      N.Reserved += R.Value;
      N.ReservedN += 1;
    }
  }
  if (Nodes.empty()) {
    Out += "No per-node series in the input (run with `--timeseries`).\n\n";
  } else {
    double MeanBusy = 0, MeanBackground = 0;
    for (const auto &[Id, N] : Nodes) {
      MeanBusy += N.meanBusy();
      MeanBackground += N.meanBackground();
    }
    MeanBusy /= static_cast<double>(Nodes.size());
    MeanBackground /= static_cast<double>(Nodes.size());
    Out += "Grid of " + std::to_string(Nodes.size()) +
           " nodes: mean busy (jobs) " + renderPercent(MeanBusy) +
           ", mean background " + renderPercent(MeanBackground) + ".\n\n";
    // Top-5 most contended: mean busy + background, ties to the lower
    // node id so the report is deterministic.
    std::vector<std::pair<int64_t, const NodeUtil *>> Ranked;
    for (const auto &[Id, N] : Nodes)
      Ranked.push_back({Id, &N});
    std::sort(Ranked.begin(), Ranked.end(),
              [](const auto &A, const auto &B) {
                if (A.second->contention() != B.second->contention())
                  return A.second->contention() > B.second->contention();
                return A.first < B.first;
              });
    if (Ranked.size() > 5)
      Ranked.resize(5);
    Out += "Most contended nodes:\n\n";
    Out += "| node | busy (jobs) | background | reserved (lookahead) |\n";
    Out += "|---|---|---|---|\n";
    for (const auto &[Id, N] : Ranked)
      Out += "| " + std::to_string(Id) + " | " +
             renderPercent(N->meanBusy()) + " | " +
             renderPercent(N->meanBackground()) + " | " +
             renderPercent(N->meanReserved()) + " |\n";
    Out += "\n";
  }

  //===--- Reallocation / invalidation timeline ---------------------------===//
  Out += "## Reallocation / invalidation timeline\n\n";
  double TotalChurn = Get("reallocations") + Get("invalidations");
  if (TotalChurn == 0) {
    Out += "No reallocations or invalidations recorded.\n\n";
  } else {
    // ~12 equal tick buckets across the run.
    const Tick Buckets = 12;
    Tick Width = Horizon / Buckets + 1;
    struct Bucket {
      int64_t Realloc = 0, Invalid = 0, Env = 0;
    };
    std::vector<Bucket> Hist(static_cast<size_t>(Buckets));
    for (const ParsedJournalEvent &E : J.Events) {
      auto Idx = static_cast<size_t>(E.At / Width);
      if (Idx >= Hist.size())
        Idx = Hist.size() - 1;
      if (E.Kind == "reallocate")
        ++Hist[Idx].Realloc;
      else if (E.Kind == "invalidate")
        ++Hist[Idx].Invalid;
      else if (E.Kind == "env.change")
        ++Hist[Idx].Env;
    }
    Out += "| ticks | env.changes | invalidations | reallocations |\n";
    Out += "|---|---|---|---|\n";
    for (size_t I = 0; I < Hist.size(); ++I) {
      Tick Lo = static_cast<Tick>(I) * Width;
      Tick Hi = Lo + Width - 1;
      Out += "| " + std::to_string(Lo) + "–" + std::to_string(Hi) +
             " | " + std::to_string(Hist[I].Env) + " | " +
             std::to_string(Hist[I].Invalid) + " | " +
             std::to_string(Hist[I].Realloc) + " |\n";
    }
    Out += "\n";
  }

  //===--- Per-flow QoS ---------------------------------------------------===//
  Out += "## Per-flow QoS\n\n";
  struct FlowCounts {
    int64_t Arrivals = 0, Commits = 0, Rejects = 0, Invalidations = 0,
            Reallocations = 0;
  };
  // std::map: flows render in ascending id order, independent of event
  // order.
  std::map<int64_t, FlowCounts> Flows;
  for (const ParsedJournalEvent &E : J.Events) {
    if (E.FlowId < 0 && E.JobId < 0)
      continue; // flowless marker events
    if (E.Kind == "arrival")
      ++Flows[E.FlowId].Arrivals;
    else if (E.Kind == "commit")
      ++Flows[E.FlowId].Commits;
    else if (E.Kind == "reject")
      ++Flows[E.FlowId].Rejects;
    else if (E.Kind == "invalidate")
      ++Flows[E.FlowId].Invalidations;
    else if (E.Kind == "reallocate")
      ++Flows[E.FlowId].Reallocations;
  }
  if (Flows.empty()) {
    Out += "No per-flow events in the journal.\n\n";
  } else {
    Out += "| flow | arrivals | commits | rejects | invalidations | "
           "reallocations | commit rate |\n";
    Out += "|---|---|---|---|---|---|---|\n";
    for (const auto &[Flow, C] : Flows) {
      double Rate = C.Arrivals > 0 ? static_cast<double>(C.Commits) /
                                         static_cast<double>(C.Arrivals)
                                   : 0.0;
      Out += "| " + (Flow < 0 ? std::string("-") : std::to_string(Flow)) +
             " | " + std::to_string(C.Arrivals) + " | " +
             std::to_string(C.Commits) + " | " + std::to_string(C.Rejects) +
             " | " + std::to_string(C.Invalidations) + " | " +
             std::to_string(C.Reallocations) + " | " + renderPercent(Rate) +
             " |\n";
    }
    Out += "\n";
  }

  //===--- Phase profile --------------------------------------------------===//
  if (Profile)
    Out += renderProfileSection(*Profile);

  //===--- SLO verdict ----------------------------------------------------===//
  if (!Slo.empty()) {
    Out += "## SLO\n\n";
    Out += "| indicator | rule | actual | status |\n|---|---|---|---|\n";
    bool AllPass = true;
    for (const SloResult &R : Slo) {
      AllPass = AllPass && R.Pass;
      Out += "| " + R.Rule.Indicator + " | " +
             (R.Rule.IsUpper ? "<= " : ">= ") + renderNumber(R.Rule.Bound) +
             " | " + (R.Known ? renderRate(R.Actual) : "unknown") + " | " +
             (R.Pass ? "ok" : "**BREACH**") + " |\n";
    }
    Out += "\nSLO: " + std::string(AllPass ? "**PASS**" : "**FAIL**") +
           "\n";
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Sweep statistics store
//===----------------------------------------------------------------------===//

double SweepIndicatorStats::stat(const std::string &Name,
                                 bool &Known) const {
  Known = true;
  if (Name.empty() || Name == "mean")
    return Mean;
  if (Name == "ci95")
    return Ci95;
  if (Name == "p50")
    return P50;
  if (Name == "p90")
    return P90;
  if (Name == "p99")
    return P99;
  if (Name == "min")
    return Min;
  if (Name == "max")
    return Max;
  Known = false;
  return std::numeric_limits<double>::quiet_NaN();
}

const SweepIndicatorStats *
SweepScenario::indicator(const std::string &Name) const {
  auto It = Indicators.find(Name);
  return It == Indicators.end() ? nullptr : &It->second;
}

std::string SweepScenario::axisValue(const std::string &Name) const {
  for (const auto &[Axis, Value] : Axes)
    if (Axis == Name)
      return Value;
  return std::string();
}

/// NaN-aware CSV / table cell rendering: undefined statistics read
/// "n/a", never a fake number.
static std::string renderStat(double X) {
  return std::isnan(X) ? "n/a" : renderNumber(X);
}

static const char SweepHeader[] =
    "scenario,axes,indicator,n,mean,stddev,ci95,p50,p90,p99,min,max";

std::string cws::obs::sweepCsv(const SweepStore &S) {
  std::string Out = "# cws-sweep statistics\n# sweep runs=" +
                    std::to_string(S.Runs) +
                    " seeds=" + std::to_string(S.Seeds) + "\n";
  Out += SweepHeader;
  Out += "\n";
  for (const SweepScenario &Sc : S.Scenarios) {
    std::string Axes;
    for (const auto &[Axis, Value] : Sc.Axes) {
      if (!Axes.empty())
        Axes += ';';
      Axes += Axis + "=" + Value;
    }
    // std::map order: indicators render sorted by name.
    for (const auto &[Name, St] : Sc.Indicators) {
      Out += Sc.Id + "," + Axes + "," + Name + "," + std::to_string(St.N) +
             "," + renderStat(St.Mean) + "," + renderStat(St.Stddev) + "," +
             renderStat(St.Ci95) + "," + renderStat(St.P50) + "," +
             renderStat(St.P90) + "," + renderStat(St.P99) + "," +
             renderStat(St.Min) + "," + renderStat(St.Max) + "\n";
    }
  }
  return Out;
}

/// Parses a CSV statistic cell: "n/a" -> NaN, else a double.
static bool parseStatField(const std::string &Field, double &Out) {
  if (Field == "n/a") {
    Out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  char *End = nullptr;
  Out = std::strtod(Field.c_str(), &End);
  return End != Field.c_str() && !*End;
}

bool cws::obs::parseSweepCsv(const std::string &Text, SweepStore &Out,
                             std::string &Error) {
  Out = SweepStore{};
  size_t Pos = 0, LineNo = 0;
  bool SawHeader = false;
  // Scenario rows arrive grouped; remember the index of each id so
  // out-of-order files still pool correctly.
  std::map<std::string, size_t> Index;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    std::string Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    ++LineNo;
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (Line.empty())
      continue;
    if (Line[0] == '#') {
      const std::string Meta = "# sweep ";
      if (Line.compare(0, Meta.size(), Meta) == 0) {
        std::string Rest = Line.substr(Meta.size());
        size_t RunsAt = Rest.find("runs=");
        size_t SeedsAt = Rest.find("seeds=");
        if (RunsAt != std::string::npos)
          Out.Runs = std::strtoull(Rest.c_str() + RunsAt + 5, nullptr, 10);
        if (SeedsAt != std::string::npos)
          Out.Seeds = std::strtoull(Rest.c_str() + SeedsAt + 6, nullptr, 10);
      }
      continue;
    }
    if (!SawHeader) {
      if (Line != SweepHeader) {
        Error = "line " + std::to_string(LineNo) + ": expected header '" +
                std::string(SweepHeader) + "'";
        return false;
      }
      SawHeader = true;
      continue;
    }
    std::vector<std::string> Fields;
    size_t Start = 0;
    while (true) {
      size_t Comma = Line.find(',', Start);
      if (Comma == std::string::npos) {
        Fields.push_back(Line.substr(Start));
        break;
      }
      Fields.push_back(Line.substr(Start, Comma - Start));
      Start = Comma + 1;
    }
    if (Fields.size() != 12) {
      Error = "line " + std::to_string(LineNo) + ": expected 12 fields, got " +
              std::to_string(Fields.size());
      return false;
    }
    size_t ScIdx;
    if (auto It = Index.find(Fields[0]); It != Index.end()) {
      ScIdx = It->second;
    } else {
      ScIdx = Out.Scenarios.size();
      Index.emplace(Fields[0], ScIdx);
      SweepScenario Sc;
      Sc.Id = Fields[0];
      // axes: `name=value` pairs joined by ';'.
      const std::string &Axes = Fields[1];
      size_t APos = 0;
      while (APos < Axes.size()) {
        size_t Semi = Axes.find(';', APos);
        if (Semi == std::string::npos)
          Semi = Axes.size();
        std::string Pair = Axes.substr(APos, Semi - APos);
        APos = Semi + 1;
        size_t Eq = Pair.find('=');
        if (Eq == std::string::npos || Eq == 0) {
          Error = "line " + std::to_string(LineNo) + ": bad axes entry '" +
                  Pair + "'";
          return false;
        }
        Sc.Axes.emplace_back(Pair.substr(0, Eq), Pair.substr(Eq + 1));
      }
      Out.Scenarios.push_back(std::move(Sc));
    }
    SweepIndicatorStats St;
    char *End = nullptr;
    St.N = std::strtoull(Fields[3].c_str(), &End, 10);
    if (End == Fields[3].c_str() || *End) {
      Error = "line " + std::to_string(LineNo) + ": bad n '" + Fields[3] +
              "'";
      return false;
    }
    double *Slots[] = {&St.Mean, &St.Stddev, &St.Ci95, &St.P50,
                       &St.P90,  &St.P99,    &St.Min,  &St.Max};
    for (size_t I = 0; I < 8; ++I) {
      if (!parseStatField(Fields[4 + I], *Slots[I])) {
        Error = "line " + std::to_string(LineNo) + ": bad value '" +
                Fields[4 + I] + "'";
        return false;
      }
    }
    if (Fields[2].empty()) {
      Error = "line " + std::to_string(LineNo) + ": missing indicator name";
      return false;
    }
    Out.Scenarios[ScIdx].Indicators[Fields[2]] = St;
  }
  if (!SawHeader) {
    Error = "empty file";
    return false;
  }
  return true;
}

std::vector<SweepSloResult>
cws::obs::evaluateSweepSlo(const std::vector<SloRule> &Rules,
                           const SweepStore &S) {
  std::vector<SweepSloResult> Out;
  for (const SloRule &R : Rules) {
    SweepSloResult Res;
    Res.Rule = R;
    Res.Worst = std::numeric_limits<double>::quiet_NaN();
    bool StatKnown = true;
    for (const SweepScenario &Sc : S.Scenarios) {
      const SweepIndicatorStats *St = Sc.indicator(R.Indicator);
      if (!St || St->N == 0) {
        ++Res.Skipped;
        continue;
      }
      double Value = St->stat(R.Stat, StatKnown);
      if (!StatKnown)
        break;
      ++Res.Evaluated;
      // Track the scenario closest to (or deepest past) the bound.
      bool Worse = std::isnan(Res.Worst) ||
                   (R.IsUpper ? Value > Res.Worst : Value < Res.Worst);
      if (Worse) {
        Res.Worst = Value;
        Res.WorstScenario = Sc.Id;
      }
    }
    // Fail closed: unknown statistic, or an indicator no scenario
    // produced (a typo or a degenerate grid must not pass the gate).
    Res.Known = StatKnown && Res.Evaluated > 0;
    if (Res.Known) {
      // NaN comparisons are false, so an undefined worst value breaches.
      Res.Pass = R.IsUpper ? Res.Worst <= R.Bound : Res.Worst >= R.Bound;
    }
    Out.push_back(std::move(Res));
  }
  return Out;
}

namespace {
/// A scenario's position along one numeric axis, with the context key
/// formed by every *other* axis value.
struct AxisPoint {
  double Axis = 0.0;
  double Value = 0.0;
  std::string Context;
};
} // namespace

std::vector<SweepCrossing>
cws::obs::estimateSweepCrossings(const SweepStore &S,
                                 const std::string &Indicator,
                                 const std::string &Stat, double Bound) {
  std::vector<SweepCrossing> Out;
  if (S.Scenarios.empty())
    return Out;
  // Numeric axes: every scenario value parses as a double and at least
  // two distinct values exist.
  std::vector<std::string> AxisNames;
  for (const auto &[Axis, Value] : S.Scenarios.front().Axes)
    AxisNames.push_back(Axis);
  for (const std::string &Axis : AxisNames) {
    std::set<std::string> Distinct;
    bool Numeric = true;
    for (const SweepScenario &Sc : S.Scenarios) {
      std::string V = Sc.axisValue(Axis);
      if (V.empty()) {
        Numeric = false;
        break;
      }
      char *End = nullptr;
      std::strtod(V.c_str(), &End);
      if (End == V.c_str() || *End) {
        Numeric = false;
        break;
      }
      Distinct.insert(V);
    }
    if (!Numeric || Distinct.size() < 2)
      continue;
    // Group scenarios by the other axes (std::map: deterministic group
    // order), then walk each group along this axis.
    std::map<std::string, std::vector<AxisPoint>> Groups;
    for (const SweepScenario &Sc : S.Scenarios) {
      const SweepIndicatorStats *St = Sc.indicator(Indicator);
      if (!St || St->N == 0)
        continue;
      bool Known = true;
      double Value = St->stat(Stat, Known);
      if (!Known || std::isnan(Value))
        continue;
      AxisPoint P;
      P.Axis = std::strtod(Sc.axisValue(Axis).c_str(), nullptr);
      P.Value = Value;
      for (const auto &[Other, OtherValue] : Sc.Axes) {
        if (Other == Axis)
          continue;
        if (!P.Context.empty())
          P.Context += ", ";
        P.Context += Other + "=" + OtherValue;
      }
      Groups[P.Context].push_back(P);
    }
    for (auto &[Context, Points] : Groups) {
      std::sort(Points.begin(), Points.end(),
                [](const AxisPoint &A, const AxisPoint &B) {
                  return A.Axis < B.Axis;
                });
      for (size_t I = 1; I < Points.size(); ++I) {
        const AxisPoint &Lo = Points[I - 1];
        const AxisPoint &Hi = Points[I];
        double DLo = Lo.Value - Bound;
        double DHi = Hi.Value - Bound;
        // A crossing needs a sign change; a segment whose endpoint sits
        // exactly on the bound counts (interpolation lands on it).
        if ((DLo > 0) == (DHi > 0) && DLo != 0 && DHi != 0)
          continue;
        if (Hi.Axis == Lo.Axis)
          continue;
        SweepCrossing C;
        C.Axis = Axis;
        C.Indicator = Stat.empty() || Stat == "mean"
                          ? Indicator
                          : Indicator + "." + Stat;
        C.Bound = Bound;
        C.LoAxis = Lo.Axis;
        C.HiAxis = Hi.Axis;
        C.LoValue = Lo.Value;
        C.HiValue = Hi.Value;
        C.At = DHi == DLo ? Lo.Axis
                          : Lo.Axis + (Bound - Lo.Value) *
                                          (Hi.Axis - Lo.Axis) /
                                          (Hi.Value - Lo.Value);
        C.Context = Context;
        Out.push_back(std::move(C));
      }
    }
  }
  return Out;
}

/// "0.042 ± 0.011" (mean ± CI95), or "n/a" without samples.
static std::string renderMeanCi(const SweepIndicatorStats *St) {
  if (!St || St->N == 0 || std::isnan(St->Mean))
    return "n/a";
  std::string Out = renderRate(St->Mean);
  if (St->N > 1 && !std::isnan(St->Ci95))
    Out += " ± " + renderRate(St->Ci95);
  return Out;
}

static std::string renderStatCell(const SweepIndicatorStats *St,
                                  const char *Stat) {
  if (!St || St->N == 0)
    return "n/a";
  bool Known = true;
  double V = St->stat(Stat, Known);
  return !Known || std::isnan(V) ? "n/a" : renderRate(V);
}

std::string cws::obs::renderSweepReport(const SweepStore &S,
                                        const std::vector<SweepSloResult> &Slo) {
  std::string Out = "# CWS sweep report\n\n";

  //===--- Overview -------------------------------------------------------===//
  std::set<std::string> IndicatorNames;
  for (const SweepScenario &Sc : S.Scenarios)
    for (const auto &[Name, St] : Sc.Indicators)
      IndicatorNames.insert(Name);
  Out += "## Overview\n\n";
  Out += "| | |\n|---|---|\n";
  Out += "| scenarios | " + std::to_string(S.Scenarios.size()) + " |\n";
  Out += "| seed replicas per scenario | " + std::to_string(S.Seeds) + " |\n";
  Out += "| runs pooled | " + std::to_string(S.Runs) + " |\n";
  Out += "| indicators | " + std::to_string(IndicatorNames.size()) + " |\n\n";

  //===--- Per-scenario QoS -----------------------------------------------===//
  // The curated columns; the CSV store carries every indicator.
  static const char *KeyIndicators[] = {"deadline_miss_rate", "commit_rate",
                                        "reallocations_per_commit",
                                        "mean_node_busy"};
  Out += "## Per-scenario QoS (mean ± 95% CI across seeds)\n\n";
  Out += "| scenario | n | miss rate | miss p90 | commit rate | "
         "realloc/commit | node busy |\n";
  Out += "|---|---|---|---|---|---|---|\n";
  for (const SweepScenario &Sc : S.Scenarios) {
    uint64_t N = 0;
    for (const char *Key : KeyIndicators)
      if (const SweepIndicatorStats *St = Sc.indicator(Key))
        N = std::max(N, St->N);
    const SweepIndicatorStats *Miss = Sc.indicator("deadline_miss_rate");
    Out += "| " + Sc.Id + " | " + std::to_string(N) + " | " +
           renderMeanCi(Miss) + " | " + renderStatCell(Miss, "p90") + " | " +
           renderMeanCi(Sc.indicator("commit_rate")) + " | " +
           renderMeanCi(Sc.indicator("reallocations_per_commit")) + " | " +
           renderMeanCi(Sc.indicator("mean_node_busy")) + " |\n";
  }
  Out += "\nFull per-indicator statistics (p50/p90/p99, min/max) are in "
         "the sweep CSV store.\n\n";

  //===--- Per-axis trends ------------------------------------------------===//
  // Marginal means: scenarios sharing one axis value averaged together
  // (each scenario weighted equally).
  if (!S.Scenarios.empty()) {
    for (const auto &[Axis, FirstValue] : S.Scenarios.front().Axes) {
      std::set<std::string> Distinct;
      for (const SweepScenario &Sc : S.Scenarios)
        Distinct.insert(Sc.axisValue(Axis));
      if (Distinct.size() < 2)
        continue;
      // Axis values in grid order (first-seen across scenarios), so
      // numeric axes render in sweep order, not lexicographic.
      std::vector<std::string> Ordered;
      for (const SweepScenario &Sc : S.Scenarios) {
        std::string V = Sc.axisValue(Axis);
        if (std::find(Ordered.begin(), Ordered.end(), V) == Ordered.end())
          Ordered.push_back(V);
      }
      Out += "## Trend along " + Axis + "\n\n";
      Out += "| " + Axis + " | scenarios | miss rate | commit rate | "
             "realloc/commit | node busy |\n";
      Out += "|---|---|---|---|---|---|\n";
      for (const std::string &V : Ordered) {
        double Sums[4] = {0, 0, 0, 0};
        uint64_t Counts[4] = {0, 0, 0, 0};
        uint64_t Members = 0;
        for (const SweepScenario &Sc : S.Scenarios) {
          if (Sc.axisValue(Axis) != V)
            continue;
          ++Members;
          for (size_t K = 0; K < 4; ++K) {
            const SweepIndicatorStats *St = Sc.indicator(KeyIndicators[K]);
            if (St && St->N > 0 && !std::isnan(St->Mean)) {
              Sums[K] += St->Mean;
              ++Counts[K];
            }
          }
        }
        Out += "| " + V + " | " + std::to_string(Members) + " |";
        for (size_t K = 0; K < 4; ++K)
          Out += std::string(" ") +
                 (Counts[K] ? renderRate(Sums[K] /
                                         static_cast<double>(Counts[K]))
                            : "n/a") +
                 " |";
        Out += "\n";
      }
      Out += "\n";
    }
  }

  //===--- Crossing points ------------------------------------------------===//
  // Where each SLO rule's statistic crosses its bound along numeric
  // axes — the capacity-question answers ("at what arrival rate does
  // the miss rate cross 5%?").
  std::vector<SweepCrossing> Crossings;
  for (const SweepSloResult &R : Slo) {
    std::vector<SweepCrossing> C = estimateSweepCrossings(
        S, R.Rule.Indicator, R.Rule.Stat, R.Rule.Bound);
    Crossings.insert(Crossings.end(), C.begin(), C.end());
  }
  if (!Slo.empty()) {
    Out += "## Crossing points\n\n";
    if (Crossings.empty()) {
      Out += "No SLO bound is crossed along any numeric axis.\n\n";
    } else {
      for (const SweepCrossing &C : Crossings) {
        char Buf[64];
        std::snprintf(Buf, sizeof(Buf), "%.3g", C.At);
        Out += "- `" + C.Indicator + "` crosses " + renderNumber(C.Bound) +
               " between " + C.Axis + "=" + renderNumber(C.LoAxis) + " (" +
               renderRate(C.LoValue) + ") and " + C.Axis + "=" +
               renderNumber(C.HiAxis) + " (" + renderRate(C.HiValue) +
               ") at ≈ " + Buf;
        if (!C.Context.empty())
          Out += " (" + C.Context + ")";
        Out += "\n";
      }
      Out += "\n";
    }
  }

  //===--- SLO verdict ----------------------------------------------------===//
  if (!Slo.empty()) {
    Out += "## SLO (gating pooled statistics across seeds)\n\n";
    Out += "| rule | bound | worst scenario | actual | status |\n";
    Out += "|---|---|---|---|---|\n";
    bool AllPass = true;
    for (const SweepSloResult &R : Slo) {
      AllPass = AllPass && R.Pass;
      Out += "| " + R.Rule.fullName() + " | " +
             (R.Rule.IsUpper ? "<= " : ">= ") + renderNumber(R.Rule.Bound) +
             " | " + (R.Known ? R.WorstScenario : "-") + " | " +
             (R.Known ? renderRate(R.Worst) : "unknown") + " | " +
             (R.Pass ? "ok" : "**BREACH**") + " |\n";
    }
    Out += "\nSLO: " + std::string(AllPass ? "**PASS**" : "**FAIL**") +
           "\n";
  }
  return Out;
}
