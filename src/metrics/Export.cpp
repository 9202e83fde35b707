//===-- metrics/Export.cpp - CSV export of schedules and stats ------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "metrics/Export.h"
#include "job/Job.h"
#include "obs/Journal.h"
#include "obs/Profiler.h"
#include "obs/TimeSeries.h"
#include "obs/Trace.h"
#include "support/Flags.h"

#include <cstdio>

using namespace cws;

std::string cws::distributionCsv(const Job &J, const Distribution &D) {
  std::string Out = "task,name,node,start,end,cost\n";
  char Buf[160];
  for (const auto &P : D.placements()) {
    std::snprintf(Buf, sizeof(Buf), "%u,%s,%u,%lld,%lld,%.3f\n", P.TaskId,
                  J.task(P.TaskId).Name.c_str(), P.NodeId,
                  static_cast<long long>(P.Start),
                  static_cast<long long>(P.End), P.EconomicCost);
    Out += Buf;
  }
  return Out;
}

std::string cws::strategyCsv(const Strategy &S) {
  std::string Out =
      "variant,level_perf,bias,feasible,start,makespan,econ_cost,cf,"
      "collisions\n";
  char Buf[200];
  size_t Idx = 0;
  for (const auto &V : S.variants()) {
    const Distribution &D = V.Result.Dist;
    if (V.feasible())
      std::snprintf(Buf, sizeof(Buf), "%zu,%.3f,%s,1,%lld,%lld,%.3f,%lld,%zu\n",
                    Idx, V.LevelPerf, optimizationBiasName(V.Bias),
                    static_cast<long long>(D.startTime()),
                    static_cast<long long>(D.makespan()), D.economicCost(),
                    static_cast<long long>(
                        D.costFunction(S.scheduledJob())),
                    V.Result.Collisions.size());
    else
      std::snprintf(Buf, sizeof(Buf), "%zu,%.3f,%s,0,,,,,%zu\n", Idx,
                    V.LevelPerf, optimizationBiasName(V.Bias),
                    V.Result.Collisions.size());
    Out += Buf;
    ++Idx;
  }
  return Out;
}

std::string cws::voStatsCsv(const std::vector<VoJobStats> &Stats) {
  std::string Out =
      "job,arrival,deadline,admissible,committed,rejected,reallocated,"
      "switched,forecast_start,actual_start,completion,cost,cf,ttl,"
      "ttl_closed,collisions\n";
  char Buf[256];
  for (const auto &St : Stats) {
    std::snprintf(
        Buf, sizeof(Buf),
        "%u,%lld,%lld,%d,%d,%d,%d,%d,%lld,%lld,%lld,%.3f,%lld,%lld,%d,%zu\n",
        St.JobId, static_cast<long long>(St.Arrival),
        static_cast<long long>(St.Deadline), St.Admissible, St.Committed,
        St.Rejected, St.Reallocated, St.Switched,
        static_cast<long long>(St.ForecastStart),
        static_cast<long long>(St.ActualStart),
        static_cast<long long>(St.Completion), St.Cost,
        static_cast<long long>(St.Cf), static_cast<long long>(St.Ttl),
        St.TtlClosed, St.Collisions);
    Out += Buf;
  }
  return Out;
}

std::string cws::metricsCsv(const obs::Registry &R) {
  std::string Out = "metric,type,series,le,value\n";
  char Buf[64];
  for (const obs::Registry::Sample &S : R.samples()) {
    std::snprintf(Buf, sizeof(Buf), ",%.17g\n", S.Value);
    Out += S.Name + "," + S.Type + "," + S.Series + "," + S.Le + Buf;
  }
  return Out;
}

bool cws::writeTextFile(const std::string &Path, const std::string &Text) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  size_t Written = std::fwrite(Text.data(), 1, Text.size(), F);
  bool Ok = Written == Text.size();
  Ok = std::fclose(F) == 0 && Ok;
  return Ok;
}

bool cws::writeMetricsSnapshot(const std::string &Path,
                               const obs::Registry &R) {
  // Snapshots of the global registry also carry the tracer's and
  // journal's loss counters, so trace/journal incompleteness is visible
  // in the same export.
  if (&R == &obs::Registry::global()) {
    obs::publishTraceStats(obs::Registry::global());
    obs::publishJournalStats(obs::Registry::global());
  }
  bool Csv = Path.size() >= 4 && Path.compare(Path.size() - 4, 4, ".csv") == 0;
  return writeTextFile(Path, Csv ? metricsCsv(R) : R.prometheusText());
}

void ObsArtifacts::addFlags(Flags &F) {
  F.addString("trace", &Trace,
              "write a Chrome trace-event JSON timeline of the run");
  F.addString("trace-categories", &TraceCategories,
              "record only these trace categories, comma-separated "
              "(e.g. core,flow; empty = all)");
  F.addString("metrics", &Metrics,
              "write a metrics snapshot (Prometheus text, CSV if *.csv)");
  F.addString("journal", &Journal,
              "write the per-job decision journal as JSONL "
              "(inspect with cws-explain)");
  F.addString("timeseries", &TimeSeries,
              "write the telemetry series (tidy CSV, JSONL if *.jsonl; "
              "inspect with cws-report)");
  F.addString("profile", &Profile,
              "write the phase profile (where wall time and work went) "
              "as JSON; inspect with cws-report --profile");
}

void ObsArtifacts::enable(int64_t SampleEvery) const {
  if (!Trace.empty()) {
    obs::Tracer::global().setCategoryFilter(TraceCategories);
    obs::Tracer::global().enable();
  }
  if (!Journal.empty())
    obs::Journal::global().enable();
  if (!Profile.empty() || !Metrics.empty())
    obs::Profiler::global().enable();
  if (!TimeSeries.empty()) {
    obs::TimeSeriesConfig Config;
    if (SampleEvery > 0)
      Config.SampleEvery = SampleEvery;
    obs::TimeSeries::global().enable(Config);
  }
}

void ObsArtifacts::stamp(const obs::RunProvenance &P) const {
  obs::Journal::global().setProvenance(P);
  obs::TimeSeries::global().setProvenance(P);
  obs::Profiler::global().setProvenance(P);
}

/// Prints "<Tool>: wrote <kept> <Sink> <Unit> to <Path>" with the
/// ring's and the category filter's losses, for a ring that recorded
/// \p Recorded items.
static void noteWritten(const char *Tool, const char *Sink, const char *Unit,
                        const std::string &Path, uint64_t Recorded,
                        uint64_t Dropped, uint64_t Masked = 0) {
  std::fprintf(stderr, "%s: wrote %llu %s %s to %s", Tool,
               static_cast<unsigned long long>(Recorded - Dropped), Sink,
               Unit, Path.c_str());
  if (Dropped > 0)
    std::fprintf(stderr, " (%llu older %s dropped by the ring)",
                 static_cast<unsigned long long>(Dropped), Unit);
  if (Masked > 0)
    std::fprintf(stderr, " (%llu events masked by --trace-categories)",
                 static_cast<unsigned long long>(Masked));
  std::fprintf(stderr, "\n");
}

bool ObsArtifacts::write(const char *Tool) const {
  auto Fail = [Tool](const char *What, const std::string &Path) {
    std::fprintf(stderr, "%s: cannot write %s '%s'\n", Tool, What,
                 Path.c_str());
    return false;
  };
  obs::Registry &R = obs::Registry::global();
  // Stop sampling before any export; the counter tracks and occupancy
  // slices merge into the trace file next to the scopes' slices.
  obs::TimeSeries &Ts = obs::TimeSeries::global();
  std::string Extra;
  if (!TimeSeries.empty()) {
    Ts.disable();
    Extra = Ts.chromeTraceEvents();
  }
  obs::Profiler &P = obs::Profiler::global();
  P.disable();
  if (!Profile.empty()) {
    // The per-phase summary slices ride the same trace file.
    std::string PhaseExtra = P.chromeTraceEvents();
    if (!PhaseExtra.empty())
      Extra += (Extra.empty() ? "" : ",") + PhaseExtra;
    if (!P.writeJson(Profile))
      return Fail("profile", Profile);
    std::fprintf(stderr, "%s: wrote %zu profiled phases to %s\n", Tool,
                 P.snapshot().size(), Profile.c_str());
  }
  if (!Profile.empty() || !Metrics.empty())
    publishProfilerStats(P, R);

  if (!Trace.empty()) {
    obs::Tracer &Tr = obs::Tracer::global();
    Tr.disable();
    if (!Tr.writeJson(Trace, Extra))
      return Fail("trace", Trace);
    noteWritten(Tool, "trace", "events", Trace, Tr.recorded(), Tr.dropped(),
                Tr.filtered());
  }
  if (!Journal.empty()) {
    obs::Journal &Jn = obs::Journal::global();
    Jn.disable();
    if (!Jn.writeJsonl(Journal))
      return Fail("journal", Journal);
    noteWritten(Tool, "journal", "events", Journal, Jn.recorded(),
                Jn.dropped());
  }
  if (!TimeSeries.empty()) {
    if (!Ts.writeFile(TimeSeries))
      return Fail("time series", TimeSeries);
    publishTimeSeriesStats(R);
    noteWritten(Tool, "telemetry", "frames", TimeSeries, Ts.recorded(),
                Ts.dropped());
  }
  if (!Metrics.empty() && !writeMetricsSnapshot(Metrics))
    return Fail("metrics", Metrics);
  return true;
}
