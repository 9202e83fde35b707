//===-- metrics/Export.h - CSV export of schedules and stats ----*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CSV renderers for external analysis and plotting: a distribution's
/// placements, a strategy's variant summary, and the per-job QoS
/// records of a virtual-organization run; plus `ObsArtifacts`, the one
/// place the CLI tools register, enable, stamp and write their
/// observability artifacts.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_METRICS_EXPORT_H
#define CWS_METRICS_EXPORT_H

#include "core/Distribution.h"
#include "core/Strategy.h"
#include "flow/JobManager.h"
#include "obs/Metrics.h"

#include <string>
#include <vector>

namespace cws {

class Flags;
namespace obs {
struct RunProvenance;
} // namespace obs

/// Placements as CSV: task,name,node,start,end,cost.
std::string distributionCsv(const Job &J, const Distribution &D);

/// Variant summary as CSV: variant,level_perf,bias,feasible,start,
/// makespan,econ_cost,cf,collisions.
std::string strategyCsv(const Strategy &S);

/// Per-job VO records as CSV (one row per job).
std::string voStatsCsv(const std::vector<VoJobStats> &Stats);

/// Registry snapshot as CSV: metric,type,series,le,value. Histograms
/// expand into one cumulative `bucket` row per bound plus `sum` and
/// `count` rows, mirroring the Prometheus exposition.
std::string metricsCsv(const obs::Registry &R = obs::Registry::global());

/// Writes \p Text to \p Path; returns false on I/O failure.
bool writeTextFile(const std::string &Path, const std::string &Text);

/// Writes a metrics snapshot of \p R to \p Path: CSV when the path ends
/// in ".csv", Prometheus text exposition otherwise.
bool writeMetricsSnapshot(const std::string &Path,
                          const obs::Registry &R = obs::Registry::global());

/// The observability artifacts a CLI run may write, one path per sink
/// (empty = not requested), and the one implementation of their flags,
/// set-up and export that every tool shares.
struct ObsArtifacts {
  std::string Trace;
  std::string TraceCategories;
  std::string Metrics;
  std::string Journal;
  std::string TimeSeries;
  std::string Profile;

  /// Registers --trace, --trace-categories, --metrics, --journal,
  /// --timeseries and --profile on \p F.
  void addFlags(Flags &F);

  /// Enables the sink of every requested artifact. --metrics turns the
  /// profiler on too, so the snapshot carries the `cws_phase_*` series.
  /// \p SampleEvery > 0 overrides the time-series frame cadence.
  void enable(int64_t SampleEvery = 0) const;

  /// Stamps \p P into the journal, time-series and profile exports.
  void stamp(const obs::RunProvenance &P) const;

  /// Stops every sink and writes the requested artifacts, noting each
  /// on stderr as "<Tool>: wrote ...". The time-series and phase-summary
  /// tracks merge into the trace; profiler and time-series statistics
  /// are published before the metrics snapshot. Returns false after
  /// printing "<Tool>: cannot write ..." when a write fails.
  bool write(const char *Tool) const;
};

} // namespace cws

#endif // CWS_METRICS_EXPORT_H
