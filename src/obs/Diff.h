//===-- obs/Diff.h - Semantic differential run analysis ---------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured comparator behind `tools/cws-diff`: semantic diffs
/// over the run artifacts the stack emits, replacing byte-level `cmp`
/// with answers a scheduler engineer can act on.
///
///  - **Journal mode** aligns decision-journal events per job (the
///    global interleaving is an implementation detail of the shard
///    merge; the per-job causal chain is the contract), compares the
///    meta/provenance header field by field under a `MetaPolicy`
///    (shard count and CLI text legitimately differ between compared
///    invocations; seed, scenario and config hash must not, unless a
///    differential-oracle run says otherwise), and localizes the
///    *first* diverging (job, event) with both runs' cause chains —
///    "job 42 diverged at t=310: run A reallocated, run B committed"
///    instead of "byte 48211 differs".
///  - **Series mode** compares telemetry time-series rows under
///    per-series tolerance classes: exact for deterministic counter
///    deltas (the default), epsilon bands for derived ratios, and
///    excluded for wall-time-contaminated series (`*_us` / `*_ms` /
///    `*wall*` are excluded out of the box — sim artifacts never carry
///    them, but metrics-registry CSVs do).
///  - **Sweep mode** compares pooled per-scenario indicator
///    distributions: exact field equality first, then a CI-overlap
///    test on the means and a relative quantile-shift test on
///    p50/p90/p99, yielding a three-way verdict (identical /
///    compatible / diverged) that backs the baseline regression gate.
///
/// All comparisons are pure functions over the parsed artifact
/// structures, so tests pin verdicts and renderings without running
/// the binary. Exit-code convention of every consumer: 0 identical (or
/// statistically compatible when accepted), 1 divergence, 2 usage/IO
/// error.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_OBS_DIFF_H
#define CWS_OBS_DIFF_H

#include "obs/Journal.h"
#include "obs/Report.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cws {
namespace obs {

/// Which provenance fields of two compared artifacts may legitimately
/// differ. The default matches the common CI comparison — one run at
/// different lane/shard counts: the CLI text (it names per-run paths
/// and flags) and the shard count (results are shard-invariant) may
/// differ, the identity fields may not.
struct MetaPolicy {
  bool AllowSeed = false;
  bool AllowConfigHash = false;
  bool AllowScenario = false;
  bool AllowShards = true;
  bool AllowCli = true;
  /// Skip meta comparison entirely (legacy unstamped artifacts).
  bool Off = false;
};

/// Tolerance class of one time-series pattern.
enum class SeriesClass : uint8_t {
  /// Values must match exactly (deterministic counter deltas).
  Exact,
  /// |a - b| <= Eps passes (derived ratios, utilization fractions).
  Tolerance,
  /// The series is skipped entirely (wall-time histograms).
  Excluded,
};

/// One tolerance rule: glob `Pattern` (with `*` wildcards) -> class.
/// First matching rule wins; unmatched series default to Exact.
struct SeriesRule {
  std::string Pattern;
  SeriesClass Class = SeriesClass::Exact;
  double Eps = 0.0;
};

/// Comparison options shared by the three modes.
struct DiffOptions {
  MetaPolicy Meta;
  /// Tolerance rules checked in order; `defaultSeriesRules()` is
  /// prepended unless `NoDefaultSeriesRules`.
  std::vector<SeriesRule> Series;
  bool NoDefaultSeriesRules = false;
  /// Sweep mode: relative shift of p50/p90/p99 still considered
  /// compatible (|a-b| <= Tol * max(|a|, |b|)).
  double QuantileShiftTol = 0.10;
  /// Findings kept per result; the total is still counted.
  size_t MaxFindings = 20;
  /// Outcome mode only: compare a repair-mode run (A) against its
  /// rebuild oracle (B) up to the divergence staged repair is *meant*
  /// to cause. Staged repair strictly dominates the rebuild — its
  /// stage 3 *is* the rebuild, and stages 1/2 can keep placements of
  /// the stale plan that a from-scratch rebuild at Now can no longer
  /// reproduce — so the first stage-1/2 repair success is the moment
  /// the two runs' grids part ways. Three acceptances follow:
  ///  - **saves**: A=committed / B=rejected with a successful
  ///    `repair.stage` resolution on A's record for that job (any
  ///    stage — later stage-3 rebuilds run on the already-diverged
  ///    grid);
  ///  - **post-repair drift**: both verdicts decisive (committed or
  ///    rejected) and both decided at or after the first stage-1/2
  ///    repair tick — second-order crowding on the diverged grid
  ///    flips verdicts in either direction;
  ///  - everything else — any divergence before the first repair, or
  ///    involving an open/absent verdict — still fails, and accepted
  ///    drift must never leave A committing fewer jobs than B in
  ///    total (the dominance backstop).
  bool AllowRepairSaves = false;
};

/// The built-in wall-time exclusions (`*_us`, `*_ms`, `*wall*`).
std::vector<SeriesRule> defaultSeriesRules();

/// Matches \p Text against glob \p Pattern (`*` matches any run, no
/// other metacharacters).
bool globMatch(const std::string &Pattern, const std::string &Text);

/// Three-way comparison outcome.
enum class DiffVerdict : uint8_t {
  /// Semantically equal under the policy.
  Identical,
  /// Sweep mode only: not field-equal, but every difference passes the
  /// CI-overlap and quantile-shift tests.
  Compatible,
  Diverged,
};

const char *diffVerdictName(DiffVerdict V);

/// One localized difference ("meta.seed", "job 42", "series x seq 3").
struct DiffFinding {
  std::string Where;
  /// Rendered values from each run ("(absent)" when one side lacks
  /// the record).
  std::string A;
  std::string B;
};

/// Journal mode's first-divergence localization: the earliest (by
/// tick, then job) point where the two runs' causal chains part ways.
struct JournalDivergence {
  bool Present = false;
  int64_t JobId = -1;
  int64_t Tick = 0;
  /// 0-based position in the job's event sequence.
  size_t IndexInJob = 0;
  /// Inline renderings of the diverging event from each run.
  std::string EventA;
  std::string EventB;
  /// The job's cause chain from each run, up to and including the
  /// divergence, with triggers expanded to the environment change
  /// they reference.
  std::string ChainA;
  std::string ChainB;
};

/// Result of one comparison.
struct DiffResult {
  DiffVerdict Verdict = DiffVerdict::Identical;
  /// "journal" | "series" | "sweep".
  std::string Mode;
  std::vector<DiffFinding> MetaFindings;
  std::vector<DiffFinding> Findings;
  /// Total differences found (Findings is capped at MaxFindings).
  size_t TotalFindings = 0;
  /// Journal mode only.
  JournalDivergence First;
  /// One-line human verdict.
  std::string Summary;

  bool identical() const { return Verdict == DiffVerdict::Identical; }
};

/// Journal mode: per-job event alignment + selective meta comparison.
/// Raw `cause` ids are not compared (the cause is structural — the
/// job's previous event); `trigger` references are compared by the
/// content of the environment change they resolve to.
DiffResult diffJournals(const ParsedJournal &A, const ParsedJournal &B,
                        const DiffOptions &Opts = DiffOptions());

/// Outcome mode (`cws-diff --outcomes`): per-job terminal verdict
/// equivalence. Each job's commit/reject verdict must agree across the
/// two journals; placements, costs, event interleaving and repair
/// stages may all differ. This is the cross-reallocation-mode gate —
/// repair and rebuild runs legitimately schedule differently, but must
/// admit and reject the same jobs — except for the saves
/// `Opts.AllowRepairSaves` vouches for. Callers comparing across modes
/// pass `Opts.Meta.AllowConfigHash` (the reallocation mode is part of
/// the canonical config, so the hashes differ by construction).
DiffResult diffJournalOutcomes(const ParsedJournal &A, const ParsedJournal &B,
                               const DiffOptions &Opts = DiffOptions());

/// Series mode: row-by-row comparison under the tolerance rules.
DiffResult diffTimeSeries(const ParsedTimeSeries &A,
                          const ParsedTimeSeries &B,
                          const DiffOptions &Opts = DiffOptions());

/// Sweep mode's exact check: every pooled statistic field-equal, with
/// n/a (NaN) equal only to n/a.
bool statsIdentical(const SweepIndicatorStats &A,
                    const SweepIndicatorStats &B);

/// Sweep mode's statistical compatibility of two pooled statistics:
/// sample counts agree (a replica-count change is never "noise"), means
/// pass when their 95% CIs overlap, and p50/p90/p99 pass when they
/// shift by at most \p QuantileShiftTol relative to the larger
/// magnitude; n/a is compatible only with n/a. On failure \p Why, when
/// given, names the first failing test.
bool statsCompatible(const SweepIndicatorStats &A,
                     const SweepIndicatorStats &B, double QuantileShiftTol,
                     std::string *Why = nullptr);

/// Sweep mode: scenario/indicator alignment, then statsIdentical and
/// statsCompatible per indicator.
DiffResult diffSweeps(const SweepStore &A, const SweepStore &B,
                      const DiffOptions &Opts = DiffOptions());

/// Renders the terse console form (one line per finding, first
/// divergence with both cause chains).
std::string renderDiffText(const DiffResult &R, const std::string &LabelA,
                           const std::string &LabelB);

/// Renders the Markdown diff report (`cws-diff --report`): verdict,
/// meta table, first divergence with cause chains, finding table.
/// Deterministic for fixed inputs.
std::string renderDiffReport(const DiffResult &R, const std::string &LabelA,
                             const std::string &LabelB);

/// Side-by-side causal timelines of one job from two runs plus their
/// first divergence — the `cws-explain --diff-job` passthrough.
std::string explainJobDiff(const ParsedJournal &A, const ParsedJournal &B,
                           int64_t JobId);

} // namespace obs
} // namespace cws

#endif // CWS_OBS_DIFF_H
