//===-- obs/Profiler.h - Hierarchical phase profiler ------------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one instrumentation path: an RAII `obs::Scope` per instrumented
/// site feeds both the hierarchical phase profiler defined here and the
/// span tracer (`obs/Trace.h`), so the profile, the trace and the
/// `cws_phase_*` metrics name and count the same scopes.
///
/// The profiler answers "where did the scheduler's wall-clock and work
/// go": scopes accumulate per-phase call counts, total/self wall time
/// and duration quantiles (via `obs::Histogram`), plus named *work
/// counters* (placements re-validated, DP labels kept, variants built)
/// attached with `Scope::work` or `Profiler::addWork`.
///
/// Accumulation is per-thread — a scope never touches shared profiler
/// state while open, the same discipline as `JournalBuffer` — and
/// threads merge deterministically at export: counts, work and
/// histogram buckets add, phases sort by name. Counts and work counters
/// are therefore identical at any `--build-threads` / `--shards` value;
/// only the wall-time fields vary run to run.
///
/// Both sinks are disabled by default, and a scope opened while they
/// are is two relaxed atomic loads plus branches — no clock read, no
/// allocation (`bench/obs_overhead` and `tests/test_profiler` guard
/// this). `CWS_OBS_ENABLED=0` removes the scope bodies entirely.
///
/// Categories, phase names and argument keys must be string literals
/// (or otherwise outlive both sinks). Work counters may be attached to
/// a phase that is not open on the calling thread —
/// `Profiler::addWork("env.invalidate", ...)` from a worker lane lands
/// in the same merged accumulator as the caller-side scope, which is
/// what keeps totals lane-invariant when the *scope* runs once on the
/// caller but the *work* fans out.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_OBS_PROFILER_H
#define CWS_OBS_PROFILER_H

#include "obs/Provenance.h"
#include "obs/Trace.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cws {
namespace obs {

class Histogram;
class Registry;
class Scope;

/// Merged statistics of one phase, the unit of every export form.
struct PhaseStats {
  std::string Name;
  /// Completed scopes (phases still open at snapshot are not counted).
  uint64_t Count = 0;
  /// Wall time inside the phase, child phases included.
  double TotalUs = 0.0;
  /// Wall time minus same-thread child-phase time, >= 0.
  double SelfUs = 0.0;
  /// Per-scope duration quantiles (NaN when Count == 0).
  double P50Us = 0.0;
  double P99Us = 0.0;
  /// Deterministic work counters, sorted by name.
  std::vector<std::pair<std::string, uint64_t>> Work;

  const uint64_t *work(const std::string &Counter) const;
};

/// A parsed `profile.json` (written by `Profiler::json`).
struct ParsedProfile {
  RunProvenance Prov;
  /// Sorted by phase name, like every export.
  std::vector<PhaseStats> Phases;
  bool empty() const { return Phases.empty(); }
};

/// Parses text written by `Profiler::json`. Returns false and sets
/// \p Error on malformed input or a schema mismatch.
bool parseProfileJson(const std::string &Text, ParsedProfile &Out,
                      std::string &Error);

/// The process-wide phase profiler. Tests may construct their own.
class Profiler {
public:
  Profiler();
  ~Profiler();

  /// The instance every `Scope` records into.
  static Profiler &global();

  /// Starts accumulating. Unlike the tracer there is no ring to size:
  /// state is per-phase, not per-event. Previously accumulated data is
  /// kept (pause/resume); call reset() for a fresh profile.
  void enable() { On.store(true, std::memory_order_relaxed); }
  void disable() { On.store(false, std::memory_order_relaxed); }
  bool enabled() const { return On.load(std::memory_order_relaxed); }

  /// Drops all accumulated data (thread registrations survive, like
  /// the metrics registry) and disables the profiler.
  void reset();

  /// Provenance stamped into `json()`, mirroring Journal/TimeSeries.
  void setProvenance(const RunProvenance &P);

  /// Attaches \p N units of \p Counter to \p Phase on the calling
  /// thread's accumulator, whether or not the phase is open here.
  /// No-op while disabled.
  void addWork(const char *Phase, const char *Counter, uint64_t N);

  /// Merges every thread's accumulators into the deterministic export
  /// form: phases sorted by name, counts / work / histogram buckets
  /// added across threads.
  std::vector<PhaseStats> snapshot() const;

  /// The `profile.json` document (`cws-profile-v1` schema): provenance
  /// plus one record per phase, sorted by name.
  std::string json() const;

  /// Writes json() to \p Path; false on I/O failure.
  bool writeJson(const std::string &Path) const;

  /// Pre-rendered comma-separated Chrome trace-event fragment — one
  /// complete ("X") summary slice per phase on a dedicated pid, laid
  /// end to end — for splicing into `Tracer::chromeJson(Extra)`.
  /// Empty when nothing was profiled.
  std::string chromeTraceEvents() const;

private:
  friend class Scope;

  /// Accumulator of one phase on one thread.
  struct PhaseAccum {
    uint64_t Count = 0;
    double TotalUs = 0.0;
    /// Same-thread child-phase time inside this phase.
    double ChildUs = 0.0;
    std::unique_ptr<Histogram> DurUs;
    std::map<std::string, uint64_t> Work;
  };

  /// One thread's accumulation state. Owned by the profiler so data
  /// survives thread exit; the mutex only contends with snapshot().
  struct ThreadState {
    mutable std::mutex Mu;
    std::map<std::string, PhaseAccum> Phases;
    /// Innermost open scope on this thread (self-time chain).
    Scope *Open = nullptr;
  };

  ThreadState &threadState();

  std::atomic<bool> On{false};
  mutable std::mutex Mu;
  std::vector<std::unique_ptr<ThreadState>> Threads;
  RunProvenance Prov;
};

/// RAII instrumentation scope: `obs::Scope S("core", "chain.dp");`.
/// Each sink decides once, when the scope opens: if the profiler is
/// enabled the scope accumulates into phase \p Name, and if the tracer
/// is enabled it records a Begin event and the matching End when it
/// closes. A sink switched on while the scope is open therefore sees
/// neither a partial phase nor an unmatched End.
class Scope {
public:
#if CWS_OBS_ENABLED
  Scope(const char *Category, const char *Name);
  Scope(const char *Category, const char *Name, const char *Key,
        int64_t Value)
      : Scope(Category, Name) {
    arg(Key, Value);
  }
  ~Scope();
  /// Attaches \p N units of \p Counter to this phase (profiler only).
  void work(const char *Counter, uint64_t N);
  /// Attaches a numeric argument to the trace End event (at most two;
  /// later calls overwrite the second slot).
  void arg(const char *Key, int64_t Value) {
    if (!Traced)
      return;
    size_t Slot = ArgCount < 2 ? ArgCount++ : 1;
    Args[Slot] = TraceArg{Key, Value};
  }
#else
  Scope(const char *, const char *) {}
  Scope(const char *, const char *, const char *, int64_t) {}
  void work(const char *, uint64_t) {}
  void arg(const char *, int64_t) {}
#endif

  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
#if CWS_OBS_ENABLED
  const char *Category;
  const char *Name;
  /// The profiler's state of this thread; null when not profiled.
  Profiler::ThreadState *TS = nullptr;
  Scope *Parent = nullptr;
  int64_t StartNs = 0;
  /// Closed same-thread child time, accumulated by the children.
  double ChildUs = 0.0;
  TraceArg Args[2];
  uint8_t ArgCount = 0;
  bool Traced;
#endif
};

/// Publishes \p P's merged snapshot into \p R as `cws_phase_count` /
/// `cws_phase_total_us` / `cws_phase_self_us` / `cws_phase_p50_us` /
/// `cws_phase_p99_us` gauges and
/// `cws_phase_work{phase=...,counter=...}` counters, so a `--metrics`
/// snapshot carries the phase breakdown next to everything else.
void publishProfilerStats(const Profiler &P, Registry &R);

} // namespace obs
} // namespace cws

#endif // CWS_OBS_PROFILER_H
