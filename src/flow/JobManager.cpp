//===-- flow/JobManager.cpp - Per-flow job managers -----------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "flow/JobManager.h"
#include "core/Shift.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "obs/Profiler.h"
#include "obs/Trace.h"
#include "support/Check.h"

#include <algorithm>
#include <cmath>
#include <tuple>

using namespace cws;

namespace {
/// Lifecycle counters of the job flow: submit -> strategy build ->
/// commit -> (invalidation -> shift / reallocate) -> complete.
struct FlowMetrics {
  obs::Counter &Submitted = obs::Registry::global().counter(
      "cws_jobs_submitted_total", "jobs that entered the flow");
  obs::Counter &Admissible = obs::Registry::global().counter(
      "cws_jobs_admissible_total",
      "jobs whose arrival strategy had a feasible variant");
  obs::Counter &Committed = obs::Registry::global().counter(
      "cws_jobs_committed_total", "jobs with a committed schedule");
  obs::Counter &Rejected = obs::Registry::global().counter(
      "cws_jobs_rejected_total",
      "jobs rejected at negotiation (stale, unaffordable or raced)");
  obs::Counter &Invalidated = obs::Registry::global().counter(
      "cws_jobs_invalidated_total",
      "strategies that lost every fitting variant to background load");
  obs::Counter &ShiftRecovered = obs::Registry::global().counter(
      "cws_jobs_shift_recovered_total",
      "stale schedules recovered by shifting them whole");
  obs::Counter &Reallocated = obs::Registry::global().counter(
      "cws_jobs_reallocated_total",
      "jobs committed only after a full reallocation");
  obs::Counter &Switched = obs::Registry::global().counter(
      "cws_jobs_switched_total",
      "jobs committed on a different variant than forecast at arrival");
  obs::Counter &Completed = obs::Registry::global().counter(
      "cws_jobs_completed_total", "jobs that ran to completion");
  obs::Counter &TenderKept = obs::Registry::global().counter(
      "cws_shard_tender_kept_total",
      "snapshot tender picks that survived re-validation at apply time");
  obs::Counter &TenderRetried = obs::Registry::global().counter(
      "cws_shard_tender_retried_total",
      "snapshot tender picks broken by earlier commits of the drain, "
      "re-evaluated serially");
  static FlowMetrics &get() {
    static FlowMetrics M;
    return M;
  }
};

/// Instruments of the two invalidation paths. The scan triple sizes
/// the full re-validation pass (the ROADMAP hotspot); the index side
/// measures what the slot-index intersection pass looked at instead,
/// so a run report can show them next to each other.
struct EnvMetrics {
  obs::Counter &ScanJobs = obs::Registry::global().counter(
      "cws_env_scan_jobs_total",
      "strategies re-validated across environment changes");
  obs::Counter &ScanPlacements = obs::Registry::global().counter(
      "cws_env_scan_placements_total",
      "placements scanned re-validating strategies on env changes");
  obs::Histogram &ScanSize = obs::Registry::global().histogram(
      "cws_env_scan_size",
      {8.0, 32.0, 128.0, 512.0, 2048.0, 8192.0, 32768.0},
      "placements scanned per environment change");
  obs::Counter &IndexCandidates = obs::Registry::global().counter(
      "cws_env_index_candidates_total",
      "jobs whose indexed slots intersected a changed range");
  obs::Counter &IndexIntersections = obs::Registry::global().counter(
      "cws_env_index_intersections_total",
      "indexed slots intersected by changed ranges");
  obs::Counter &IndexPlacements = obs::Registry::global().counter(
      "cws_env_index_placements_total",
      "hit slots re-validated by the slot-index intersection pass");
  obs::Gauge &IndexSlots = obs::Registry::global().gauge(
      "cws_env_index_slots",
      "reserved slots currently indexed across open strategies");
  static EnvMetrics &get() {
    static EnvMetrics M;
    return M;
  }
};

/// Where an invalidated strategy broke: the first reservation of a
/// feasible variant that now overlaps somebody else's interval.
struct BrokenVariantSlot {
  size_t Variant;
  unsigned NodeId;
  Tick Start, End;
  Tick BusyStart, BusyEnd;
};

std::optional<BrokenVariantSlot> findBrokenSlot(const Strategy &S, const Grid &G,
                                         OwnerId Ignore) {
  for (size_t I = 0; I < S.variants().size(); ++I) {
    const ScheduleVariant &V = S.variants()[I];
    if (!V.feasible())
      continue;
    std::vector<PlannedSlot> Slots;
    Slots.reserve(V.Result.Dist.placements().size());
    for (const Placement &P : V.Result.Dist.placements())
      Slots.push_back({P.NodeId, P.Start, P.End});
    std::vector<BrokenSlot> Broken = collectBrokenSlots(G, Slots, Ignore);
    if (!Broken.empty()) {
      const Placement &P = V.Result.Dist.placements()[Broken.front().SlotIdx];
      return BrokenVariantSlot{I,     P.NodeId,
                        P.Start, P.End,
                        Broken.front().BusyStart, Broken.front().BusyEnd};
    }
  }
  return std::nullopt;
}

/// Journals one strategy invalidation, naming the broken slot (the
/// scan runs only when the journal is on — it is diagnostic-priced).
void journalInvalidate(obs::Journal &Jn, const Strategy &S, const Grid &G,
                       unsigned JobId, Tick Now, Tick Ttl) {
  if (std::optional<BrokenVariantSlot> B =
          findBrokenSlot(S, G, Metascheduler::ownerOf(JobId)))
    Jn.append(obs::JournalKind::Invalidate, JobId, Now,
              {{"variant", static_cast<int64_t>(B->Variant)},
               {"node", B->NodeId},
               {"start", B->Start},
               {"end", B->End},
               {"busy_start", B->BusyStart},
               {"busy_end", B->BusyEnd},
               {"ttl", Ttl}},
              "stale");
  else
    Jn.append(obs::JournalKind::Invalidate, JobId, Now, {{"ttl", Ttl}},
              "stale");
}
} // namespace

JobManager::PreparedArrival JobManager::prepareArrival(const Job &J,
                                                       Tick Now) {
  FlowMetrics::get().Submitted.add();
  obs::Scope Arrival("flow", "job.arrival", "job",
                     static_cast<int64_t>(J.id()));
  PreparedArrival P{J, Strategy{}, {}};
  obs::Journal &Jn = obs::Journal::global();
  // Defer the arrival and build events: batched admissions build in
  // parallel, and finishArrival replays each buffer in canonical job
  // order so the exported stream is independent of lane interleaving.
  obs::JournalCaptureScope Capture(Jn, &P.Events);
  // The arrival event opens the job's causal chain and registers its
  // flow, so the flow-ignorant layers below (Strategy, Metascheduler)
  // inherit both.
  if (Jn.enabled())
    Jn.append(obs::JournalKind::Arrival, J.id(), Now,
              {{"deadline", J.deadline()},
               {"tasks", static_cast<int64_t>(J.taskCount())}},
              strategyName(Meta.strategyConfig().Kind), FlowId);
  P.S = Meta.buildStrategy(J, Now);
  return P;
}

bool JobManager::onArrival(const Job &J, Tick Now) {
  return finishArrival(prepareArrival(J, Now), Now);
}

bool JobManager::finishArrival(PreparedArrival &&P, Tick Now) {
  FlowMetrics &M = FlowMetrics::get();
  obs::Journal &Jn = obs::Journal::global();
  Jn.appendBuffered(P.Events);
  const Job &J = P.TheJob;
  Strategy S = std::move(P.S);

  VoJobStats St;
  St.JobId = J.id();
  St.Arrival = Now;
  St.Deadline = J.deadline();
  St.Admissible = S.admissible();

  size_t ForecastVariant = SIZE_MAX;
  if (const ScheduleVariant *Best = S.bestByCost()) {
    St.ForecastStart = Best->Result.Dist.startTime();
    St.Collisions = Best->Result.Collisions.size();
    ForecastVariant = static_cast<size_t>(Best - S.variants().data());
  }
  Stats.push_back(St);
  obs::Tracer::global().instant("flow", "job.admission", "admissible",
                                St.Admissible ? 1 : 0);
  if (Jn.enabled())
    Jn.append(obs::JournalKind::Admission, J.id(), Now,
              {{"admissible", St.Admissible ? 1 : 0},
               {"feasible", static_cast<int64_t>(S.feasibleCount())},
               {"variants", static_cast<int64_t>(S.variants().size())},
               {"forecast_variant",
                ForecastVariant == SIZE_MAX
                    ? -1
                    : static_cast<int64_t>(ForecastVariant)},
               {"forecast_start", St.ForecastStart},
               {"collisions", static_cast<int64_t>(St.Collisions)}});

  if (!St.Admissible) {
    // Nothing will ever run; the strategy was dead on arrival.
    Stats.back().TtlClosed = true;
    if (Jn.enabled())
      Jn.append(obs::JournalKind::Reject, J.id(), Now, {}, "inadmissible");
    return false;
  }
  M.Admissible.add();
  ActiveJob A{J, std::move(S), Stats.size() - 1, ForecastVariant};
  auto [Slot, Inserted] = Active.emplace(J.id(), std::move(A));
  CWS_CHECK(Inserted, "duplicate job id in the flow");
  if (Mode == InvalidationMode::Index)
    indexJob(J.id(), Slot->second);
  return true;
}

size_t JobManager::prepareNegotiation(unsigned JobId) const {
  obs::Scope Tender("flow", "tender.eval");
  auto It = Active.find(JobId);
  CWS_CHECK(It != Active.end(), "negotiation for an unknown job");
  const ActiveJob &A = It->second;
  const ScheduleVariant *Pick =
      A.S.bestFitting(Meta.grid(), Metascheduler::ownerOf(JobId));
  Tender.work("variants_scanned", A.S.variants().size());
  return Pick ? static_cast<size_t>(Pick - A.S.variants().data())
              : PickNone;
}

std::optional<Tick> JobManager::onNegotiation(unsigned JobId, Tick Now,
                                              size_t PickHint) {
  FlowMetrics &M = FlowMetrics::get();
  obs::Scope Negotiation("flow", "job.negotiate", "job",
                         static_cast<int64_t>(JobId));
  obs::Journal &Jn = obs::Journal::global();
  auto It = Active.find(JobId);
  CWS_CHECK(It != Active.end(), "negotiation for an unknown job");
  ActiveJob &A = It->second;
  VoJobStats &St = statsOf(A);
  OwnerId Owner = Metascheduler::ownerOf(JobId);
  // Negotiation always ends the open phase (committed or rejected), so
  // the job leaves the intersection index either way.
  deindexJob(JobId);

  // Optimistic tender: trust a snapshot pick that still fits. Variant
  // costs are static and earlier commits of this drain only *add*
  // reservations, so the fitting set can only have shrunk since the
  // snapshot — a hint that survived is exactly the first-cheapest
  // variant a serial bestFitting would return now, and a PickNone
  // snapshot verdict cannot have un-stuck. Only a broken hint pays for
  // a serial re-evaluation.
  const ScheduleVariant *Pick = nullptr;
  if (PickHint == NoPickHint) {
    Pick = A.S.bestFitting(Meta.grid(), Owner);
  } else if (PickHint != PickNone) {
    CWS_CHECK(PickHint < A.S.variants().size(), "pick hint out of range");
    const ScheduleVariant &Hint = A.S.variants()[PickHint];
    if (Hint.feasible() && Hint.Result.Dist.fitsGrid(Meta.grid(), Owner)) {
      Pick = &Hint;
      M.TenderKept.add();
    } else {
      Pick = A.S.bestFitting(Meta.grid(), Owner);
      M.TenderRetried.add();
    }
  }
  if (!Pick) {
    // The whole arrival-time strategy went stale during negotiation:
    // close its TTL.
    obs::Tracer::global().instant("flow", "job.invalidate", "job",
                                  static_cast<int64_t>(JobId));
    if (!St.TtlClosed) {
      St.Ttl = Now - St.Arrival;
      St.TtlClosed = true;
      M.Invalidated.add();
      if (Jn.enabled())
        journalInvalidate(Jn, A.S, Meta.grid(), JobId, Now, St.Ttl);
    }
    // Cheapest recovery first: shift a stale supporting schedule as a
    // whole — structure and co-allocation survive, only the start
    // moves.
    const ScheduleVariant *ShiftBase = nullptr;
    Tick BestShift = 0;
    double BestCost = 0.0;
    for (const auto &V : A.S.variants()) {
      if (!V.feasible())
        continue;
      std::optional<Tick> Delta = minimalFeasibleShift(
          V.Result.Dist, Meta.grid(), A.TheJob.deadline(), Owner);
      if (!Delta)
        continue;
      double Cost = V.Result.Dist.economicCost();
      if (!ShiftBase || Cost < BestCost) {
        ShiftBase = &V;
        BestShift = *Delta;
        BestCost = Cost;
      }
    }
    if (Jn.enabled()) {
      if (ShiftBase)
        Jn.append(obs::JournalKind::ShiftAttempt, JobId, Now,
                  {{"variant", static_cast<int64_t>(
                                   ShiftBase - A.S.variants().data())},
                   {"delta", BestShift},
                   {"cost", std::llround(BestCost)}},
                  "candidate");
      else
        Jn.append(obs::JournalKind::ShiftAttempt, JobId, Now, {},
                  "no-candidate");
    }
    if (ShiftBase) {
      Distribution Shifted =
          shiftDistribution(ShiftBase->Result.Dist, BestShift);
      if (Meta.commitDistribution(A.TheJob, Shifted, UserId, Now)) {
        St.Committed = true;
        St.Switched = true;
        St.ShiftRecovered = true;
        St.CommitShift = BestShift;
        St.ActualStart = Shifted.startTime();
        St.Completion = Shifted.makespan();
        St.Cost = Shifted.economicCost();
        St.Cf = Shifted.costFunction(A.S.scheduledJob());
        A.Committed = true;
        M.Committed.add();
        M.ShiftRecovered.add();
        M.Switched.add();
        Negotiation.arg("outcome", 1);
        if (Jn.enabled())
          Jn.append(obs::JournalKind::Commit, JobId, Now,
                    {{"variant", static_cast<int64_t>(
                                     ShiftBase - A.S.variants().data())},
                     {"start", St.ActualStart},
                     {"makespan", St.Completion},
                     {"cost", std::llround(St.Cost)},
                     {"cf", St.Cf},
                     {"shift", BestShift}},
                    "shift-recovered");
        runExecution(A, Shifted, Now);
        return St.Completion;
      }
    }
    // Shifting failed: ask the metascheduler for a reallocation — the
    // escalating staged repair in repair mode, the full rebuild
    // otherwise. A failed attempt leaves the old strategy's state
    // intact (build-then-swap), so the rejection below journals with
    // nothing lost.
    ReallocationResult Fresh = Meta.reallocate(A.TheJob, A.S, UserId, Now);
    if (!Fresh.admissible()) {
      St.Rejected = true;
      A.Done = true;
      M.Rejected.add();
      Negotiation.arg("outcome", 0);
      if (Jn.enabled())
        Jn.append(obs::JournalKind::Reject, JobId, Now, {},
                  "stale-inadmissible");
      maybeRetire(JobId);
      return std::nullopt;
    }
    A.S = std::move(Fresh.S);
    A.ForecastVariant = SIZE_MAX;
    St.Reallocated = true;
    Pick = A.S.bestByCost();
    CWS_CHECK(Pick, "admissible strategy without a cheapest variant");
  }

  size_t PickIdx = static_cast<size_t>(Pick - A.S.variants().data());
  if (St.Reallocated || PickIdx != A.ForecastVariant)
    St.Switched = true;

  if (!Meta.commit(A.TheJob, *Pick, UserId, Now)) {
    // Out of quota or raced by a same-tick reservation.
    St.Rejected = true;
    if (!St.TtlClosed) {
      St.Ttl = Now - St.Arrival;
      St.TtlClosed = true;
    }
    A.Done = true;
    M.Rejected.add();
    Negotiation.arg("outcome", 0);
    if (Jn.enabled())
      Jn.append(obs::JournalKind::Reject, JobId, Now, {}, "commit-failed");
    maybeRetire(JobId);
    return std::nullopt;
  }

  M.Committed.add();
  if (St.Reallocated)
    M.Reallocated.add();
  if (St.Switched)
    M.Switched.add();
  obs::Tracer::global().instant("flow", "job.commit", "variant",
                                static_cast<int64_t>(PickIdx));
  Negotiation.arg("variant", static_cast<int64_t>(PickIdx));
  St.Committed = true;
  St.ActualStart = Pick->Result.Dist.startTime();
  St.Completion = Pick->Result.Dist.makespan();
  St.Cost = Pick->Result.Dist.economicCost();
  St.Cf = Pick->Result.Dist.costFunction(A.S.scheduledJob());
  A.Committed = true;
  if (Jn.enabled())
    Jn.append(obs::JournalKind::Commit, JobId, Now,
              {{"variant", static_cast<int64_t>(PickIdx)},
               {"start", St.ActualStart},
               {"makespan", St.Completion},
               {"cost", std::llround(St.Cost)},
               {"cf", St.Cf}},
              St.Reallocated ? "reallocated"
                             : (St.Switched ? "switched" : "forecast"));
  runExecution(A, Pick->Result.Dist, Now);
  return St.Completion;
}

void JobManager::runExecution(ActiveJob &A, const Distribution &D,
                              Tick Now) {
  if (!ExecEnabled)
    return;
  ExecutionConfig Config = Exec;
  Config.DataKind = strategyDataPolicy(A.S.kind());
  // Derive the job's deviation stream from (seed base, job id): the
  // deviations a job sees are then identical at any lane count and
  // independent of the order commits drained in.
  Prng JobRng(ExecSeed ^
              ((static_cast<uint64_t>(A.TheJob.id()) + 1) *
               0x9e3779b97f4a7c15ULL));
  ExecutionResult R =
      executeDistribution(A.S.scheduledJob(), D, Meta.grid(), JobRng,
                          Config);
  VoJobStats &St = statsOf(A);
  St.ActualCompletion = R.Completion;
  St.ExecutionKilled = !R.Succeeded;
  obs::Journal &Jn = obs::Journal::global();
  if (Jn.enabled())
    Jn.append(obs::JournalKind::Execution, A.TheJob.id(), Now,
              {{"completion", R.Completion},
               {"killed", R.Succeeded ? 0 : 1}},
              R.Succeeded ? "ok" : "wall-limit-kill");
}

size_t JobManager::queuedCount() const {
  size_t N = 0;
  for (const auto &[JobId, A] : Active)
    if (!A.Committed && !A.Done)
      ++N;
  return N;
}

size_t JobManager::inFlightCount() const {
  size_t N = 0;
  for (const auto &[JobId, A] : Active)
    if (A.Committed && !A.Done)
      ++N;
  return N;
}

void JobManager::invalidateJob(unsigned JobId, ActiveJob &A, Tick Now) {
  VoJobStats &St = statsOf(A);
  St.Ttl = Now - St.Arrival;
  St.TtlClosed = true;
  FlowMetrics::get().Invalidated.add();
  obs::Tracer::global().instant("flow", "job.invalidate", "job",
                                static_cast<int64_t>(JobId));
  // The trigger resolves to the environment change that just fired
  // (the background observer runs after every placement).
  obs::Journal &Jn = obs::Journal::global();
  if (Jn.enabled())
    journalInvalidate(Jn, A.S, Meta.grid(), JobId, Now, St.Ttl);
  deindexJob(JobId);
}

uint64_t JobManager::revalidate(unsigned JobId, ActiveJob &A, Tick Now) {
  uint64_t Placements = 0;
  for (const ScheduleVariant &V : A.S.variants())
    if (V.feasible())
      Placements += V.Result.Dist.placements().size();
  if (!A.S.bestFitting(Meta.grid(), Metascheduler::ownerOf(JobId))) {
    // A committed schedule's reservations are pinned — later background
    // load cannot break it, so a stale variant list (e.g. after a
    // shift-recovery) must not close the TTL early or count as an
    // invalidation.
    if (!A.Committed)
      invalidateJob(JobId, A, Now);
  }
  return Placements;
}

void JobManager::onEnvironmentChange(Tick Now) {
  EnvMetrics &EM = EnvMetrics::get();
  EnvChangeLog *Log = Meta.envChangeLog();
  if (Mode == InvalidationMode::Index && Log) {
    // Event-driven pass: drain the ranges added since the last check
    // and re-validate only the slots they intersect. A strategy is
    // built against the environment it sees, so a feasible variant can
    // only break when a *later* reservation overlaps one of its
    // placements — and every such reservation is in the log
    // (background placements and commits alike) while reservations are
    // never released mid-run. A slot no range hit therefore still
    // fits, a variant is broken exactly when one of its hit slots is
    // no longer free, and a job is stale exactly when its last live
    // variant is confirmed broken — the same verdict the full scan
    // reaches, in the same (ascending job id) order.
    std::vector<SlotRef> Hits;
    uint64_t Intersections = 0;
    LogCursor.drain(*Log, [&](const ReservedRange &R) {
      Intersections += Index.collect(R.NodeId, R.Begin, R.End, Hits);
    });
    if (Hits.empty())
      return;
    auto Key = [](const SlotRef &H) {
      return std::tie(H.JobId, H.Variant, H.NodeId, H.Begin, H.End);
    };
    std::sort(Hits.begin(), Hits.end(),
              [&Key](const SlotRef &A, const SlotRef &B) {
                return Key(A) < Key(B);
              });
    // Several ranges can hit the same slot; re-validate it once.
    Hits.erase(std::unique(Hits.begin(), Hits.end(),
                           [&Key](const SlotRef &A, const SlotRef &B) {
                             return Key(A) == Key(B);
                           }),
               Hits.end());
    uint64_t Placements = 0, Candidates = 0;
    for (size_t I = 0; I < Hits.size();) {
      unsigned JobId = Hits[I].JobId;
      auto It = Active.find(JobId);
      CWS_CHECK(It != Active.end(), "slot index tracks a retired job");
      ActiveJob &A = It->second;
      OwnerId Owner = Metascheduler::ownerOf(JobId);
      ++Candidates;
      while (I < Hits.size() && Hits[I].JobId == JobId) {
        unsigned Variant = Hits[I].Variant;
        bool Broken = false;
        for (; I < Hits.size() && Hits[I].JobId == JobId &&
               Hits[I].Variant == Variant;
             ++I) {
          if (Broken)
            continue;
          const SlotRef &H = Hits[I];
          ++Placements;
          Broken = !Meta.grid().node(H.NodeId).timeline().isFreeFor(
              H.Begin, H.End, Owner);
        }
        if (!Broken)
          continue;
        size_t Dropped = Index.removeVariant(JobId, Variant);
        if (Dropped)
          EM.IndexSlots.sub(static_cast<int64_t>(Dropped));
        CWS_CHECK(A.LiveFeasible > 0, "broken variant count underflow");
        --A.LiveFeasible;
      }
      if (A.LiveFeasible == 0)
        invalidateJob(JobId, A, Now);
    }
    EM.IndexCandidates.add(Candidates);
    EM.IndexIntersections.add(Intersections);
    EM.IndexPlacements.add(Placements);
    // The env.invalidate *scope* opens once per change on the caller
    // (flow/VirtualOrganization.cpp); the work fans out per manager,
    // so it is attributed by name and sums lane-invariantly.
    obs::Profiler::global().addWork("env.invalidate", "placements",
                                    Placements);
    return;
  }
  // The full scan (differential-testing oracle, and the fallback when
  // no env-change log is wired): re-validate every TTL-open strategy
  // placement by placement — O(active x variants x placements) per
  // change, committed in-flight jobs included even though they can
  // never invalidate. That wasted work is the baseline the index is
  // measured against. Sorted job order keeps the scan's journal
  // byte-identical to the index path's.
  std::vector<unsigned> Open;
  Open.reserve(Active.size());
  for (auto &[JobId, A] : Active)
    if (!statsOf(A).TtlClosed)
      Open.push_back(JobId);
  if (Open.empty())
    return; // Nothing scanned: keep the size histogram honest.
  std::sort(Open.begin(), Open.end());
  uint64_t Placements = 0;
  for (unsigned JobId : Open)
    Placements += revalidate(JobId, Active.find(JobId)->second, Now);
  EM.ScanJobs.add(Open.size());
  EM.ScanPlacements.add(Placements);
  EM.ScanSize.observe(static_cast<double>(Placements));
  obs::Profiler::global().addWork("env.invalidate", "placements",
                                  Placements);
}

void JobManager::onCompletion(unsigned JobId, Tick Now) {
  FlowMetrics::get().Completed.add();
  obs::Tracer::global().instant("flow", "job.complete", "job",
                                static_cast<int64_t>(JobId));
  auto It = Active.find(JobId);
  CWS_CHECK(It != Active.end(), "completion for an unknown job");
  ActiveJob &A = It->second;
  VoJobStats &St = statsOf(A);
  CWS_CHECK(St.Committed, "completion of an uncommitted job");
  if (!St.TtlClosed) {
    // The strategy outlived the job; its TTL is capped at completion.
    St.Ttl = Now - St.Arrival;
    St.TtlClosed = true;
  }
  A.Done = true;
  obs::Journal &Jn = obs::Journal::global();
  if (Jn.enabled())
    Jn.append(obs::JournalKind::Complete, JobId, Now, {{"ttl", St.Ttl}});
  maybeRetire(JobId);
}

void JobManager::indexJob(unsigned JobId, ActiveJob &A) {
  size_t Before = Index.slotCount();
  const std::vector<ScheduleVariant> &Variants = A.S.variants();
  for (size_t V = 0; V < Variants.size(); ++V) {
    if (!Variants[V].feasible())
      continue;
    ++A.LiveFeasible;
    for (const Placement &P : Variants[V].Result.Dist.placements())
      Index.add(JobId, static_cast<unsigned>(V), P.NodeId, P.Start, P.End);
  }
  // The gauge is global while each manager owns its index, so publish
  // deltas, not absolute sizes.
  EnvMetrics::get().IndexSlots.add(
      static_cast<int64_t>(Index.slotCount() - Before));
}

void JobManager::deindexJob(unsigned JobId) {
  size_t Removed = Index.remove(JobId);
  if (Removed)
    EnvMetrics::get().IndexSlots.sub(static_cast<int64_t>(Removed));
}

void JobManager::maybeRetire(unsigned JobId) {
  auto It = Active.find(JobId);
  if (It == Active.end())
    return;
  const ActiveJob &A = It->second;
  if (A.Done && Stats[A.StatsIdx].TtlClosed)
    Active.erase(It);
}
