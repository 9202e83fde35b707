//===-- resource/Timeline.h - Node reservation calendar ---------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-node reservation calendar. A task placement in a distribution is a
/// wall-time interval `[Start, End)` reserved in the local batch system
/// (the paper's advance reservations [20]); the timeline stores the
/// non-overlapping busy intervals of one processor node and answers
/// earliest-fit queries for the DP allocator and the backfilling policies.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_RESOURCE_TIMELINE_H
#define CWS_RESOURCE_TIMELINE_H

#include "sim/Time.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cws {

/// Identifies who holds a reservation (a task, a batch job, background
/// load...). 0 is reserved for "nobody".
using OwnerId = uint64_t;

/// A half-open busy interval [Begin, End) on one node.
struct Interval {
  Tick Begin;
  Tick End;
  OwnerId Owner;
};

/// Sorted, non-overlapping set of busy intervals with reservation
/// operations.
class Timeline {
public:
  /// True when [B, E) overlaps no busy interval. Empty ranges are free.
  bool isFree(Tick B, Tick E) const { return !firstOverlap(B, E); }

  /// Like isFree, but intervals owned by \p Except do not count as busy
  /// (used to re-validate a schedule against everyone else's load).
  bool isFreeFor(Tick B, Tick E, OwnerId Except) const {
    return !firstOverlap(B, E, Except);
  }

  /// Reserves [B, E) for \p Owner; fails (returns false) on any overlap.
  bool reserve(Tick B, Tick E, OwnerId Owner);

  /// Earliest T >= NotBefore such that [T, T + Dur) is free. Intervals
  /// owned by \p Except do not count as busy (0, owned by nobody, skips
  /// none).
  Tick earliestFit(Tick NotBefore, Tick Dur, OwnerId Except = 0) const;

  /// Removes every interval owned by \p Owner; returns how many.
  size_t releaseOwner(OwnerId Owner);

  /// First busy interval overlapping [B, E), or nullptr. Intervals owned
  /// by \p Except are skipped.
  const Interval *firstOverlap(Tick B, Tick E, OwnerId Except = 0) const;

  /// Busy ticks within [From, To).
  Tick busyTicks(Tick From, Tick To) const;

  /// Busy ticks within [From, To) counting only intervals whose owner
  /// lies in [MinOwner, MaxOwner] — splits utilization by owner class
  /// (background load vs jobs) for the telemetry sampler.
  Tick busyTicksOf(Tick From, Tick To, OwnerId MinOwner,
                   OwnerId MaxOwner) const;

  /// Busy fraction of [From, To); 0 for an empty window.
  double utilization(Tick From, Tick To) const;

  /// All busy intervals, ordered by Begin.
  const std::vector<Interval> &intervals() const { return Busy; }

  /// Index into intervals() of the first interval with End > T.
  size_t lowerBound(Tick T) const;

  /// Drops everything.
  void clear() { Busy.clear(); }

private:
  std::vector<Interval> Busy;
};

} // namespace cws

#endif // CWS_RESOURCE_TIMELINE_H
