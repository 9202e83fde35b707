//===-- core/Distribution.cpp - Supporting schedules ----------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "core/Distribution.h"
#include "core/CostModel.h"
#include "job/Job.h"
#include "resource/Grid.h"
#include "support/Check.h"

#include <algorithm>

using namespace cws;

void Distribution::add(const Placement &P) {
  CWS_CHECK(P.Start < P.End, "placement must span at least one tick");
  CWS_CHECK(!find(P.TaskId), "task placed twice in one distribution");
  Places.push_back(P);
}

const Placement *Distribution::find(unsigned TaskId) const {
  for (const auto &P : Places)
    if (P.TaskId == TaskId)
      return &P;
  return nullptr;
}

std::optional<Placement> Distribution::remove(unsigned TaskId) {
  for (size_t I = 0; I < Places.size(); ++I) {
    if (Places[I].TaskId != TaskId)
      continue;
    Placement P = Places[I];
    Places.erase(Places.begin() + static_cast<ptrdiff_t>(I));
    return P;
  }
  return std::nullopt;
}

bool Distribution::covers(const Job &J) const {
  if (Places.size() != J.taskCount())
    return false;
  for (const auto &T : J.tasks())
    if (!find(T.Id))
      return false;
  return true;
}

Tick Distribution::makespan() const {
  Tick Last = 0;
  for (const auto &P : Places)
    Last = std::max(Last, P.End);
  return Last;
}

Tick Distribution::startTime() const {
  if (Places.empty())
    return 0;
  Tick First = TickMax;
  for (const auto &P : Places)
    First = std::min(First, P.Start);
  return First;
}

double Distribution::economicCost() const {
  double Sum = 0.0;
  for (const auto &P : Places)
    Sum += P.EconomicCost;
  return Sum;
}

int64_t Distribution::costFunction(const Job &J) const {
  int64_t Sum = 0;
  for (const auto &P : Places)
    Sum += CostModel::cfTerm(J.task(P.TaskId).Volume, P.loadTicks());
  return Sum;
}

bool Distribution::fitsGrid(const Grid &G, OwnerId Ignore) const {
  for (const auto &P : Places)
    if (!G.node(P.NodeId).timeline().isFreeFor(P.Start, P.End, Ignore))
      return false;
  return true;
}

Tick OccupancyView::earliestFit(unsigned NodeId, Tick NotBefore,
                                Tick Dur) const {
  const Timeline &Line = G.node(NodeId).timeline();
  for (Tick T = NotBefore;;) {
    T = Line.earliestFit(T, Dur, Owner);
    Tick Next = T;
    for (const Placement &P : Dist.placements())
      if (P.NodeId == NodeId && P.Start < T + Dur && P.End > T)
        Next = std::max(Next, P.End);
    if (Next == T)
      return T;
    T = Next;
  }
}

OwnerId OccupancyView::blocker(unsigned NodeId, Tick B, Tick E) const {
  const Interval *Live = G.node(NodeId).timeline().firstOverlap(B, E, Owner);
  Tick OwnBegin = Live ? Live->Begin : E;
  bool Own = false;
  for (const Placement &P : Dist.placements())
    if (P.NodeId == NodeId && P.Start < OwnBegin && P.End > B) {
      OwnBegin = P.Start;
      Own = true;
    }
  return Own ? Owner : Live ? Live->Owner : 0;
}

bool Distribution::commit(Grid &G, OwnerId Owner) const {
  for (size_t I = 0; I < Places.size(); ++I) {
    const Placement &P = Places[I];
    if (G.node(P.NodeId).timeline().reserve(P.Start, P.End, Owner))
      continue;
    // Roll back what we already reserved.
    G.releaseOwner(Owner);
    return false;
  }
  return true;
}
