//===-- tests/test_invalidation.cpp - Event-driven invalidation tests -----===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
//
// The reserved-slot interval index (resource/SlotIndex) and the
// event-driven invalidation pass built on it: index bookkeeping, the
// committed-job invalidation regression, the empty-scan histogram fix,
// and the scan-vs-index differential (byte-identical journals).
//
//===----------------------------------------------------------------------===//

#include "flow/BackgroundLoad.h"
#include "flow/JobManager.h"
#include "flow/Metascheduler.h"
#include "flow/VirtualOrganization.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "resource/SlotIndex.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace cws;

namespace {

struct FlowFixture {
  Grid Env = Grid::makeFig2();
  Network Net;
  Economy Econ;
  unsigned User;
  StrategyConfig Config;
  Metascheduler Meta{Env, Net, Econ, Config};
  JobManager Manager{Meta, 0};

  FlowFixture() { User = Econ.addUser(1e9); }
};

class InvalidationTest : public ::testing::Test {
protected:
  void SetUp() override { obs::Journal::global().reset(); }
  void TearDown() override { obs::Journal::global().reset(); }
};

size_t countKind(const std::string &Jsonl, const std::string &Kind) {
  std::string Needle = "\"kind\":\"" + Kind + "\"";
  size_t N = 0;
  for (size_t At = Jsonl.find(Needle); At != std::string::npos;
       At = Jsonl.find(Needle, At + Needle.size()))
    ++N;
  return N;
}

} // namespace

//===----------------------------------------------------------------------===//
// SlotIndex
//===----------------------------------------------------------------------===//

namespace {

/// Sorted (job, variant) pairs for order-insensitive comparison.
std::vector<std::pair<unsigned, unsigned>>
sortedHits(const std::vector<SlotRef> &Hits) {
  std::vector<std::pair<unsigned, unsigned>> Out;
  for (const SlotRef &H : Hits)
    Out.emplace_back(H.JobId, H.Variant);
  std::sort(Out.begin(), Out.end());
  return Out;
}

using HitList = std::vector<std::pair<unsigned, unsigned>>;

} // namespace

TEST(SlotIndex, AddCollectRemoveRoundTrip) {
  SlotIndex Idx(/*BucketTicks=*/16);
  Idx.add(/*JobId=*/1, /*Variant=*/0, /*NodeId=*/0, 10, 20);
  Idx.add(1, 1, 2, 30, 40);
  Idx.add(2, 0, 0, 15, 25);
  EXPECT_EQ(Idx.slotCount(), 3u);
  EXPECT_EQ(Idx.jobCount(), 2u);
  EXPECT_TRUE(Idx.tracks(1));
  EXPECT_FALSE(Idx.tracks(9));

  std::vector<SlotRef> Hits;
  // [12, 18) on node 0 overlaps both jobs' slots there.
  EXPECT_EQ(Idx.collect(0, 12, 18, Hits), 2u);
  EXPECT_EQ(sortedHits(Hits), (HitList{{1, 0}, {2, 0}}));
  // Each hit carries the slot it hit, for per-slot re-validation.
  for (const SlotRef &H : Hits) {
    EXPECT_EQ(H.NodeId, 0u);
    EXPECT_EQ(H.Begin, H.JobId == 1 ? 10 : 15);
    EXPECT_EQ(H.End, H.JobId == 1 ? 20 : 25);
  }

  // Same window on node 2 touches only job 1's other variant — and
  // only when the times intersect.
  Hits.clear();
  EXPECT_EQ(Idx.collect(2, 35, 50, Hits), 1u);
  EXPECT_EQ(sortedHits(Hits), (HitList{{1, 1}}));
  EXPECT_EQ(Hits[0].NodeId, 2u);
  EXPECT_EQ(Hits[0].Begin, 30);
  EXPECT_EQ(Hits[0].End, 40);
  Hits.clear();
  EXPECT_EQ(Idx.collect(2, 40, 50, Hits), 0u); // [begin, end) abuts only
  EXPECT_EQ(Idx.collect(1, 0, 100, Hits), 0u); // untouched node

  EXPECT_EQ(Idx.remove(1), 2u);
  EXPECT_FALSE(Idx.tracks(1));
  EXPECT_EQ(Idx.slotCount(), 1u);
  Hits.clear();
  EXPECT_EQ(Idx.collect(0, 12, 18, Hits), 1u);
  EXPECT_EQ(sortedHits(Hits), (HitList{{2, 0}}));
  EXPECT_EQ(Idx.remove(1), 0u); // already gone
  EXPECT_EQ(Idx.remove(2), 1u);
  EXPECT_EQ(Idx.slotCount(), 0u);
  EXPECT_EQ(Idx.jobCount(), 0u);
}

TEST(SlotIndex, RemoveVariantLeavesSiblingsIndexed) {
  SlotIndex Idx(/*BucketTicks=*/16);
  Idx.add(3, /*Variant=*/0, /*NodeId=*/0, 10, 20);
  Idx.add(3, /*Variant=*/1, /*NodeId=*/0, 12, 22);
  EXPECT_EQ(Idx.slotCount(), 2u);

  // Dropping one confirmed-broken variant keeps the other visible.
  EXPECT_EQ(Idx.removeVariant(3, 0), 1u);
  EXPECT_TRUE(Idx.tracks(3));
  EXPECT_EQ(Idx.slotCount(), 1u);
  std::vector<SlotRef> Hits;
  EXPECT_EQ(Idx.collect(0, 10, 25, Hits), 1u);
  EXPECT_EQ(sortedHits(Hits), (HitList{{3, 1}}));

  EXPECT_EQ(Idx.removeVariant(3, 0), 0u); // already gone
  EXPECT_EQ(Idx.removeVariant(3, 1), 1u); // last variant retires the job
  EXPECT_FALSE(Idx.tracks(3));
  EXPECT_EQ(Idx.jobCount(), 0u);
  EXPECT_EQ(Idx.slotCount(), 0u);
}

TEST(SlotIndex, MultiBucketSlotIsReportedOncePerQuery) {
  SlotIndex Idx(/*BucketTicks=*/8);
  // One slot spanning four buckets, queried by a window spanning three:
  // the bucketed map must not report it once per bucket.
  Idx.add(5, 0, 0, 4, 30);
  EXPECT_EQ(Idx.slotCount(), 1u);
  std::vector<SlotRef> Hits;
  EXPECT_EQ(Idx.collect(0, 0, 32, Hits), 1u);
  EXPECT_EQ(sortedHits(Hits), (HitList{{5, 0}}));
  // A query starting mid-slot still finds it exactly once.
  Hits.clear();
  EXPECT_EQ(Idx.collect(0, 17, 40, Hits), 1u);
  EXPECT_EQ(sortedHits(Hits), (HitList{{5, 0}}));
  EXPECT_EQ(Idx.remove(5), 1u);
  EXPECT_EQ(Idx.slotCount(), 0u);
}

TEST(SlotIndex, EmptyIntervalsAreIgnored) {
  SlotIndex Idx;
  Idx.add(1, 0, 0, 10, 10);
  EXPECT_EQ(Idx.slotCount(), 0u);
  EXPECT_FALSE(Idx.tracks(1));
  std::vector<SlotRef> Hits;
  EXPECT_EQ(Idx.collect(0, 0, 100, Hits), 0u);
}

TEST(CollectBrokenSlots, ReportsFirstForeignIntervalPastLongHistory) {
  Grid Env = makeSmallGrid();
  constexpr OwnerId Self = 42, Foreign = 9;
  Timeline &Line = Env.node(1).timeline();
  // A long history before the slots, none of it overlapping them.
  for (Tick T = 0; T < 200; T += 2)
    ASSERT_TRUE(Line.reserve(T, T + 1, Foreign));
  // Inside [300, 320): the job's own interval first, then a foreign one.
  ASSERT_TRUE(Line.reserve(302, 306, Self));
  ASSERT_TRUE(Line.reserve(310, 315, Foreign));
  // A foreign interval that starts before [400, 410) and reaches into it.
  ASSERT_TRUE(Line.reserve(395, 402, Foreign));

  std::vector<PlannedSlot> Slots = {
      {1, 300, 320}, // broken by [310, 315), not by the own [302, 306)
      {1, 250, 300}, // free: the history ends at 199
      {1, 400, 410}, // broken by [395, 402)
      {2, 300, 320}, // another node, free
  };
  std::vector<BrokenSlot> Broken = collectBrokenSlots(Env, Slots, Self);
  ASSERT_EQ(Broken.size(), 2u);
  EXPECT_EQ(Broken[0].SlotIdx, 0u);
  EXPECT_EQ(Broken[0].BusyStart, 310);
  EXPECT_EQ(Broken[0].BusyEnd, 315);
  EXPECT_EQ(Broken[1].SlotIdx, 2u);
  EXPECT_EQ(Broken[1].BusyStart, 395);
  EXPECT_EQ(Broken[1].BusyEnd, 402);

  // Without an owner to ignore, the own interval is the first overlap.
  Broken = collectBrokenSlots(Env, {{1, 300, 320}}, /*Ignore=*/0);
  ASSERT_EQ(Broken.size(), 1u);
  EXPECT_EQ(Broken[0].BusyStart, 302);
  EXPECT_EQ(Broken[0].BusyEnd, 306);
}

//===----------------------------------------------------------------------===//
// Committed jobs survive environment changes (regression)
//===----------------------------------------------------------------------===//

TEST_F(InvalidationTest, CommittedJobIsNotInvalidatedByOverlappingChange) {
  FlowFixture F;
  Job J = makeFig2Job();
  J.setDeadline(60);
  ASSERT_TRUE(F.Manager.onArrival(J, 0));
  ASSERT_TRUE(F.Manager.onNegotiation(J.id(), 3).has_value());
  ASSERT_TRUE(F.Manager.stats()[0].Committed);
  ASSERT_FALSE(F.Manager.stats()[0].TtlClosed);

  // Background load floods every free slot of the window the strategy
  // planned in, overlapping (in time) the committed reservations.
  for (auto &N : F.Env.nodes())
    for (Tick T = 0; T < 60; ++T)
      N.timeline().reserve(T, T + 1, BackgroundOwner);

  obs::Counter &Invalidated =
      obs::Registry::global().counter("cws_jobs_invalidated_total");
  uint64_t Before = Invalidated.value();
  obs::Journal &Jn = obs::Journal::global();
  Jn.enable(256);
  F.Manager.onEnvironmentChange(5);
  Jn.disable();

  // The committed schedule's reservations are pinned: no invalidation
  // journal entry, no counter bump, and the TTL stays open until the
  // job completes.
  EXPECT_EQ(countKind(Jn.jsonl(), "invalidate"), 0u);
  EXPECT_EQ(Invalidated.value(), Before);
  EXPECT_FALSE(F.Manager.stats()[0].TtlClosed);

  F.Manager.onCompletion(J.id(), F.Manager.stats()[0].Completion);
  EXPECT_TRUE(F.Manager.stats()[0].TtlClosed);
}

//===----------------------------------------------------------------------===//
// Empty scans keep the size histogram honest
//===----------------------------------------------------------------------===//

TEST_F(InvalidationTest, EnvChangeWithNoOpenStrategiesSkipsInstruments) {
  FlowFixture F;
  obs::Registry &R = obs::Registry::global();
  obs::Counter &ScanJobs = R.counter("cws_env_scan_jobs_total");
  obs::Histogram &ScanSize = R.histogram(
      "cws_env_scan_size",
      {8.0, 32.0, 128.0, 512.0, 2048.0, 8192.0, 32768.0});

  // No jobs at all: the change must not observe a zero into the
  // histogram percentiles.
  uint64_t Jobs = ScanJobs.value(), Sizes = ScanSize.count();
  F.Manager.onEnvironmentChange(1);
  EXPECT_EQ(ScanJobs.value(), Jobs);
  EXPECT_EQ(ScanSize.count(), Sizes);

  // A committed in-flight job is still scanned by the oracle (that
  // wasted work is the index's baseline) — one job, one observation.
  Job J = makeFig2Job();
  ASSERT_TRUE(F.Manager.onArrival(J, 0));
  Tick Completion = *F.Manager.onNegotiation(J.id(), 2);
  F.Manager.onEnvironmentChange(4);
  EXPECT_EQ(ScanJobs.value(), Jobs + 1);
  EXPECT_EQ(ScanSize.count(), Sizes + 1);

  // After completion nothing is TTL-open again: back to skipping.
  F.Manager.onCompletion(J.id(), Completion);
  Jobs = ScanJobs.value();
  Sizes = ScanSize.count();
  F.Manager.onEnvironmentChange(Completion + 1);
  EXPECT_EQ(ScanJobs.value(), Jobs);
  EXPECT_EQ(ScanSize.count(), Sizes);
}

//===----------------------------------------------------------------------===//
// Index mode without a change log falls back to the scan
//===----------------------------------------------------------------------===//

TEST_F(InvalidationTest, IndexModeWithoutLogStillClosesTtl) {
  FlowFixture F;
  F.Manager.setInvalidationMode(InvalidationMode::Index);
  ASSERT_TRUE(F.Manager.onArrival(makeFig2Job(), 0));
  for (auto &N : F.Env.nodes())
    N.timeline().reserve(0, 100, BackgroundOwner);
  F.Manager.onEnvironmentChange(7);
  EXPECT_TRUE(F.Manager.stats()[0].TtlClosed);
  EXPECT_EQ(F.Manager.stats()[0].Ttl, 7);
}

//===----------------------------------------------------------------------===//
// Scan-vs-index differential: byte-identical journals
//===----------------------------------------------------------------------===//

namespace {

std::string journaledVoRun(InvalidationMode Mode, uint64_t Seed,
                           size_t BuildThreads) {
  VoConfig Config;
  Config.JobCount = 40;
  Config.Strategy.BuildThreads = BuildThreads;
  Config.Invalidation = Mode;
  obs::Journal &Jn = obs::Journal::global();
  Jn.reset();
  Jn.enable();
  runVirtualOrganization(Config, StrategyKind::S1, Seed);
  Jn.disable();
  std::string Out = Jn.jsonl();
  Jn.reset();
  return Out;
}

} // namespace

TEST_F(InvalidationTest, ScanAndIndexJournalsAreByteIdentical) {
  for (uint64_t Seed : {3u, 7u, 11u}) {
    for (size_t Threads : {size_t(1), size_t(4)}) {
      std::string Scan =
          journaledVoRun(InvalidationMode::Scan, Seed, Threads);
      std::string Index =
          journaledVoRun(InvalidationMode::Index, Seed, Threads);
      EXPECT_EQ(Scan, Index)
          << "seed " << Seed << ", " << Threads << " build threads";
      // The differential is only meaningful when the run actually
      // invalidated something.
      EXPECT_GT(countKind(Scan, "invalidate"), 0u) << "seed " << Seed;
    }
  }
}

TEST_F(InvalidationTest, IndexRevalidatesFarFewerPlacementsThanScan) {
  obs::Registry &R = obs::Registry::global();
  obs::Counter &ScanPlacements =
      R.counter("cws_env_scan_placements_total");
  obs::Counter &IndexPlacements =
      R.counter("cws_env_index_placements_total");
  obs::Counter &IndexCandidates =
      R.counter("cws_env_index_candidates_total");
  obs::Counter &IndexIntersections =
      R.counter("cws_env_index_intersections_total");

  uint64_t ScanBase = ScanPlacements.value();
  journaledVoRun(InvalidationMode::Scan, /*Seed=*/7, /*BuildThreads=*/1);
  uint64_t ScanCost = ScanPlacements.value() - ScanBase;

  uint64_t IndexBase = IndexPlacements.value();
  uint64_t CandidatesBase = IndexCandidates.value();
  uint64_t IntersectionsBase = IndexIntersections.value();
  uint64_t ScanDuringIndex = ScanPlacements.value();
  journaledVoRun(InvalidationMode::Index, /*Seed=*/7, /*BuildThreads=*/1);
  uint64_t IndexCost = IndexPlacements.value() - IndexBase;
  uint64_t Intersections = IndexIntersections.value() - IntersectionsBase;

  // The index pass visits only intersected jobs; the scan re-validates
  // every open strategy on every change (the acceptance bar is >= 10x
  // on the 60-job example workload; this 40-job run clears it too).
  EXPECT_GT(ScanCost, 0u);
  EXPECT_GE(ScanCost, 10 * std::max<uint64_t>(IndexCost, 1));
  EXPECT_GT(IndexCandidates.value(), CandidatesBase);
  // Only hit slots are re-validated, never a hit variant's other
  // placements: at most one check per intersection.
  EXPECT_GT(Intersections, 0u);
  EXPECT_LE(IndexCost, Intersections);
  // And the index run never fell back to scanning.
  EXPECT_EQ(ScanPlacements.value(), ScanDuringIndex);
}
