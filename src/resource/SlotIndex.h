//===-- resource/SlotIndex.h - Reserved-slot interval index -----*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Event-driven invalidation support: an interval index over the
/// reserved slots of open scheduling strategies, plus the change log of
/// intervals added to the shared environment. Together they turn the
/// job-flow level's "re-validate everything on every environment
/// change" scan into "re-validate only the variants whose planned slots
/// the change actually touched" (the backfilling literature's
/// reservation table, keyed by time interval instead of queue
/// position).
///
/// `SlotIndex` is a bucketed tick map: each node maps fixed-width tick
/// buckets to the slots overlapping them, keyed `(node, [begin, end))
/// -> (job, variant)`, so an intersection query for one added
/// reservation touches O(duration / bucket) buckets instead of every
/// open strategy. The layer speaks raw ids and intervals only — the
/// flow layer above decides what a "job" or "variant" is.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_RESOURCE_SLOTINDEX_H
#define CWS_RESOURCE_SLOTINDEX_H

#include "resource/Timeline.h"
#include "sim/Time.h"

#include <cstddef>
#include <unordered_map>
#include <vector>

namespace cws {

class Grid;

/// One reservation a scheduling strategy plans to hold — the raw
/// (node, interval) shape the resource layer speaks; the flow layer
/// maps its placements down to these.
struct PlannedSlot {
  unsigned NodeId = 0;
  Tick Begin = 0, End = 0;
};

/// One planned slot the current environment no longer honours: the
/// index into the queried slot sequence plus the first foreign busy
/// interval overlapping it (diagnostic payload for journals and the
/// staged reallocation repair).
struct BrokenSlot {
  size_t SlotIdx = 0;
  Tick BusyStart = 0, BusyEnd = 0;
};

/// Scans \p Slots against \p G and returns the ones that are no longer
/// free, in slot order, each annotated with the first overlapping
/// interval (in timeline order) not owned by \p Ignore. An empty result
/// means every planned slot still fits.
std::vector<BrokenSlot> collectBrokenSlots(const Grid &G,
                                           const std::vector<PlannedSlot> &Slots,
                                           OwnerId Ignore);

/// One interval added to a node's timeline of the shared environment.
struct ReservedRange {
  unsigned NodeId = 0;
  Tick Begin = 0;
  Tick End = 0;
};

/// Append-only log of every reservation added to the shared grid
/// (background placements and committed supporting schedules). Each
/// consumer keeps its own cursor into the log and drains the suffix at
/// every environment change, so changes that land *between* two
/// environment changes (commits by other flows) are still seen by the
/// next intersection pass. Releases are never logged: removing busy
/// intervals can only un-break a strategy, never invalidate one.
class EnvChangeLog {
public:
  void noteAdded(unsigned NodeId, Tick Begin, Tick End) {
    Added.push_back({NodeId, Begin, End});
  }

  size_t size() const { return Added.size(); }
  const ReservedRange &at(size_t I) const { return Added[I]; }

private:
  std::vector<ReservedRange> Added;
};

/// One consumer's position in an EnvChangeLog. Multi-flow runs give
/// every flow's job manager its own cursor, so each flow drains the
/// shared log independently — concurrent drains are safe because the
/// log is append-only, drains only read the suffix written before the
/// parallel pass began, and each cursor is owned by exactly one manager.
class EnvLogCursor {
public:
  /// Invokes \p Fn on every range appended since the last drain and
  /// advances past them. Returns the number of ranges drained.
  template <typename FnT> size_t drain(const EnvChangeLog &Log, FnT &&Fn) {
    size_t Seen = 0;
    for (size_t End = Log.size(); Next < End; ++Next, ++Seen)
      Fn(Log.at(Next));
    return Seen;
  }

  /// Ranges consumed so far.
  size_t position() const { return Next; }

private:
  size_t Next = 0;
};

/// What an intersection query reports: one (job, variant) slot that a
/// changed range overlaps, with the slot itself so the caller can
/// re-validate just that reservation.
struct SlotRef {
  unsigned JobId = 0;
  unsigned Variant = 0;
  unsigned NodeId = 0;
  Tick Begin = 0, End = 0;
};

/// Bucketed per-node interval index over the reserved slots of open
/// strategies: `(node, [begin, end)) -> (job, variant)`. A slot
/// spanning several buckets is listed in each, but one query reports it
/// once. A variant with several hit slots, or a slot hit by several
/// queries, appears once per hit — callers group by (job, variant)
/// (the query result is order-insensitive; sort before use for
/// determinism).
class SlotIndex {
public:
  /// \p BucketTicks trades memory for query width: background jobs and
  /// task reservations run tens of ticks, so the default keeps a
  /// typical query inside one or two buckets.
  explicit SlotIndex(Tick BucketTicks = 64);

  /// Indexes the slot [Begin, End) of \p JobId's variant \p Variant on
  /// \p NodeId. Empty intervals are ignored.
  void add(unsigned JobId, unsigned Variant, unsigned NodeId, Tick Begin,
           Tick End);

  /// Drops every slot of \p JobId; returns how many were removed.
  size_t remove(unsigned JobId);

  /// Drops the slots of one variant of \p JobId (a variant confirmed
  /// broken never needs another look); returns how many were removed.
  size_t removeVariant(unsigned JobId, unsigned Variant);

  /// True while \p JobId has at least one indexed slot.
  bool tracks(unsigned JobId) const;

  /// Appends every slot intersecting [Begin, End) on \p NodeId to
  /// \p Out, once each. Returns the number of slots appended.
  size_t collect(unsigned NodeId, Tick Begin, Tick End,
                 std::vector<SlotRef> &Out) const;

  /// Distinct slots currently indexed.
  size_t slotCount() const { return Slots; }

  /// Jobs currently indexed.
  size_t jobCount() const { return Jobs.size(); }

  Tick bucketTicks() const { return Bucket; }

private:
  struct Slot {
    unsigned JobId;
    unsigned Variant;
    Tick Begin, End;
  };

  /// Key of one (node, bucket) cell.
  static uint64_t cellKey(unsigned NodeId, Tick BucketIdx) {
    return (static_cast<uint64_t>(NodeId) << 40) ^
           static_cast<uint64_t>(BucketIdx);
  }

  struct VariantRef {
    /// Cells the variant's slots occupy (one entry per (slot, bucket)
    /// pair; removal walks these instead of sweeping the whole map).
    std::vector<uint64_t> Cells;
    /// Distinct slots of the variant (Cells may repeat a cell).
    size_t Slots = 0;
  };
  struct JobRef {
    std::unordered_map<unsigned, VariantRef> Variants;
  };

  /// Erases \p Ref's slots of (\p JobId, \p Variant) from the cell
  /// map; returns the distinct slots dropped.
  size_t eraseVariant(unsigned JobId, unsigned Variant,
                      const VariantRef &Ref);

  Tick Bucket;
  /// (node, bucket) -> slots overlapping that bucket.
  std::unordered_map<uint64_t, std::vector<Slot>> Cells;
  std::unordered_map<unsigned, JobRef> Jobs;
  size_t Slots = 0;
};

} // namespace cws

#endif // CWS_RESOURCE_SLOTINDEX_H
