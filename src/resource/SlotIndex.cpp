//===-- resource/SlotIndex.cpp - Reserved-slot interval index -------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "resource/SlotIndex.h"
#include "resource/Grid.h"
#include "support/Check.h"

#include <algorithm>

using namespace cws;

std::vector<BrokenSlot>
cws::collectBrokenSlots(const Grid &G, const std::vector<PlannedSlot> &Slots,
                        OwnerId Ignore) {
  std::vector<BrokenSlot> Broken;
  for (size_t I = 0; I < Slots.size(); ++I) {
    const PlannedSlot &S = Slots[I];
    if (const Interval *Busy =
            G.node(S.NodeId).timeline().firstOverlap(S.Begin, S.End, Ignore))
      Broken.push_back({I, Busy->Begin, Busy->End});
  }
  return Broken;
}

SlotIndex::SlotIndex(Tick BucketTicks) : Bucket(BucketTicks) {
  CWS_CHECK(BucketTicks >= 1, "bucket width must be positive");
}

void SlotIndex::add(unsigned JobId, unsigned Variant, unsigned NodeId,
                    Tick Begin, Tick End) {
  if (Begin >= End)
    return;
  VariantRef &Ref = Jobs[JobId].Variants[Variant];
  for (Tick B = Begin / Bucket; B <= (End - 1) / Bucket; ++B) {
    uint64_t Key = cellKey(NodeId, B);
    Cells[Key].push_back({JobId, Variant, Begin, End});
    Ref.Cells.push_back(Key);
  }
  ++Ref.Slots;
  ++Slots;
}

size_t SlotIndex::eraseVariant(unsigned JobId, unsigned Variant,
                               const VariantRef &Ref) {
  for (uint64_t Key : Ref.Cells) {
    auto Cell = Cells.find(Key);
    if (Cell == Cells.end())
      continue; // An earlier ref of the same variant emptied it.
    std::vector<Slot> &S = Cell->second;
    S.erase(std::remove_if(S.begin(), S.end(),
                           [JobId, Variant](const Slot &E) {
                             return E.JobId == JobId &&
                                    E.Variant == Variant;
                           }),
            S.end());
    if (S.empty())
      Cells.erase(Cell);
  }
  CWS_CHECK(Slots >= Ref.Slots, "slot accounting underflow");
  Slots -= Ref.Slots;
  return Ref.Slots;
}

size_t SlotIndex::remove(unsigned JobId) {
  auto It = Jobs.find(JobId);
  if (It == Jobs.end())
    return 0;
  size_t Removed = 0;
  for (const auto &[Variant, Ref] : It->second.Variants)
    Removed += eraseVariant(JobId, Variant, Ref);
  Jobs.erase(It);
  return Removed;
}

size_t SlotIndex::removeVariant(unsigned JobId, unsigned Variant) {
  auto It = Jobs.find(JobId);
  if (It == Jobs.end())
    return 0;
  auto VIt = It->second.Variants.find(Variant);
  if (VIt == It->second.Variants.end())
    return 0;
  size_t Removed = eraseVariant(JobId, Variant, VIt->second);
  It->second.Variants.erase(VIt);
  if (It->second.Variants.empty())
    Jobs.erase(It);
  return Removed;
}

bool SlotIndex::tracks(unsigned JobId) const {
  return Jobs.find(JobId) != Jobs.end();
}

size_t SlotIndex::collect(unsigned NodeId, Tick Begin, Tick End,
                          std::vector<SlotRef> &Out) const {
  if (Begin >= End)
    return 0;
  size_t Hits = 0;
  for (Tick B = Begin / Bucket; B <= (End - 1) / Bucket; ++B) {
    auto Cell = Cells.find(cellKey(NodeId, B));
    if (Cell == Cells.end())
      continue;
    for (const Slot &S : Cell->second) {
      if (S.Begin >= End || Begin >= S.End)
        continue;
      // A slot listed in several queried buckets matches in each;
      // credit only the first bucket both the slot and the query cover
      // so every intersecting slot is reported exactly once.
      if (std::max(S.Begin, Begin) / Bucket != B)
        continue;
      Out.push_back({S.JobId, S.Variant, NodeId, S.Begin, S.End});
      ++Hits;
    }
  }
  return Hits;
}
