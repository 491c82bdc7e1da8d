// Buffer invariants: end-timestamp order, watermarks, EAT purging,
// hash-index consistency, memory accounting.
#include <gtest/gtest.h>

#include "exec/buffer.h"
#include "event/event.h"
#include "nfa/record.h"

namespace zstream {
namespace {

EventPtr Ev(Timestamp ts) { return EventBuilder(StockSchema()).At(ts).Build(); }

EventPtr Named(const std::string& name, Timestamp ts) {
  return EventBuilder(StockSchema()).Set("name", Value(name)).At(ts).Build();
}

// Appends a one-slot record spanning [start, end], its event stamped
// `end`, through AppendMerged (the internal-buffer path, which takes an
// explicit span and an optional Kleene group).
RecordId AppendSpan(Buffer& b, Timestamp start, Timestamp end,
                    const EventGroupPtr* group = nullptr) {
  const EventPtr event = Ev(end);
  RecordRef src;
  src.start_ts = end;
  src.end_ts = end;
  src.slots = &event;
  src.num_slots = 1;
  return b.AppendMerged(src, nullptr, start, end, group);
}

TEST(Buffer, AppendAssignsSequentialIds) {
  MemoryTracker t;
  Buffer b(&t, false, 1);
  EXPECT_EQ(b.AppendEvent(0, Ev(1)), 0u);
  EXPECT_EQ(b.AppendEvent(0, Ev(2)), 1u);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.Get(1).end_ts, 2);
}

TEST(Buffer, WatermarkTracksConsumption) {
  MemoryTracker t;
  Buffer b(&t, false, 1);
  b.AppendEvent(0, Ev(1));
  b.AppendEvent(0, Ev(2));
  EXPECT_TRUE(b.HasUnconsumed());
  EXPECT_EQ(*b.FirstUnconsumedEndTs(), 1);
  b.SetWatermark(2);
  EXPECT_FALSE(b.HasUnconsumed());
  b.RewindWatermark();
  EXPECT_EQ(b.watermark(), 0u);
}

TEST(Buffer, PurgeBeforeRemovesExpiredPrefix) {
  MemoryTracker t;
  Buffer b(&t, false, 1);
  for (int i = 0; i < 10; ++i) b.AppendEvent(0, Ev(i));
  b.PurgeBefore(5);
  EXPECT_EQ(b.base_id(), 5u);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(b.Get(5).end_ts, 5);
  // Watermark below base clamps.
  EXPECT_EQ(b.watermark(), 5u);
}

TEST(Buffer, PurgeStopsAtFirstLiveRecord) {
  MemoryTracker t;
  Buffer b(&t, false, 1);
  // A record with early end but late start blocks the purge behind it.
  b.AppendEvent(0, Ev(10));
  AppendSpan(b, 2, 11);  // start 2 (expired) but behind a live record
  b.PurgeBefore(5);
  EXPECT_EQ(b.size(), 2u);  // front record is live, so nothing popped
}

TEST(Buffer, ClearReleasesEverything) {
  MemoryTracker t;
  Buffer b(&t, false, 1);
  for (int i = 0; i < 4; ++i) b.AppendEvent(0, Ev(i));
  const auto bytes = t.current_bytes();
  EXPECT_GT(bytes, 0);
  b.Clear();
  EXPECT_EQ(t.current_bytes(), 0);
  EXPECT_EQ(b.base_id(), 4u);
  // Ids continue monotonically after a clear.
  EXPECT_EQ(b.AppendEvent(0, Ev(9)), 4u);
}

TEST(Buffer, MemoryAccountingLeafCountsEvents) {
  MemoryTracker t_leaf, t_internal;
  Buffer leaf(&t_leaf, /*count_event_bytes=*/true, 1);
  Buffer internal(&t_internal, /*count_event_bytes=*/false, 1);
  leaf.AppendEvent(0, Ev(1));
  internal.AppendEvent(0, Ev(1));
  EXPECT_GT(t_leaf.current_bytes(), t_internal.current_bytes());
}

TEST(Buffer, SharedKleeneGroupChargedOncePerBuffer) {
  // Regression: many records referencing one Kleene group used to charge
  // the group payload once per record, inflating peak_mb by the group's
  // fan-out. The payload must be charged once per distinct resident
  // group, and released when the last referencing record goes away.
  auto group = std::make_shared<EventGroup>();
  for (int i = 0; i < 8; ++i) group->push_back(Ev(i));
  const size_t group_bytes = Buffer::GroupByteSize(*group);
  ASSERT_GT(group_bytes, 0u);
  const EventGroupPtr shared = group;

  MemoryTracker t;
  Buffer b(&t, false, 1);
  b.AppendEvent(0, Ev(1));
  const int64_t before = t.current_bytes();
  AppendSpan(b, 2, 2, &shared);
  const int64_t first = t.current_bytes() - before;
  AppendSpan(b, 3, 3, &shared);
  AppendSpan(b, 4, 4, &shared);
  const int64_t all = t.current_bytes() - before;
  // The first referencing record pays the payload...
  EXPECT_GE(first, static_cast<int64_t>(group_bytes));
  // ...and two more references add strictly less than two more payloads.
  EXPECT_LT(all - first, 2 * static_cast<int64_t>(group_bytes));

  // A distinct group is a new payload.
  const EventGroupPtr other = std::make_shared<EventGroup>(*group);
  const int64_t before_other = t.current_bytes();
  AppendSpan(b, 5, 5, &other);
  EXPECT_GE(t.current_bytes() - before_other,
            static_cast<int64_t>(Buffer::GroupByteSize(*other)));

  b.Clear();
  EXPECT_EQ(t.current_bytes(), 0);
}

TEST(Buffer, SharedGroupReleasedOnPartialPurge) {
  // Purging only some of the records sharing a group must keep the
  // payload charged; purging the last reference releases it.
  auto group = std::make_shared<EventGroup>();
  group->push_back(Ev(0));
  const auto group_bytes =
      static_cast<int64_t>(Buffer::GroupByteSize(*group));
  const EventGroupPtr shared = group;

  MemoryTracker t;
  Buffer b(&t, false, 1);
  AppendSpan(b, 1, 1, &shared);
  AppendSpan(b, 10, 10, &shared);
  const int64_t with_both = t.current_bytes();
  // Dropping one of the two referencing records must NOT release the
  // payload (the survivor still references it); with internal buffers
  // not charging event bytes, nothing is released at all.
  b.PurgeBefore(5);
  const int64_t with_one = t.current_bytes();
  EXPECT_EQ(with_one, with_both);
  EXPECT_GE(with_one, group_bytes);
  b.PurgeBefore(20);  // last reference gone -> payload released
  EXPECT_GE(with_one - t.current_bytes(), group_bytes);
  b.Clear();
  EXPECT_EQ(t.current_bytes(), 0);
}

TEST(Record, ByteSizeExcludesSharedGroupPayload) {
  // Record::ByteSize charges the handle only; the payload is accounted
  // by the owning container (once), not per referencing record.
  auto group = std::make_shared<EventGroup>();
  for (int i = 0; i < 4; ++i) group->push_back(Ev(i));
  const Record plain = Record::FromEvent(0, 1, Ev(1));
  Record with_group = plain;
  with_group.group = group;
  EXPECT_EQ(plain.ByteSize(), with_group.ByteSize());
  EXPECT_EQ(plain.ByteSize(/*count_events=*/true),
            with_group.ByteSize(/*count_events=*/true));
}

TEST(Buffer, HashIndexProbeFindsMatchingRecords) {
  MemoryTracker t;
  Buffer b(&t, false, 1);
  b.EnableHashIndex(KeySpec(/*class_idx=*/0, /*field_idx=*/1));
  b.AppendEvent(0, Named("X", 1));
  b.AppendEvent(0, Named("Y", 2));
  b.AppendEvent(0, Named("X", 3));
  ASSERT_TRUE(b.has_hash_index());
  const auto xs = b.hash_index()->Probe(Value("X"));
  EXPECT_EQ(std::vector<uint64_t>(xs.begin(), xs.end()),
            (std::vector<uint64_t>{0, 2}));
  EXPECT_TRUE(b.hash_index()->Probe(Value("Z")).empty());
}

TEST(Buffer, HashIndexBuiltOverExistingRecords) {
  MemoryTracker t;
  Buffer b(&t, false, 1);
  b.AppendEvent(0, Named("X", 1));
  b.EnableHashIndex(KeySpec(0, 1));
  EXPECT_EQ(b.hash_index()->Probe(Value("X")).size(), 1u);
}

// Compaction drops purged ids; a key left without live ids disappears.
TEST(HashIndex, CompactDropsPurgedIds) {
  HashIndex idx(KeySpec(0, 1));
  const EventPtr x =
      EventBuilder(StockSchema()).Set("name", Value("X")).At(0).Build();
  for (uint64_t id = 0; id < 10; ++id) idx.Insert(&x, id);
  idx.Compact(7);
  const auto live = idx.Probe(Value("X"));
  EXPECT_EQ(std::vector<uint64_t>(live.begin(), live.end()),
            (std::vector<uint64_t>{7, 8, 9}));
  idx.Compact(10);
  EXPECT_EQ(idx.num_keys(), 0u);
  EXPECT_EQ(idx.bytes(), 0u);
}

// The key index is charged to the tracker: after every record is purged
// the buffer's tracked bytes return to the empty-buffer value, however
// many distinct keys passed through.
TEST(Buffer, KeyIndexBytesReturnToEmptyAfterFullPurge) {
  MemoryTracker t;
  Buffer b(&t, /*count_event_bytes=*/true, /*arity=*/1);
  b.EnableHashIndex(KeySpec::Partition({1}));
  const size_t empty_bytes = b.tracked_bytes();
  const int64_t empty_tracker = t.current_bytes();
  // A whole number of chunks, so the full purge retires the last one.
  constexpr int kRecords = 78 * static_cast<int>(Buffer::kChunkCap);
  for (int i = 0; i < kRecords; ++i) {
    std::string name = "K";  // += sidesteps a GCC 12 -Wrestrict false positive
    name += std::to_string(i % 700);
    b.AppendEvent(0, EventBuilder(StockSchema())
                         .Set("name", Value(std::move(name)))
                         .At(i)
                         .Build());
  }
  const size_t index_bytes = b.hash_index()->bytes();
  EXPECT_GT(index_bytes, 700u * sizeof(uint64_t));
  EXPECT_GT(b.tracked_bytes(), empty_bytes + index_bytes);
  EXPECT_EQ(b.hash_index()->num_keys(), 700u);

  b.PurgeBefore(2500);  // partial: keys stay live
  EXPECT_EQ(b.hash_index()->num_keys(), 700u);
  b.PurgeBefore(kRecords);  // full
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.hash_index()->num_keys(), 0u);
  EXPECT_EQ(b.tracked_bytes(), empty_bytes);
  EXPECT_EQ(t.current_bytes(), empty_tracker);
}

}  // namespace
}  // namespace zstream
