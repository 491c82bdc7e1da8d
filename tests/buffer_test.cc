// Buffer invariants: end-timestamp order, watermarks, EAT purging,
// hash-index consistency, memory accounting.
#include <gtest/gtest.h>

#include "exec/buffer.h"
#include "event/event.h"

namespace zstream {
namespace {

Record Rec(Timestamp start, Timestamp end) {
  Record r;
  r.start_ts = start;
  r.end_ts = end;
  r.slots.assign(1, EventBuilder(StockSchema()).At(end).Build());
  return r;
}

TEST(Buffer, AppendAssignsSequentialIds) {
  MemoryTracker t;
  Buffer b(&t);
  EXPECT_EQ(b.Append(Rec(1, 1)), 0u);
  EXPECT_EQ(b.Append(Rec(2, 2)), 1u);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.Get(1).end_ts, 2);
}

TEST(Buffer, WatermarkTracksConsumption) {
  MemoryTracker t;
  Buffer b(&t);
  b.Append(Rec(1, 1));
  b.Append(Rec(2, 2));
  EXPECT_TRUE(b.HasUnconsumed());
  EXPECT_EQ(*b.FirstUnconsumedEndTs(), 1);
  b.SetWatermark(2);
  EXPECT_FALSE(b.HasUnconsumed());
  b.RewindWatermark();
  EXPECT_EQ(b.watermark(), 0u);
}

TEST(Buffer, PurgeBeforeRemovesExpiredPrefix) {
  MemoryTracker t;
  Buffer b(&t);
  for (int i = 0; i < 10; ++i) b.Append(Rec(i, i));
  b.PurgeBefore(5);
  EXPECT_EQ(b.base_id(), 5u);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(b.Get(5).end_ts, 5);
  // Watermark below base clamps.
  EXPECT_EQ(b.watermark(), 5u);
}

TEST(Buffer, PurgeStopsAtFirstLiveRecord) {
  MemoryTracker t;
  Buffer b(&t);
  // A record with early end but late start blocks the purge behind it.
  b.Append(Rec(10, 10));
  b.Append(Rec(2, 11));  // start 2 (expired) but behind a live record
  b.PurgeBefore(5);
  EXPECT_EQ(b.size(), 2u);  // front record is live, so nothing popped
}

TEST(Buffer, ClearReleasesEverything) {
  MemoryTracker t;
  Buffer b(&t);
  for (int i = 0; i < 4; ++i) b.Append(Rec(i, i));
  const auto bytes = t.current_bytes();
  EXPECT_GT(bytes, 0);
  b.Clear();
  EXPECT_EQ(t.current_bytes(), 0);
  EXPECT_EQ(b.base_id(), 4u);
  // Ids continue monotonically after a clear.
  EXPECT_EQ(b.Append(Rec(9, 9)), 4u);
}

TEST(Buffer, MemoryAccountingLeafCountsEvents) {
  MemoryTracker t_leaf, t_internal;
  Buffer leaf(&t_leaf, /*count_event_bytes=*/true);
  Buffer internal(&t_internal, /*count_event_bytes=*/false);
  leaf.Append(Rec(1, 1));
  internal.Append(Rec(1, 1));
  EXPECT_GT(t_leaf.current_bytes(), t_internal.current_bytes());
}

Record RecWithGroup(Timestamp ts, const EventGroupPtr& g) {
  Record r = Rec(ts, ts);
  r.group = g;
  return r;
}

TEST(Buffer, SharedKleeneGroupChargedOncePerBuffer) {
  // Regression: many records referencing one Kleene group used to charge
  // the group payload once per record, inflating peak_mb by the group's
  // fan-out. The payload must be charged once per distinct resident
  // group, and released when the last referencing record goes away.
  auto group = std::make_shared<EventGroup>();
  for (int i = 0; i < 8; ++i) {
    group->push_back(EventBuilder(StockSchema()).At(i).Build());
  }
  const size_t group_bytes = Record::GroupByteSize(*group);
  ASSERT_GT(group_bytes, 0u);

  MemoryTracker t;
  Buffer b(&t);
  b.Append(Rec(1, 1));
  const int64_t before = t.current_bytes();
  b.Append(RecWithGroup(2, group));
  const int64_t first = t.current_bytes() - before;
  b.Append(RecWithGroup(3, group));
  b.Append(RecWithGroup(4, group));
  const int64_t all = t.current_bytes() - before;
  // The first referencing record pays the payload...
  EXPECT_GE(first, static_cast<int64_t>(group_bytes));
  // ...and two more references add strictly less than two more payloads.
  EXPECT_LT(all - first, 2 * static_cast<int64_t>(group_bytes));

  // A distinct group is a new payload.
  auto other = std::make_shared<EventGroup>(*group);
  const int64_t before_other = t.current_bytes();
  b.Append(RecWithGroup(5, other));
  EXPECT_GE(t.current_bytes() - before_other,
            static_cast<int64_t>(Record::GroupByteSize(*other)));

  b.Clear();
  EXPECT_EQ(t.current_bytes(), 0);
}

TEST(Buffer, SharedGroupReleasedOnPartialPurge) {
  // Purging only some of the records sharing a group must keep the
  // payload charged; purging the last reference releases it.
  auto group = std::make_shared<EventGroup>();
  group->push_back(EventBuilder(StockSchema()).At(0).Build());
  const auto group_bytes =
      static_cast<int64_t>(Record::GroupByteSize(*group));

  MemoryTracker t;
  Buffer b(&t);
  b.Append(RecWithGroup(1, group));
  b.Append(RecWithGroup(10, group));
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
  // by the owning buffer (once), not per referencing record.
  auto group = std::make_shared<EventGroup>();
  for (int i = 0; i < 4; ++i) {
    group->push_back(EventBuilder(StockSchema()).At(i).Build());
  }
  Record plain = Rec(1, 1);
  Record with_group = Rec(1, 1);
  with_group.group = group;
  EXPECT_EQ(plain.ByteSize(), with_group.ByteSize());
  EXPECT_EQ(plain.ByteSize(/*count_events=*/true),
            with_group.ByteSize(/*count_events=*/true));
}

TEST(Buffer, HashIndexProbeFindsMatchingRecords) {
  MemoryTracker t;
  Buffer b(&t);
  const auto mk = [&](const std::string& name, Timestamp ts) {
    Record r;
    r.start_ts = ts;
    r.end_ts = ts;
    r.slots.assign(1, EventBuilder(StockSchema())
                          .Set("name", Value(name))
                          .At(ts)
                          .Build());
    return r;
  };
  b.EnableHashIndex(KeySpec(/*class_idx=*/0, /*field_idx=*/1));
  b.Append(mk("X", 1));
  b.Append(mk("Y", 2));
  b.Append(mk("X", 3));
  ASSERT_TRUE(b.has_hash_index());
  const auto xs = b.hash_index()->Probe(Value("X"));
  EXPECT_EQ(std::vector<uint64_t>(xs.begin(), xs.end()),
            (std::vector<uint64_t>{0, 2}));
  EXPECT_TRUE(b.hash_index()->Probe(Value("Z")).empty());
}

TEST(Buffer, HashIndexBuiltOverExistingRecords) {
  MemoryTracker t;
  Buffer b(&t);
  Record r;
  r.start_ts = 1;
  r.end_ts = 1;
  r.slots.assign(1, EventBuilder(StockSchema())
                        .Set("name", Value("X"))
                        .At(1)
                        .Build());
  b.Append(std::move(r));
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
