// End-timestamp-ordered record buffers (Section 4.2), columnar layout.
//
// Storage is chunked and column-oriented: records live in fixed-capacity
// chunks holding one column per record field (start timestamps, end
// timestamps, the event-slot matrix, and a lazily-allocated Kleene-group
// column). Operators address records by a monotonically increasing
// *sequence id* — hash-index entries and consumption watermarks survive
// front purges — and read them through RecordRef views that point
// straight into chunk columns, so scanning a buffer touches no
// per-record heap objects and copies no shared_ptrs.
//
// Purging removes expired records from the front; records that expire
// mid-buffer are skipped by the operators' EAT checks and reclaimed once
// they reach the front (the retained tail is still bounded by one time
// window, matching the paper's memory behaviour). Fully-purged chunks
// are recycled through a small per-buffer pool, so steady-state
// append/purge cycles allocate nothing.
#ifndef ZSTREAM_EXEC_BUFFER_H_
#define ZSTREAM_EXEC_BUFFER_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/memory_tracker.h"
#include "exec/hash_index.h"
#include "exec/record.h"

namespace zstream {

/// Sequence id of a record within a buffer (monotone, never reused).
using RecordId = uint64_t;

/// \brief Zero-copy view of one buffered record.
///
/// `slots` points into the owning chunk's slot column (arity entries,
/// null where a class is unbound) and stays valid until the record is
/// purged or the buffer cleared. `group_sp` is null when the record
/// carries no Kleene group.
struct RecordRef {
  Timestamp start_ts = 0;
  Timestamp end_ts = 0;
  const EventPtr* slots = nullptr;
  int num_slots = 0;
  const EventGroupPtr* group_sp = nullptr;

  const EventGroup* group() const {
    return group_sp != nullptr ? group_sp->get() : nullptr;
  }
  bool has_group() const { return group() != nullptr; }

  EvalInput ToEvalInput(int group_class) const {
    EvalInput in;
    in.slots = slots;
    in.num_slots = num_slots;
    in.group = group();
    in.group_class = group_class;
    return in;
  }
};

/// Slot `i` of the union of `a` and `b` (disjoint class sets, `a` wins
/// ties; a null `b` contributes nothing).
inline const EventPtr& UnionSlot(const RecordRef& a, const RecordRef* b,
                                 int i) {
  return a.slots[i] != nullptr || b == nullptr ? a.slots[i] : b->slots[i];
}

/// The Kleene group of the union of `a` and `b` (at most one of them
/// carries one), or null.
inline const EventGroupPtr* UnionGroup(const RecordRef& a,
                                       const RecordRef* b) {
  if (a.has_group()) return a.group_sp;
  return b != nullptr && b->has_group() ? b->group_sp : nullptr;
}

/// \brief Ordered columnar record store with watermark-based consumption,
/// EAT purging and an optional hash index (equality join or partition key).
class Buffer {
 public:
  /// Records per chunk. Chosen to keep one chunk's slot matrix within a
  /// few cache pages at typical pattern arities (3-6 classes).
  static constexpr size_t kChunkCap = 64;

  /// `count_event_bytes` is set for leaf buffers, which account the
  /// resident primitive events' bytes in addition to record overhead.
  /// `arity` fixes the slot-column width; 0 defers it to the first
  /// append (convenient for tests feeding whole Records).
  explicit Buffer(MemoryTracker* tracker, bool count_event_bytes = false,
                  int arity = 0)
      : tracker_(tracker),
        count_event_bytes_(count_event_bytes),
        arity_(arity) {}

  ZS_DISALLOW_COPY_AND_ASSIGN(Buffer);
  ~Buffer();

  int arity() const { return arity_; }

  /// Appends a copy of a value-type record (compat path: NFA helpers and
  /// tests); end timestamps must be non-decreasing.
  RecordId Append(const Record& record);

  /// Leaf fast path: appends a single-event record bound to `class_idx`
  /// with span [ts, ts]. Requires a construction-time arity.
  RecordId AppendEvent(int class_idx, const EventPtr& event);

  /// Appends the slot-wise union of `a` and `b` (see UnionSlot; a null
  /// `b` copies `a` alone) with an explicit result span. The Kleene
  /// group is `group` when given (a KSEQ's fresh group), else the
  /// union's. Copied straight from the source chunks (possibly of other
  /// buffers); no intermediate record exists.
  RecordId AppendMerged(const RecordRef& a, const RecordRef* b,
                        Timestamp start_ts, Timestamp end_ts,
                        const EventGroupPtr* group = nullptr);

  bool empty() const { return base_id_ == next_id_; }
  size_t size() const { return static_cast<size_t>(next_id_ - base_id_); }
  RecordId base_id() const { return base_id_; }
  RecordId end_id() const { return next_id_; }

  /// The record with sequence id `id` (base_id() <= id < end_id()).
  RecordRef Get(RecordId id) const;

  /// Consumption watermark: first id not yet consumed by this buffer's
  /// reader (the parent operator's outer loop).
  RecordId watermark() const {
    return watermark_ < base_id_ ? base_id_ : watermark_;
  }
  void SetWatermark(RecordId id) { watermark_ = id; }
  /// Resets consumption so the next round re-reads everything still
  /// buffered (used by the plan-switch rebuild round, Section 5.3).
  void RewindWatermark() { watermark_ = base_id_; }
  bool HasUnconsumed() const { return watermark() < end_id(); }

  /// Earliest end timestamp among unconsumed records (EAT input).
  std::optional<Timestamp> FirstUnconsumedEndTs() const {
    return HasUnconsumed() ? std::optional<Timestamp>(Get(watermark()).end_ts)
                           : std::nullopt;
  }

  /// Removes expired records (start_ts < eat) from the front.
  void PurgeBefore(Timestamp eat);

  /// Removes every record ("Clear RBuf", Algorithm 1 step 7 — applied to
  /// internal right-child buffers after their round is consumed).
  void Clear();

  /// Enables a hash index on `key` (an equality join's attribute, or
  /// the partition key); indexes existing and future records. A no-op
  /// when the buffer is already indexed on `key`.
  void EnableHashIndex(const KeySpec& key);
  void DisableHashIndex();
  bool has_hash_index() const { return index_.has_value(); }
  const HashIndex* hash_index() const {
    return index_.has_value() ? &*index_ : nullptr;
  }

  /// Total bytes currently accounted by this buffer.
  size_t tracked_bytes() const { return tracked_bytes_; }

 private:
  /// One fixed-capacity columnar chunk. All chunks but the last are
  /// full, so id -> (chunk, row) is pure arithmetic off the front
  /// chunk's first id.
  struct Chunk {
    RecordId first_id = 0;
    uint32_t count = 0;
    std::vector<Timestamp> start;        // kChunkCap entries
    std::vector<Timestamp> end;          // kChunkCap entries
    std::vector<EventPtr> slots;         // kChunkCap * arity, owning
    std::vector<EventGroupPtr> groups;   // lazily kChunkCap, else empty
  };

  Chunk* AppendRow(Timestamp start_ts, Timestamp end_ts, uint32_t* row_out);
  void FinishAppend(Chunk& c, uint32_t row, RecordId id);
  Chunk& AcquireChunk();
  void RetireFrontChunk();
  void ReleaseRow(Chunk& c, uint32_t row);
  size_t ChunkOverheadBytes(const Chunk& c) const;
  void EnsureGroupColumn(Chunk& c);
  void ChargeGroup(const EventGroupPtr& g);
  void ReleaseGroup(const EventGroupPtr& g);
  void Account(size_t bytes);
  void Unaccount(size_t bytes);
  /// Charges (or releases) the change in the index's bytes since the
  /// last sync.
  void SyncIndexBytes();

  MemoryTracker* tracker_;
  bool count_event_bytes_;
  int arity_;
  /// Live chunks are chunks_[head_..]. Retiring advances head_; the
  /// retired prefix is erased once it is half the vector, so cycling
  /// chunks never reallocates (a deque allocates a node every 64).
  std::vector<std::unique_ptr<Chunk>> chunks_;
  size_t head_ = 0;
  /// Recycled chunks (columns allocated, rows cleared; not accounted):
  /// steady-state append/purge cycles reuse these instead of
  /// allocating. Bounded by the high-water mark of live chunks.
  std::vector<std::unique_ptr<Chunk>> free_chunks_;
  RecordId base_id_ = 0;
  RecordId next_id_ = 0;
  RecordId watermark_ = 0;
  Timestamp last_end_ts_ = kMinTimestamp;
  std::optional<HashIndex> index_;
  /// The index's bytes as last charged to tracked_bytes_.
  size_t index_bytes_ = 0;
  /// Records purged since the index was last compacted.
  size_t purged_since_compact_ = 0;
  size_t tracked_bytes_ = 0;
  /// Kleene groups resident in this buffer, by payload identity: a group
  /// shared by many records (one closure feeding many pairs) is charged
  /// once, not per holder (Tables 3/5 accounting).
  std::unordered_map<const EventGroup*, uint32_t> group_refs_;
};

// Inline: the pair loops call it once per candidate pair.
ZS_HOT inline RecordRef Buffer::Get(RecordId id) const {
  ZS_DCHECK(id >= base_id_ && id < next_id_);
  const size_t off = static_cast<size_t>(id - chunks_[head_]->first_id);
  const Chunk& c = *chunks_[head_ + off / kChunkCap];
  const size_t row = off % kChunkCap;
  RecordRef ref;
  ref.start_ts = c.start[row];
  ref.end_ts = c.end[row];
  ref.slots = &c.slots[row * static_cast<size_t>(arity_)];
  ref.num_slots = arity_;
  ref.group_sp = c.groups.empty() ? nullptr : &c.groups[row];
  return ref;
}

}  // namespace zstream

#endif  // ZSTREAM_EXEC_BUFFER_H_
