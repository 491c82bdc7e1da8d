#include "exec/buffer.h"

#include <algorithm>

#include "common/macros.h"

namespace zstream {

Buffer::~Buffer() { Clear(); }

size_t Buffer::ChunkOverheadBytes(const Chunk& c) const {
  size_t bytes = sizeof(Chunk);
  bytes += c.start.capacity() * sizeof(Timestamp);
  bytes += c.end.capacity() * sizeof(Timestamp);
  bytes += c.slots.capacity() * sizeof(EventPtr);
  bytes += c.groups.capacity() * sizeof(EventGroupPtr);
  return bytes;
}

void Buffer::Account(size_t bytes) {
  tracked_bytes_ += bytes;
  if (tracker_ != nullptr) tracker_->Allocate(bytes);
}

void Buffer::Unaccount(size_t bytes) {
  ZS_DCHECK(tracked_bytes_ >= bytes);
  tracked_bytes_ -= bytes;
  if (tracker_ != nullptr) tracker_->Release(bytes);
}

void Buffer::SyncIndexBytes() {
  const size_t now = index_.has_value() ? index_->bytes() : 0;
  if (now > index_bytes_) {
    Account(now - index_bytes_);
  } else if (now < index_bytes_) {
    Unaccount(index_bytes_ - now);
  }
  index_bytes_ = now;
}

Buffer::Chunk& Buffer::AcquireChunk() {
  std::unique_ptr<Chunk> c;
  if (!free_chunks_.empty()) {
    c = std::move(free_chunks_.back());
    free_chunks_.pop_back();
  } else {
    // zs-hotpath-allow(pooled: reached only when the per-buffer chunk
    // pool is empty — steady state recycles retired chunks instead)
    c = std::make_unique<Chunk>();
    c->start.resize(kChunkCap);
    c->end.resize(kChunkCap);
    c->slots.resize(kChunkCap * static_cast<size_t>(arity_));
  }
  c->first_id = next_id_;
  c->count = 0;
  Account(ChunkOverheadBytes(*c));
  chunks_.push_back(std::move(c));
  return *chunks_.back();
}

void Buffer::EnsureGroupColumn(Chunk& c) {
  if (!c.groups.empty()) return;
  c.groups.resize(kChunkCap);
  Account(c.groups.capacity() * sizeof(EventGroupPtr));
}

void Buffer::ChargeGroup(const EventGroupPtr& g) {
  uint32_t& refs = group_refs_[g.get()];
  if (++refs == 1) {
    Account(GroupByteSize(*g));
  }
}

void Buffer::ReleaseGroup(const EventGroupPtr& g) {
  auto it = group_refs_.find(g.get());
  ZS_DCHECK(it != group_refs_.end());
  if (--it->second == 0) {
    Unaccount(GroupByteSize(*g));
    group_refs_.erase(it);
  }
}

ZS_HOT Buffer::Chunk* Buffer::AppendRow(Timestamp start_ts, Timestamp end_ts,
                                        uint32_t* row_out) {
  ZS_DCHECK(arity_ > 0);
  ZS_DCHECK(end_ts >= last_end_ts_ || empty());
  Chunk* c = head_ == chunks_.size() ? nullptr : chunks_.back().get();
  if (c == nullptr || c->count == kChunkCap) {
    c = &AcquireChunk();
  }
  const uint32_t row = c->count;
  c->start[row] = start_ts;
  c->end[row] = end_ts;
  last_end_ts_ = end_ts;
  *row_out = row;
  return c;
}

ZS_HOT void Buffer::FinishAppend(Chunk& c, uint32_t row, RecordId id) {
  ++c.count;
  ++next_id_;
  if (count_event_bytes_) {
    size_t bytes = 0;
    const EventPtr* s = &c.slots[row * static_cast<size_t>(arity_)];
    for (int i = 0; i < arity_; ++i) {
      if (s[i] != nullptr) bytes += s[i]->ByteSize();
    }
    Account(bytes);
  }
  if (index_.has_value()) {
    index_->Insert(&c.slots[row * static_cast<size_t>(arity_)], id);
    SyncIndexBytes();
  }
}

ZS_HOT RecordId Buffer::AppendEvent(int class_idx, const EventPtr& event) {
  const Timestamp ts = event->timestamp();
  uint32_t row = 0;
  Chunk* c = AppendRow(ts, ts, &row);
  c->slots[row * static_cast<size_t>(arity_) + static_cast<size_t>(class_idx)] =
      event;
  const RecordId id = next_id_;
  FinishAppend(*c, row, id);
  return id;
}

ZS_HOT RecordId Buffer::AppendMerged(const RecordRef& a, const RecordRef* b,
                                     Timestamp start_ts, Timestamp end_ts,
                                     const EventGroupPtr* group) {
  uint32_t row = 0;
  Chunk* c = AppendRow(start_ts, end_ts, &row);
  EventPtr* dst = &c->slots[row * static_cast<size_t>(arity_)];
  for (int i = 0; i < arity_; ++i) dst[i] = UnionSlot(a, b, i);
  const EventGroupPtr* g = group != nullptr ? group : UnionGroup(a, b);
  if (g != nullptr) {
    EnsureGroupColumn(*c);
    c->groups[row] = *g;
    ChargeGroup(*g);
  }
  const RecordId id = next_id_;
  FinishAppend(*c, row, id);
  return id;
}

void Buffer::ReleaseRow(Chunk& c, uint32_t row) {
  EventPtr* s = &c.slots[row * static_cast<size_t>(arity_)];
  if (count_event_bytes_) {
    size_t bytes = 0;
    for (int i = 0; i < arity_; ++i) {
      if (s[i] != nullptr) bytes += s[i]->ByteSize();
    }
    Unaccount(bytes);
  }
  for (int i = 0; i < arity_; ++i) s[i] = nullptr;
  if (!c.groups.empty() && c.groups[row] != nullptr) {
    ReleaseGroup(c.groups[row]);
    c.groups[row] = nullptr;
  }
}

void Buffer::RetireFrontChunk() {
  std::unique_ptr<Chunk> c = std::move(chunks_[head_++]);
  if (2 * head_ >= chunks_.size()) {
    chunks_.erase(chunks_.begin(),
                  chunks_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  Unaccount(ChunkOverheadBytes(*c));
  // Every retired chunk is kept: a fresh chunk is allocated only when
  // the pool is empty, so live + pooled chunks never exceed the
  // buffer's high-water mark of live chunks.
  free_chunks_.push_back(std::move(c));
}

void Buffer::PurgeBefore(Timestamp eat) {
  const RecordId first = base_id_;
  while (base_id_ < next_id_) {
    Chunk& front = *chunks_[head_];
    const size_t row = static_cast<size_t>(base_id_ - front.first_id);
    if (front.start[row] >= eat) break;
    ReleaseRow(front, static_cast<uint32_t>(row));
    ++base_id_;
    // A drained buffer also returns its partial chunk, so the next
    // append starts a chunk at row 0: refilling from empty reproduces
    // the same chunk layout, and needs no more chunks, as last time.
    if (base_id_ - front.first_id == kChunkCap || base_id_ == next_id_) {
      RetireFrontChunk();
    }
  }
  if (!index_.has_value() || base_id_ == first) return;
  // Compact once as many records were purged as remain (or none
  // remain): amortized O(1) per purged record, and purged ids never
  // outnumber live ones by more than a chunk.
  purged_since_compact_ += static_cast<size_t>(base_id_ - first);
  if (empty() || purged_since_compact_ >= std::max(kChunkCap, size())) {
    index_->Compact(base_id_);
    purged_since_compact_ = 0;
    SyncIndexBytes();
  }
}

void Buffer::Clear() {
  while (base_id_ < next_id_) {
    Chunk& front = *chunks_[head_];
    const size_t row = static_cast<size_t>(base_id_ - front.first_id);
    ReleaseRow(front, static_cast<uint32_t>(row));
    ++base_id_;
    if (base_id_ - front.first_id == kChunkCap) RetireFrontChunk();
  }
  // A trailing partially-filled chunk survives the loop above.
  while (head_ < chunks_.size()) RetireFrontChunk();
  ZS_DCHECK(group_refs_.empty());
  if (index_.has_value()) {
    index_->Clear();
    purged_since_compact_ = 0;
    SyncIndexBytes();
  }
}

void Buffer::EnableHashIndex(const KeySpec& key) {
  if (index_.has_value() && index_->key() == key) return;
  index_.emplace(key);
  for (RecordId id = base_id_; id < next_id_; ++id) {
    index_->Insert(Get(id).slots, id);
  }
  SyncIndexBytes();
}

void Buffer::DisableHashIndex() {
  index_.reset();
  SyncIndexBytes();
}

}  // namespace zstream
