// Equality hash indexes over buffers (Section 5.2.2).
//
// Maps a key value to the sequence ids of the records carrying it, in
// insertion (== end-timestamp) order. Two kinds of key share the
// structure:
//
//   * one class's attribute — a side of an equality join, probed by SEQ
//     and CONJ instead of scanning the partner buffer;
//   * the partition key of a keyed pattern (Figure 4's "hash partition
//     on name"), which every bound event of a record carries. Under it
//     the index is the buffer's key-major order: one bucket per live key,
//     and keyed operators pair a record only with its own key's bucket.
//
// Purges do not touch the index: probes skip ids below the buffer's
// base id, and the buffer compacts the index once it has purged as many
// records as it holds (amortized O(1) per purged record). Compaction
// drops purged ids and forgets keys with no live record, so index
// memory follows live records, never the number of keys ever seen.
#ifndef ZSTREAM_EXEC_HASH_INDEX_H_
#define ZSTREAM_EXEC_HASH_INDEX_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/value.h"
#include "event/event.h"

namespace zstream {

/// \brief Where a record's key lives: the (class, attribute) pairs that
/// carry it, in class order. A record's key is the attribute of its
/// first bound carrier class; a record binding no carrier has no key.
class KeySpec {
 public:
  KeySpec() = default;
  /// One class's attribute (one side of an equality join).
  KeySpec(int class_idx, int field_idx)
      : carriers_{Carrier{class_idx, field_idx}} {}
  /// The partition key: class c carries it at `field_indices[c]`.
  static KeySpec Partition(const std::vector<int>& field_indices);

  /// The key of the record whose slot column is `slots`, or null.
  const Value* Of(const EventPtr* slots) const {
    for (const Carrier& c : carriers_) {
      const EventPtr& e = slots[c.class_idx];
      if (e != nullptr) return &e->value(c.field_idx);
    }
    return nullptr;
  }

  bool operator==(const KeySpec& other) const = default;

 private:
  struct Carrier {
    int class_idx;
    int field_idx;
    bool operator==(const Carrier& other) const = default;
  };
  std::vector<Carrier> carriers_;
};

/// \brief Key -> record-id multimap for one buffer.
class HashIndex {
 public:
  explicit HashIndex(KeySpec key) : key_(std::move(key)) {}

  const KeySpec& key() const { return key_; }

  /// Ids (ascending) of the indexed records whose key equals `key`; may
  /// start with ids below the buffer's base id (purged) — callers skip
  /// those.
  std::span<const uint64_t> Probe(const Value& key) const {
    auto it = buckets_.find(key);
    if (it == buckets_.end()) return {};
    return it->second;
  }

  /// Indexes record `id`, newer than every indexed record (records
  /// without a key, or with a null one, are not indexed).
  void Insert(const EventPtr* slots, uint64_t id);

  /// Drops ids below `base_id`, and keys left without ids.
  void Compact(uint64_t base_id);

  void Clear();

  /// Keys with at least one indexed record.
  size_t num_keys() const { return buckets_.size(); }

  /// Bytes held for the indexed records: one table entry per key plus
  /// its id storage. The table's slot array is capacity reused across
  /// purges, like a buffer's recycled chunks, and not charged.
  size_t bytes() const { return bytes_; }

 private:
  using Bucket = std::vector<uint64_t>;
  /// Table entry: the key/bucket pair plus the node's hash and link.
  static constexpr size_t kEntryBytes =
      sizeof(std::pair<const Value, Bucket>) + 2 * sizeof(void*);

  KeySpec key_;
  std::unordered_map<Value, Bucket, ValueHasher> buckets_;
  size_t bytes_ = 0;
};

}  // namespace zstream

#endif  // ZSTREAM_EXEC_HASH_INDEX_H_
