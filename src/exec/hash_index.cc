#include "exec/hash_index.h"

#include <algorithm>

namespace zstream {

KeySpec KeySpec::Partition(const std::vector<int>& field_indices) {
  KeySpec spec;
  for (size_t c = 0; c < field_indices.size(); ++c) {
    spec.carriers_.push_back(Carrier{static_cast<int>(c), field_indices[c]});
  }
  return spec;
}

void HashIndex::Insert(const EventPtr* slots, uint64_t id) {
  const Value* key = key_.Of(slots);
  if (key == nullptr || key->is_null()) return;
  auto [it, inserted] = buckets_.try_emplace(*key);
  if (inserted) bytes_ += kEntryBytes;
  Bucket& ids = it->second;
  const size_t cap = ids.capacity();
  ids.push_back(id);
  bytes_ += (ids.capacity() - cap) * sizeof(uint64_t);
}

void HashIndex::Compact(uint64_t base_id) {
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    Bucket& ids = it->second;
    if (ids.back() < base_id) {
      bytes_ -= kEntryBytes + ids.capacity() * sizeof(uint64_t);
      it = buckets_.erase(it);
      continue;
    }
    ids.erase(ids.begin(), std::lower_bound(ids.begin(), ids.end(), base_id));
    ++it;
  }
}

void HashIndex::Clear() {
  buckets_.clear();
  bytes_ = 0;
}

}  // namespace zstream
