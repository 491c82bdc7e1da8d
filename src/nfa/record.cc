#include "nfa/record.h"

#include <sstream>

#include "common/macros.h"

namespace zstream {

ZS_HOT Record Record::FromEvent(int class_idx, int num_classes,
                         const EventPtr& event) {
  Record r;
  r.start_ts = event->timestamp();
  r.end_ts = event->timestamp();
  r.slots.assign(static_cast<size_t>(num_classes), nullptr);
  r.slots[static_cast<size_t>(class_idx)] = event;
  return r;
}

ZS_HOT Record Record::Merge(const Record& a, const Record& b, Timestamp start,
                     Timestamp end) {
  Record r;
  r.start_ts = start;
  r.end_ts = end;
  const size_t n = a.slots.size();
  r.slots.resize(n);
  for (size_t i = 0; i < n; ++i) {
    r.slots[i] = a.slots[i] != nullptr ? a.slots[i] : b.slots[i];
  }
  r.group = a.group != nullptr ? a.group : b.group;
  return r;
}

size_t Record::ByteSize(bool count_events) const {
  // The group *handle* is part of sizeof(Record); the shared payload is
  // deliberately not charged here — see GroupByteSize.
  size_t bytes = sizeof(Record) + slots.capacity() * sizeof(EventPtr);
  if (count_events) {
    for (const EventPtr& e : slots) {
      if (e != nullptr) bytes += e->ByteSize();
    }
  }
  return bytes;
}

std::string Record::ToString() const {
  std::ostringstream os;
  os << "[" << start_ts << "," << end_ts << "](";
  bool first = true;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i] == nullptr) continue;
    if (!first) os << ", ";
    first = false;
    os << i << ":" << slots[i]->timestamp();
  }
  if (group != nullptr) {
    os << ", group{";
    for (size_t i = 0; i < group->size(); ++i) {
      if (i > 0) os << ",";
      os << (*group)[i]->timestamp();
    }
    os << "}";
  }
  os << ")";
  return os.str();
}

}  // namespace zstream
