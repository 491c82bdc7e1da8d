// Reordering stage for out-of-order input (Section 4.1):
//
//   "ZStream assumes that primitive events from data sources
//    continuously stream into leaf buffers in time order. If disorder
//    is a problem, a reordering operator may be placed just after the
//    leaf buffer."
//
// This stage buffers events inside a bounded disorder window (`slack`)
// and releases them in timestamp order: once the stage has seen
// timestamp t, every buffered event with timestamp <= t - slack can no
// longer be displaced and is released. Events arriving later than that
// are dropped and counted.
//
// It sits only at ingress, in front of an Engine (whose input must be
// in timestamp order): in a session Query (CompileOptions::reorder_slack)
// and per stream in each runtime shard (RuntimeOptions::reorder_slack).
#ifndef ZSTREAM_EXEC_REORDER_H_
#define ZSTREAM_EXEC_REORDER_H_

#include <algorithm>
#include <map>
#include <vector>

#include "common/timestamp.h"
#include "event/event.h"

namespace zstream {

/// \brief Bounded out-of-orderness buffer with a span interface: push a
/// span in, get back the span of events it released, in timestamp order.
class ReorderStage {
 public:
  explicit ReorderStage(Duration slack) : slack_(slack) {}

  /// Accepts a span with bounded disorder and releases every event whose
  /// position can no longer change. The whole span goes in before
  /// anything is released. The returned span is valid until the next
  /// Push or Flush.
  EventBatch Push(const EventBatch& in) {
    released_.clear();
    for (size_t i = 0; i < in.count; ++i) {
      const EventPtr& event = in.data[i];
      const Timestamp ts = event->timestamp();
      if (ts < emitted_through_) {
        ++late_dropped_;
        continue;
      }
      pending_.emplace(ts, event);
      max_seen_ = std::max(max_seen_, ts);
    }
    if (pending_.empty()) return EventBatch{};
    return ReleaseThrough(max_seen_ - slack_);
  }

  /// Releases everything still pending (stream end or a flush barrier).
  EventBatch Flush() {
    released_.clear();
    return ReleaseThrough(kMaxTimestamp);
  }

  /// Events dropped for arriving later than the slack allows.
  uint64_t late_dropped() const { return late_dropped_; }
  size_t pending() const { return pending_.size(); }

 private:
  EventBatch ReleaseThrough(Timestamp bound) {
    while (!pending_.empty() && pending_.begin()->first <= bound) {
      emitted_through_ = pending_.begin()->first;
      released_.push_back(std::move(pending_.begin()->second));
      pending_.erase(pending_.begin());
    }
    return EventBatch{released_.data(), released_.size()};
  }

  Duration slack_;
  std::multimap<Timestamp, EventPtr> pending_;
  /// The span handed back by the last Push/Flush; capacity reused.
  std::vector<EventPtr> released_;
  Timestamp max_seen_ = kMinTimestamp;
  Timestamp emitted_through_ = kMinTimestamp;
  uint64_t late_dropped_ = 0;
};

}  // namespace zstream

#endif  // ZSTREAM_EXEC_REORDER_H_
