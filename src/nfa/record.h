// Value-type composite-event records (Section 4.2) for the NFA baseline
// and the test oracle.
//
// A record is one (partial) match: a vector of pointers to the component
// primitive events plus a start and end timestamp. We slot the pointers
// by pattern-class index so one expression evaluator serves every
// class; a Kleene group rides along as a shared vector. The tree engine
// does not use this type: its buffers store records column-wise and
// hand out RecordRef views (exec/buffer.h).
#ifndef ZSTREAM_NFA_RECORD_H_
#define ZSTREAM_NFA_RECORD_H_

#include <memory>
#include <string>
#include <vector>

#include "common/timestamp.h"
#include "event/event.h"
#include "expr/expr.h"

namespace zstream {

/// \brief One (partial) match: a primitive event bound to its class, or
/// the union of several.
struct Record {
  Timestamp start_ts = 0;
  Timestamp end_ts = 0;
  /// One entry per pattern class; nullptr when unbound. Negated-class
  /// slots hold the *negating* event (never part of the output span).
  std::vector<EventPtr> slots;
  EventGroupPtr group;  // Kleene-closure events, when the pattern has one

  /// Leaf record wrapping a primitive event bound to `class_idx`.
  static Record FromEvent(int class_idx, int num_classes,
                          const EventPtr& event);

  /// Slot-wise union of two records spanning disjoint class sets, with an
  /// explicit result span (NSEQ excludes the negated side from the span).
  static Record Merge(const Record& a, const Record& b, Timestamp start,
                      Timestamp end);

  /// Union with the natural span [min(starts), max(ends)].
  static Record MergeSpanning(const Record& a, const Record& b) {
    return Merge(a, b, std::min(a.start_ts, b.start_ts),
                 std::max(a.end_ts, b.end_ts));
  }

  EvalInput ToEvalInput(int group_class = -1) const {
    EvalInput in;
    in.slots = slots.data();
    in.num_slots = static_cast<int>(slots.size());
    in.group = group == nullptr ? nullptr : group.get();
    in.group_class = group_class;
    return in;
  }

  /// Approximate resident bytes. `count_events` adds the pointed-to
  /// events' bytes.
  ///
  /// Excludes the Kleene group's payload: one EventGroup is shared by
  /// every record derived from the same closure, so charging it per
  /// holder would inflate the total by the fan-out factor. Containers
  /// charge GroupByteSize once per distinct resident group instead
  /// (see Buffer's group accounting).
  size_t ByteSize(bool count_events = false) const;

  std::string ToString() const;
};

}  // namespace zstream

#endif  // ZSTREAM_NFA_RECORD_H_
