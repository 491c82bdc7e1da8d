// KSEQ: Kleene-closure evaluation (Algorithm 4, Figure 6).
//
// KSEQ is trinary: a start operand fixes the left boundary, an end
// operand fixes the right boundary, and closure matches are collected
// from the middle (Kleene) class's leaf buffer between them.
//
//   * unspecified count (* / +): one maximal group per (start, end) pair;
//     '+' requires at least one closure event, '*' allows zero.
//   * count = n: a size-n sliding window over the qualifying closure
//     events; one result per window position per (start, end) pair.
//
// When the closure starts the pattern the start operand is virtual
// (group events only bounded by the window). When the closure *ends*
// the pattern there is no end trigger; each new closure event acts as
// the end point (groups grow incrementally — a documented deviation, as
// Algorithm 4 requires an end class).
//
// Candidate (start, end, mid) combinations are probed through aliasing
// views (BaseView / MidQualifies): no record is materialized until a
// group survives the window and group predicates. Under a partition key
// the start records and the closure events are drawn from the end
// record's own key only.
#include "exec/operators.h"

#include "expr/analysis.h"

namespace zstream {

KSeqNode::KSeqNode(const Pattern* pattern, OperatorNode* start,
                   LeafNode* closure, OperatorNode* end,
                   MemoryTracker* tracker)
    : OperatorNode(pattern, PhysOp::kKSeq, tracker),
      start_(start),
      closure_(closure),
      end_(end),
      base_slots_(static_cast<size_t>(pattern->num_classes())) {
  const EventClass& kc =
      pattern->classes[static_cast<size_t>(closure->class_idx())];
  kind_ = kc.kleene;
  count_ = kc.kleene_count;
  if (start != nullptr) children_.push_back(start);
  children_.push_back(closure);
  if (end != nullptr) children_.push_back(end);
}

// Splits the attached predicates into:
//   * per-mid: reference the closure class without aggregates — filter
//     each closure event individually;
//   * group: contain aggregates over the closure class — evaluated on
//     the assembled group;
//   * base: do not touch the closure class — evaluated once per
//     (start, end) pair.
void KSeqNode::SplitPreds() {
  preds_split_ = true;
  const int kc = closure_->class_idx();
  for (const AttachedPred& p : preds_) {
    const bool touches_mid =
        std::find(p.classes.begin(), p.classes.end(), kc) != p.classes.end();
    if (!touches_mid) {
      base_preds_.push_back(p);
    } else if (p.has_aggregate) {
      group_preds_.push_back(p);
    } else {
      per_mid_preds_.push_back(p);
    }
  }
}

// Aliasing view of the (start, end) base pair in base_slots_; end wins
// ties (the operands cover disjoint classes, so none occur). Kept in its
// own slot vector so MidQualifies can bind closure events while the
// base stays live.
EvalInput KSeqNode::BaseView(const RecordRef* sr, const RecordRef& er) {
  const int n = er.num_slots;
  for (int i = 0; i < n; ++i) {
    base_slots_[static_cast<size_t>(i)] =
        EventPtr(EventPtr(), UnionSlot(er, sr, i).get());
  }
  EvalInput in;
  in.slots = base_slots_.data();
  in.num_slots = n;
  in.group = nullptr;
  in.group_class = group_class_;
  return in;
}

bool KSeqNode::MidQualifies(const EventPtr& m, const EvalInput& base) {
  if (per_mid_preds_.empty()) return true;
  // `base` views base_slots_; bind the closure slot in place, probe,
  // unbind. No copies.
  const size_t kc = static_cast<size_t>(closure_->class_idx());
  base_slots_[kc] = EventPtr(EventPtr(), m.get());
  bool ok = true;
  for (const AttachedPred& p : per_mid_preds_) {
    if (!EvalOnePred(p, base)) {
      ok = false;
      break;
    }
  }
  base_slots_[kc] = nullptr;
  return ok;
}

void KSeqNode::EmitOne(const RecordRef* sr, const RecordRef& er,
                       const EventGroup& group) {
  const Timestamp group_start =
      group.empty() ? er.start_ts : group.front()->timestamp();
  const Timestamp start_ts = sr != nullptr ? sr->start_ts : group_start;
  const Timestamp end_ts = er.end_ts;
  if (end_ts - start_ts > window_) return;
  // Group predicates run on an aliasing view before materialization.
  if (!group_preds_.empty()) {
    EvalInput view =
        sr != nullptr ? MergedView(er, *sr) : er.ToEvalInput(group_class_);
    view.group = &group;
    view.group_class = group_class_;
    for (const AttachedPred& p : group_preds_) {
      if (!EvalOnePred(p, view)) return;
    }
  }
  if (sink_ != nullptr) {
    // The sink shares the group only when it needs a payload.
    sink_->OnMatch(start_ts, end_ts, er, sr, &group);
  } else {
    const EventGroupPtr gp = std::make_shared<const EventGroup>(group);
    output_.AppendMerged(er, sr, start_ts, end_ts, &gp);
  }
  ++records_emitted_;
}

// Collects qualifying closure events in (lo, hi) and emits the group(s)
// for the (sr, er) pair.
void KSeqNode::EmitGroups(const RecordRef* sr, const RecordRef& er,
                          Timestamp lo, Timestamp hi, Timestamp eat,
                          const Value* key) {
  const Buffer& mbuf = *closure_->output();
  const EvalInput base = BaseView(sr, er);
  const size_t kc = static_cast<size_t>(closure_->class_idx());

  qualifying_.clear();
  ForEachPartner(mbuf, key, mbuf.base_id(), mbuf.end_id(),
                 /*newest_first=*/false, [&](const RecordRef& mr) {
                   ++pairs_tried_;
                   if (mr.end_ts >= hi) return false;  // leaf: sorted
                   if (mr.start_ts < eat || mr.start_ts <= lo) return true;
                   const EventPtr& m = mr.slots[kc];
                   if (MidQualifies(m, base)) qualifying_.push_back(m);
                   return true;
                 });

  switch (kind_) {
    case KleeneKind::kStar:
      EmitOne(sr, er, qualifying_);
      break;
    case KleeneKind::kPlus:
      if (!qualifying_.empty()) EmitOne(sr, er, qualifying_);
      break;
    case KleeneKind::kCount: {
      const size_t cc = static_cast<size_t>(count_);
      for (size_t i = 0; i + cc <= qualifying_.size(); ++i) {
        const auto first = qualifying_.begin() + static_cast<long>(i);
        window_group_.assign(first, first + static_cast<long>(cc));
        EmitOne(sr, er, window_group_);
      }
      break;
    }
    case KleeneKind::kNone:
      break;
  }
}

void KSeqNode::AssembleWithEnd(Timestamp eat) {
  Buffer& ebuf = *end_->output();
  Buffer& mbuf = *closure_->output();
  mbuf.PurgeBefore(eat);
  Buffer* sbuf = start_ != nullptr ? start_->output() : nullptr;
  if (sbuf != nullptr) sbuf->PurgeBefore(eat);

  for (RecordId eid = ebuf.watermark(); eid < ebuf.end_id(); ++eid) {
    const RecordRef er = ebuf.Get(eid);
    if (er.start_ts < eat) continue;
    const Value* key = PartitionKeyOf(er);

    if (sbuf == nullptr) {
      // Closure at pattern start: bounded below by the window only.
      bool base_ok = true;
      if (!base_preds_.empty()) {
        const EvalInput base = BaseView(nullptr, er);
        for (const AttachedPred& p : base_preds_) {
          if (!EvalOnePred(p, base)) {
            base_ok = false;
            break;
          }
        }
      }
      if (base_ok) {
        EmitGroups(nullptr, er, er.end_ts - window_ - 1, er.start_ts, eat,
                   key);
      }
      continue;
    }

    ForEachPartner(
        *sbuf, key, sbuf->base_id(), sbuf->end_id(), /*newest_first=*/false,
        [&](const RecordRef& sr) {
          if (sr.end_ts >= er.start_ts) return false;
          if (sr.start_ts < eat) return true;
          if (er.end_ts - sr.start_ts > window_) return true;
          if (!base_preds_.empty()) {
            const EvalInput base = BaseView(&sr, er);
            for (const AttachedPred& p : base_preds_) {
              if (!EvalOnePred(p, base)) return true;
            }
          }
          EmitGroups(&sr, er, sr.end_ts, er.start_ts, eat, key);
          return true;
        });
  }

  ebuf.SetWatermark(ebuf.end_id());
  if (!end_->is_leaf()) {
    ebuf.Clear();
  } else {
    ebuf.PurgeBefore(eat);
  }
}

// Closure ends the pattern: every new closure event acts as an end
// trigger; the group is the qualifying run that finishes at that event.
void KSeqNode::AssembleAtPatternEnd(Timestamp eat) {
  Buffer& mbuf = *closure_->output();
  Buffer* sbuf = start_ != nullptr ? start_->output() : nullptr;
  if (sbuf != nullptr) sbuf->PurgeBefore(eat);
  const size_t kc = static_cast<size_t>(closure_->class_idx());

  for (RecordId mid = mbuf.watermark(); mid < mbuf.end_id(); ++mid) {
    const RecordRef mr = mbuf.Get(mid);
    if (mr.start_ts < eat) continue;
    const Value* key = PartitionKeyOf(mr);

    const auto emit_for_start = [&](const RecordRef* sr) {
      const Timestamp lo = sr != nullptr ? sr->end_ts : kMinTimestamp;
      const EvalInput base = BaseView(sr, mr);
      for (const AttachedPred& p : base_preds_) {
        if (!EvalOnePred(p, base)) return;
      }
      // Walk back over qualifying closure events ending at mr.
      EventGroup& group = qualifying_;
      group.clear();
      const EventPtr& m_last = mr.slots[kc];
      if (!MidQualifies(m_last, base)) return;
      group.push_back(m_last);
      ForEachPartner(mbuf, key, mbuf.base_id(), mid, /*newest_first=*/true,
                     [&](const RecordRef& pr) {
                       if (pr.start_ts <= lo || pr.start_ts < eat) {
                         return false;
                       }
                       if (kind_ == KleeneKind::kCount &&
                           group.size() >= static_cast<size_t>(count_)) {
                         return false;
                       }
                       const EventPtr& m = pr.slots[kc];
                       if (MidQualifies(m, base)) group.push_back(m);
                       return true;
                     });
      std::reverse(group.begin(), group.end());
      if (kind_ == KleeneKind::kCount &&
          group.size() != static_cast<size_t>(count_)) {
        return;
      }
      EmitOne(sr, mr, group);
    };

    if (sbuf == nullptr) {
      emit_for_start(nullptr);
    } else {
      ForEachPartner(*sbuf, key, sbuf->base_id(), sbuf->end_id(),
                     /*newest_first=*/false, [&](const RecordRef& sr) {
                       if (sr.end_ts >= mr.start_ts) return false;
                       if (sr.start_ts >= eat &&
                           mr.end_ts - sr.start_ts <= window_) {
                         emit_for_start(&sr);
                       }
                       return true;
                     });
    }
  }
  mbuf.SetWatermark(mbuf.end_id());
}

void KSeqNode::Assemble(Timestamp eat) {
  if (!preds_split_) SplitPreds();
  if (end_ != nullptr) {
    AssembleWithEnd(eat);
  } else {
    AssembleAtPatternEnd(eat);
  }
  // The scratch groups keep their capacity but must not pin events past
  // their purge.
  qualifying_.clear();
  window_group_.clear();
}

}  // namespace zstream
