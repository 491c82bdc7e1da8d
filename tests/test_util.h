// Shared helpers for the ZStream test suite.
#ifndef ZSTREAM_TESTS_TEST_UTIL_H_
#define ZSTREAM_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/zstream.h"
#include "common/random.h"
#include "exec/engine.h"
#include "nfa/nfa_engine.h"
#include "query/analyzer.h"

namespace zstream::testing {

/// Counter behind Stock()'s auto-assigned event ids. Reset at the start
/// of every test (see the listener below) so ids depend only on the
/// calls a test itself makes — never on which tests ran earlier in the
/// binary or on ctest -j sharding.
inline int64_t& StockIdCounter() {
  static int64_t id = 0;
  return id;
}

inline void ResetStockIds() { StockIdCounter() = 0; }

namespace internal {
class ResetStockIdsListener : public ::testing::EmptyTestEventListener {
 public:
  void OnTestStart(const ::testing::TestInfo&) override { ResetStockIds(); }
};

// Registered during static initialization, before gtest_main's
// RUN_ALL_TESTS; the listener list takes ownership.
inline const bool kResetStockIdsRegistered = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(
      new ResetStockIdsListener());
  return true;
}();
}  // namespace internal

/// Builds a stock event.
inline EventPtr Stock(const std::string& name, double price, Timestamp ts,
                      int64_t volume = 100) {
  return EventBuilder(StockSchema())
      .Set("id", StockIdCounter()++)
      .Set("name", Value(name))
      .Set("price", price)
      .Set("volume", volume)
      .Set("ts", static_cast<int64_t>(ts))
      .At(ts)
      .Build();
}

/// Parses + analyzes a query against the stock schema (CHECK-fails on
/// error so tests read cleanly).
inline PatternPtr MustAnalyze(const std::string& text,
                              AnalyzerOptions options = {}) {
  auto result = AnalyzeQuery(text, StockSchema(), options);
  if (!result.ok()) {
    ADD_FAILURE() << "analyze failed: " << result.status().ToString()
                  << " for query: " << text;
    abort();
  }
  return *result;
}

/// Canonical string for a match: per-class event timestamps plus the
/// Kleene group's timestamps. Order-independent comparison of match sets
/// uses sorted vectors of these keys.
inline std::string MatchKey(const Match& m) {
  std::ostringstream os;
  for (size_t i = 0; i < m.slots.size(); ++i) {
    if (m.slots[i] != nullptr) {
      os << i << "@" << m.slots[i]->timestamp() << "|";
    }
  }
  if (m.group != nullptr) {
    os << "g{";
    for (const EventPtr& e : *m.group) os << e->timestamp() << ",";
    os << "}";
  }
  return os.str();
}

/// Runs an engine over events and returns sorted match keys.
inline std::vector<std::string> RunPlan(const PatternPtr& pattern,
                                        const PhysicalPlan& plan,
                                        const std::vector<EventPtr>& events,
                                        EngineOptions options = {}) {
  auto engine = Engine::Create(pattern, plan, options);
  if (!engine.ok()) {
    ADD_FAILURE() << "engine create failed: " << engine.status().ToString();
    return {};
  }
  std::vector<std::string> keys;
  (*engine)->SetMatchCallback(
      [&](Match&& m) { keys.push_back(MatchKey(m)); });
  for (const EventPtr& e : events) (*engine)->Push(e);
  (*engine)->Finish();
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Compiles `text` as a session Query on the stock schema, pushes
/// `events` one at a time (through the query's reorder stage when
/// `options` sets a slack) and returns sorted match keys. `late`, when
/// given, receives Query::late_events().
inline std::vector<std::string> RunQuery(const std::string& text,
                                         const std::vector<EventPtr>& events,
                                         const CompileOptions& options = {},
                                         uint64_t* late = nullptr) {
  ZStream zs(StockSchema());
  auto query = zs.Compile(text, options);
  if (!query.ok()) {
    ADD_FAILURE() << "compile failed: " << query.status().ToString();
    return {};
  }
  std::vector<std::string> keys;
  (*query)->SetMatchCallback(
      [&](Match&& m) { keys.push_back(MatchKey(m)); });
  for (const EventPtr& e : events) (*query)->Push(e);
  (*query)->Finish();
  if (late != nullptr) *late = (*query)->late_events();
  std::sort(keys.begin(), keys.end());
  return keys;
}

// ---------------------------------------------------------------------
// Brute-force reference matcher.
//
// Enumerates every combination of admitted events (one per positive
// class, strictly increasing timestamps, span <= window), evaluates all
// multi-class predicates on the full binding, and applies negation by
// scanning for an interleaving admitted negator (strictly between the
// enclosing events, all negation predicates passing). Kleene closure
// follows Algorithm 4's semantics.
// ---------------------------------------------------------------------

class ReferenceMatcher {
 public:
  explicit ReferenceMatcher(PatternPtr pattern) : pattern_(std::move(pattern)) {}

  std::vector<std::string> Run(const std::vector<EventPtr>& events) {
    const Pattern& p = *pattern_;
    const int n = p.num_classes();
    admitted_.assign(static_cast<size_t>(n), {});
    for (const EventPtr& e : events) {
      for (int c = 0; c < n; ++c) {
        if (Admit(c, e)) admitted_[static_cast<size_t>(c)].push_back(e);
      }
    }
    keys_.clear();
    Record rec;
    rec.slots.assign(static_cast<size_t>(n), nullptr);
    Enumerate(0, rec);
    std::sort(keys_.begin(), keys_.end());
    return keys_;
  }

 private:
  bool Admit(int cls, const EventPtr& e) const {
    const EventClass& ec = pattern_->classes[static_cast<size_t>(cls)];
    Record probe = Record::FromEvent(cls, pattern_->num_classes(), e);
    const EvalInput in = probe.ToEvalInput();
    for (const ExprPtr& pred : ec.leaf_predicates) {
      if (!pred->EvalPredicate(in)) return false;
    }
    if (!ec.neg_branches.empty()) {
      for (const NegBranch& b : ec.neg_branches) {
        bool all = true;
        for (const ExprPtr& pred : b.predicates) {
          if (!pred->EvalPredicate(in)) all = false;
        }
        if (all) return true;
      }
      return false;
    }
    return true;
  }

  // Recursively binds positive, non-Kleene classes in pattern order.
  void Enumerate(int cls, Record& rec) {
    const Pattern& p = *pattern_;
    const int n = p.num_classes();
    if (cls == n) {
      Finalize(rec);
      return;
    }
    const EventClass& ec = p.classes[static_cast<size_t>(cls)];
    if (ec.negated || ec.is_kleene()) {
      Enumerate(cls + 1, rec);  // bound later / grouped later
      return;
    }
    const Timestamp prev = PrevPositiveTs(rec, cls);
    for (const EventPtr& e : admitted_[static_cast<size_t>(cls)]) {
      if (prev != kMinTimestamp && e->timestamp() <= prev) continue;
      rec.slots[static_cast<size_t>(cls)] = e;
      Enumerate(cls + 1, rec);
    }
    rec.slots[static_cast<size_t>(cls)] = nullptr;
  }

  Timestamp PrevPositiveTs(const Record& rec, int cls) const {
    for (int c = cls - 1; c >= 0; --c) {
      const EventPtr& e = rec.slots[static_cast<size_t>(c)];
      if (e != nullptr) return e->timestamp();
      if (pattern_->classes[static_cast<size_t>(c)].negated ||
          pattern_->classes[static_cast<size_t>(c)].is_kleene()) {
        continue;
      }
    }
    return kMinTimestamp;
  }

  void Finalize(Record& rec) {
    const Pattern& p = *pattern_;
    // Window over the positive bindings.
    Timestamp lo = kMaxTimestamp, hi = kMinTimestamp;
    for (const EventPtr& e : rec.slots) {
      if (e == nullptr) continue;
      lo = std::min(lo, e->timestamp());
      hi = std::max(hi, e->timestamp());
    }
    if (lo == kMaxTimestamp || hi - lo > p.window) return;

    // Negation: any admitted negator strictly inside its enclosure
    // (with all negation predicates passing) kills the match.
    for (int nc : p.NegatedClasses()) {
      const EventPtr& a = rec.slots[static_cast<size_t>(nc - 1)];
      const EventPtr& c = rec.slots[static_cast<size_t>(nc + 1)];
      for (const EventPtr& b : admitted_[static_cast<size_t>(nc)]) {
        if (b->timestamp() <= a->timestamp() ||
            b->timestamp() >= c->timestamp()) {
          continue;
        }
        rec.slots[static_cast<size_t>(nc)] = b;
        if (PredsPass(rec, /*restrict_to_neg=*/nc)) {
          rec.slots[static_cast<size_t>(nc)] = nullptr;
          return;  // negated
        }
      }
      rec.slots[static_cast<size_t>(nc)] = nullptr;
    }

    const int kc = p.KleeneClass();
    if (kc < 0) {
      if (!PredsPass(rec, -1)) return;
      Emit(rec, nullptr);
      return;
    }

    // Kleene closure between its neighbors (virtual boundaries at the
    // pattern edges, bounded by the window).
    const EventPtr* before = kc > 0 ? &rec.slots[static_cast<size_t>(kc - 1)]
                                    : nullptr;
    const EventPtr* after = kc + 1 < p.num_classes()
                                ? &rec.slots[static_cast<size_t>(kc + 1)]
                                : nullptr;
    const Timestamp lo_b =
        before != nullptr && *before != nullptr ? (*before)->timestamp()
                                                : kMinTimestamp;
    const Timestamp hi_b = after != nullptr && *after != nullptr
                               ? (*after)->timestamp()
                               : kMaxTimestamp;
    EventGroup qualifying;
    for (const EventPtr& m : admitted_[static_cast<size_t>(kc)]) {
      const Timestamp ts = m->timestamp();
      if (ts <= lo_b || ts >= hi_b) continue;
      if (hi != kMinTimestamp && lo != kMaxTimestamp) {
        const Timestamp s = std::min(lo, ts);
        const Timestamp e2 = std::max(hi, ts);
        if (e2 - s > p.window) continue;
      }
      // Per-closure-event predicates (non-aggregate predicates that
      // reference the Kleene class) filter each event individually.
      rec.slots[static_cast<size_t>(kc)] = m;
      bool ok = true;
      const EvalInput in = rec.ToEvalInput();
      for (const ExprPtr& pred : p.multi_predicates) {
        if (ContainsAggregate(pred)) continue;
        const std::set<int> classes = ReferencedClasses(pred);
        if (classes.count(kc) == 0) continue;
        bool all_bound = true;
        for (int c : classes) {
          if (rec.slots[static_cast<size_t>(c)] == nullptr) all_bound = false;
        }
        if (!all_bound) continue;
        if (!pred->EvalPredicate(in)) ok = false;
      }
      rec.slots[static_cast<size_t>(kc)] = nullptr;
      if (ok) qualifying.push_back(m);
    }
    const EventClass& kcl = p.classes[static_cast<size_t>(kc)];
    const auto emit_group = [&](EventGroup g) {
      rec.group = std::make_shared<EventGroup>(std::move(g));
      if (PredsPass(rec, -1)) Emit(rec, rec.group.get());
      rec.group = nullptr;
    };
    switch (kcl.kleene) {
      case KleeneKind::kStar:
        emit_group(qualifying);
        break;
      case KleeneKind::kPlus:
        if (!qualifying.empty()) emit_group(qualifying);
        break;
      case KleeneKind::kCount: {
        const size_t cc = static_cast<size_t>(kcl.kleene_count);
        for (size_t i = 0; i + cc <= qualifying.size(); ++i) {
          emit_group(EventGroup(qualifying.begin() + static_cast<long>(i),
                                qualifying.begin() +
                                    static_cast<long>(i + cc)));
        }
        break;
      }
      case KleeneKind::kNone:
        break;
    }
  }

  // Evaluates multi-class predicates whose referenced slots are bound;
  // when `restrict_to_neg` >= 0, only predicates touching that class.
  bool PredsPass(const Record& rec, int restrict_to_neg) const {
    const EvalInput in = rec.ToEvalInput(pattern_->KleeneClass());
    const int kc = pattern_->KleeneClass();
    for (const ExprPtr& pred : pattern_->multi_predicates) {
      const std::set<int> classes = ReferencedClasses(pred);
      if (restrict_to_neg >= 0 &&
          classes.count(restrict_to_neg) == 0) {
        continue;
      }
      if (restrict_to_neg < 0) {
        // Skip negation predicates here; they only matter for negators.
        bool touches_neg = false;
        for (int nc : pattern_->NegatedClasses()) {
          if (classes.count(nc) > 0) touches_neg = true;
        }
        if (touches_neg) continue;
        // Non-aggregate Kleene-class predicates were enforced per
        // closure event already.
        if (kc >= 0 && classes.count(kc) > 0 && !ContainsAggregate(pred)) {
          continue;
        }
      }
      bool all_bound = true;
      for (int c : classes) {
        if (rec.slots[static_cast<size_t>(c)] == nullptr &&
            !(c == pattern_->KleeneClass() && rec.group != nullptr)) {
          all_bound = false;
        }
      }
      if (!all_bound) continue;
      if (!pred->EvalPredicate(in)) return false;
    }
    return true;
  }

  void Emit(const Record& rec, const EventGroup* group) {
    std::ostringstream os;
    for (size_t i = 0; i < rec.slots.size(); ++i) {
      if (rec.slots[i] != nullptr) {
        os << i << "@" << rec.slots[i]->timestamp() << "|";
      }
    }
    if (group != nullptr) {
      os << "g{";
      for (const EventPtr& e : *group) os << e->timestamp() << ",";
      os << "}";
    } else if (pattern_->KleeneClass() >= 0) {
      os << "g{}";
    }
    keys_.push_back(os.str());
  }

  PatternPtr pattern_;
  std::vector<std::vector<EventPtr>> admitted_;
  std::vector<std::string> keys_;
};

}  // namespace zstream::testing

#endif  // ZSTREAM_TESTS_TEST_UTIL_H_
