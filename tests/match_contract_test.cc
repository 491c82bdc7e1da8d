// The match callback contract (exec/engine_core.h, MatchCallback): the
// engine lends one reused Match per call. A consumer that only reads it,
// one that copies it and one that moves its slots and group out must see
// the same match multiset, equal to the oracle's, on every root operator,
// on leaf roots, in traced rounds and across a mid-stream SwitchPlan; and
// the lent Match must pin no event past its purge.
#include <memory>
#include <random>

#include "obs/trace.h"
#include "test_util.h"
#include "testing/differential.h"
#include "testing/oracle.h"

namespace zstream::testing {
namespace {

PhysNodePtr L(int c) { return PhysNode::Leaf(c); }

enum class Consumer { kBorrow, kCopy, kMove };

const char* ConsumerName(Consumer c) {
  switch (c) {
    case Consumer::kBorrow:
      return "borrow";
    case Consumer::kCopy:
      return "copy";
    case Consumer::kMove:
      return "move";
  }
  return "?";
}

struct RunMode {
  int batch_size = 64;
  /// Plan switched to halfway through the trace (null: no switch).
  PhysNodePtr switch_to;
  /// Every round runs under a sampled trace id (OnMatch composes the
  /// payload for provenance too).
  bool traced = false;
};

/// Runs `events` through one engine with the given consumer and returns
/// the sorted match keys. The borrowing consumer keys each match inside
/// the call; the others key what they kept only after the run, so a
/// later overwrite of the lent Match would show.
std::vector<std::string> RunConsumer(const PatternPtr& p,
                                     const PhysicalPlan& plan,
                                     const std::vector<EventPtr>& events,
                                     Consumer consumer, const RunMode& mode) {
  EngineOptions options;
  options.batch_size = mode.batch_size;
  auto engine = Engine::Create(p, plan, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  if (!engine.ok()) return {};
  std::vector<std::string> keys;
  std::vector<Match> kept;
  (*engine)->SetMatchCallback([&](Match&& m) {
    switch (consumer) {
      case Consumer::kBorrow:
        keys.push_back(EngineMatchKey(*p, m));
        break;
      case Consumer::kCopy:
        kept.push_back(m);
        break;
      case Consumer::kMove: {
        Match own;
        own.span = m.span;
        own.slots = std::move(m.slots);
        own.group = std::move(m.group);
        kept.push_back(std::move(own));
        break;
      }
    }
  });
  if (mode.traced) {
    obs::TraceOptions topts;
    topts.sample_every = 1;
    obs::Tracer::Global().Configure(topts);
    obs::Tracer::Global().Reset();
    obs::SetCurrentTrace(obs::Tracer::Global().NewTraceId());
  }
  const size_t half = mode.switch_to != nullptr ? events.size() / 2 : 0;
  for (size_t i = 0; i < half; ++i) (*engine)->Push(events[i]);
  if (mode.switch_to != nullptr) {
    EXPECT_TRUE((*engine)->SwitchPlan(PhysicalPlan{mode.switch_to, 0.0}).ok());
  }
  for (size_t i = half; i < events.size(); ++i) (*engine)->Push(events[i]);
  (*engine)->Finish();
  if (mode.traced) {
#ifndef ZSTREAM_OBS_STRIPPED
    // Every traced match recorded its kMatch span from the lent Match.
    EXPECT_EQ(obs::Tracer::Global().KindCount(obs::SpanKind::kMatch),
              (*engine)->num_matches());
#endif
    obs::SetCurrentTrace(0);
    obs::Tracer::Global().Configure(obs::TraceOptions{});
  }
  for (const Match& m : kept) keys.push_back(EngineMatchKey(*p, m));
  EXPECT_EQ(keys.size(), (*engine)->num_matches());
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Classes are told apart by volume (A=1, B=2, C=3); names come from
/// three symbols, so a name-equality pattern is keyed.
std::vector<EventPtr> Trace(uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::vector<EventPtr> events;
  Timestamp ts = 0;
  const char* names[] = {"X", "Y", "Z"};
  for (int i = 0; i < n; ++i) {
    ts += static_cast<Timestamp>(rng() % 3);  // ties included
    events.push_back(Stock(names[rng() % 3], static_cast<double>(rng() % 50),
                           ts, static_cast<int64_t>(1 + rng() % 3)));
  }
  return events;
}

struct ContractCase {
  std::string name;
  std::string query;
  PhysNodePtr plan;
  /// Alternative plan for the mid-stream switch (null: none).
  PhysNodePtr alt;
  /// Compare in one assembly round after a sentinel past the window (a
  /// negator-right NSEQ under a SEQ loses matches mid-stream; ROADMAP).
  bool single_round = false;
};

TEST(MatchContract, BorrowCopyAndMoveConsumersMatchOracle) {
  const std::string vols = " A.volume = 1 AND B.volume = 2 AND C.volume = 3 ";
  const std::vector<ContractCase> cases = {
      {"SEQ", "PATTERN A;B;C WHERE" + vols + "AND A.price < C.price WITHIN 12",
       PhysNode::Seq(PhysNode::Seq(L(0), L(1)), L(2)),
       PhysNode::Seq(L(0), PhysNode::Seq(L(1), L(2)))},
      {"SEQ-keyed",
       "PATTERN A;B;C WHERE A.name = B.name AND B.name = C.name AND" + vols +
           "WITHIN 12",
       PhysNode::Seq(PhysNode::Seq(L(0), L(1)), L(2)),
       PhysNode::Seq(L(0), PhysNode::Seq(L(1), L(2)))},
      {"CONJ", "PATTERN (A & B);C WHERE" + vols + "WITHIN 12",
       PhysNode::Seq(PhysNode::Conj(L(0), L(1)), L(2)), nullptr},
      {"CONJ-root", "PATTERN A & B WHERE A.volume = 1 AND B.volume = 2 WITHIN 6",
       PhysNode::Conj(L(0), L(1)), nullptr},
      {"DISJ", "PATTERN A;(B|C) WHERE" + vols + "WITHIN 12",
       PhysNode::Seq(L(0), PhysNode::Disj(L(1), L(2))), nullptr},
      {"DISJ-root", "PATTERN A|B WHERE A.volume = 1 AND B.volume = 2 WITHIN 6",
       PhysNode::Disj(L(0), L(1)), nullptr},
      {"NSEQ-neg-left", "PATTERN A;!B;C WHERE" + vols + "WITHIN 12",
       PhysNode::Seq(L(0), PhysNode::NSeq(L(1), L(2), /*neg_left=*/true)),
       PhysNode::NegFilter(PhysNode::Seq(L(0), L(2)), 1)},
      {"NSEQ-neg-right", "PATTERN A;!B;C WHERE" + vols + "WITHIN 12",
       PhysNode::Seq(PhysNode::NSeq(L(1), L(0), /*neg_left=*/false), L(2)),
       nullptr, /*single_round=*/true},
      {"NEG-filter", "PATTERN A;!B;C WHERE" + vols + "WITHIN 12",
       PhysNode::NegFilter(PhysNode::Seq(L(0), L(2)), 1),
       PhysNode::Seq(L(0), PhysNode::NSeq(L(1), L(2), /*neg_left=*/true))},
      {"KSEQ-plus", "PATTERN A;B+;C WHERE" + vols + "WITHIN 12",
       PhysNode::KSeq(L(0), L(1), L(2)), nullptr},
      {"KSEQ-count", "PATTERN A;B^2;C WHERE" + vols + "WITHIN 12",
       PhysNode::KSeq(L(0), L(1), L(2)), nullptr},
      {"KSEQ-under-SEQ",
       "PATTERN A;B+;C;D WHERE" + vols + "AND D.volume = 1 WITHIN 12",
       PhysNode::Seq(PhysNode::KSeq(L(0), L(1), L(2)), L(3)), nullptr},
      {"leaf-root", "PATTERN A WHERE A.volume = 1 AND A.price < 25 WITHIN 12",
       L(0), nullptr},
  };
  for (const ContractCase& c : cases) {
    SCOPED_TRACE(c.name);
    const PatternPtr p = MustAnalyze(c.query);
    const PhysicalPlan plan{c.plan, 0.0};
    auto events = Trace(5, 400);
    if (c.single_round) {
      // Admitted by no class (volume 4); lifts the horizon past every
      // record's window so one round releases every NSEQ hold.
      events.push_back(
          Stock("X", 0.0, events.back()->timestamp() + p->window + 1, 4));
    }
    auto oracle = Oracle::Create(p);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    const std::vector<std::string> expected = (*oracle)->Run(events);
    ASSERT_FALSE(expected.empty());

    std::vector<RunMode> modes;
    for (const int batch : c.single_round ? std::vector<int>{1 << 20}
                                          : std::vector<int>{1, 64}) {
      RunMode plain;
      plain.batch_size = batch;
      modes.push_back(plain);
      RunMode traced = plain;
      traced.traced = true;
      modes.push_back(traced);
      if (c.alt != nullptr) {
        RunMode switched = plain;
        switched.switch_to = c.alt;
        modes.push_back(switched);
      }
    }
    for (const RunMode& mode : modes) {
      for (const Consumer consumer :
           {Consumer::kBorrow, Consumer::kCopy, Consumer::kMove}) {
        SCOPED_TRACE(std::string(ConsumerName(consumer)) +
                     " batch_size=" + std::to_string(mode.batch_size) +
                     (mode.traced ? " traced" : "") +
                     (mode.switch_to != nullptr ? " switched" : ""));
        EXPECT_EQ(RunConsumer(p, plan, events, consumer, mode), expected);
      }
    }
  }
}

// Once later events purge an early event from every buffer, nothing may
// still hold it: not the lent Match (which delivered it last) and not
// the KSEQ's reused group scratch.
TEST(MatchContract, LentMatchPinsNoEventPastItsPurge) {
  struct LifetimeCase {
    std::string query;
    PhysNodePtr plan;
  };
  const std::vector<LifetimeCase> cases = {
      {"PATTERN A;B WHERE A.volume = 1 AND B.volume = 2 WITHIN 10",
       PhysNode::Seq(L(0), L(1))},
      {"PATTERN A;B+;C WHERE A.volume = 1 AND B.volume = 2 "
       "AND C.volume = 3 WITHIN 10",
       PhysNode::KSeq(L(0), L(1), L(2))},
  };
  for (const LifetimeCase& c : cases) {
    SCOPED_TRACE(c.query);
    const PatternPtr p = MustAnalyze(c.query);
    EngineOptions options;
    options.batch_size = 1;
    auto engine = Engine::Create(p, PhysicalPlan{c.plan, 0.0}, options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    uint64_t delivered = 0;
    (*engine)->SetMatchCallback([&](Match&& m) {
      EXPECT_NE(m.slots[0], nullptr);
      ++delivered;
    });

    // The match's events exist only inside the engine from here on.
    std::vector<std::weak_ptr<const Event>> early;
    for (int i = 0; i < p->num_classes(); ++i) {
      EventPtr e = Stock("X", 1.0, i, i + 1);
      early.push_back(e);
      (*engine)->Push(e);
    }
    ASSERT_EQ(delivered, 1u);
    // Admitted by no class, far past the window: idle rounds purge.
    for (Timestamp ts = 100; ts < 110; ++ts) {
      (*engine)->Push(Stock("X", 1.0, ts, 9));
    }
    EXPECT_EQ(delivered, 1u);
    for (size_t i = 0; i < early.size(); ++i) {
      EXPECT_TRUE(early[i].expired()) << "event " << i << " still pinned";
    }
  }
}

}  // namespace
}  // namespace zstream::testing
