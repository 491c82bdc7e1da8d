// Reordering stage (Section 4.1's disorder handling), its span API, and
// late events of a session Query (the stage at its ingress and the
// engine's frontier behind it).
#include <gtest/gtest.h>

#include <algorithm>

#include "exec/reorder.h"
#include "test_util.h"

namespace zstream {
namespace {

using testing::MustAnalyze;
using testing::RunPlan;
using testing::RunQuery;
using testing::Stock;

// Appends the timestamps of a released span to `out`.
void AppendTs(const EventBatch& released, std::vector<Timestamp>* out) {
  for (size_t i = 0; i < released.count; ++i) {
    out->push_back(released.data[i]->timestamp());
  }
}

EventPtr At(Timestamp ts) { return EventBuilder(StockSchema()).At(ts).Build(); }

// Pushes one event as a span of one.
EventBatch PushOne(ReorderStage* stage, const EventPtr& e) {
  return stage->Push(EventBatch{&e, 1});
}

TEST(ReorderStage, EmitsInTimestampOrder) {
  std::vector<Timestamp> out;
  ReorderStage stage(5);
  for (Timestamp ts : {3, 1, 2, 8, 6, 7, 12}) {
    AppendTs(PushOne(&stage, At(ts)), &out);
  }
  AppendTs(stage.Flush(), &out);
  EXPECT_EQ(out, (std::vector<Timestamp>{1, 2, 3, 6, 7, 8, 12}));
  EXPECT_EQ(stage.late_dropped(), 0u);
}

TEST(ReorderStage, DropsEventsBeyondSlack) {
  std::vector<Timestamp> out;
  ReorderStage stage(2);
  AppendTs(PushOne(&stage, At(10)), &out);
  AppendTs(PushOne(&stage, At(13)), &out);  // releases <= 11
  AppendTs(PushOne(&stage, At(9)), &out);   // too late
  AppendTs(stage.Flush(), &out);
  EXPECT_EQ(out, (std::vector<Timestamp>{10, 13}));
  EXPECT_EQ(stage.late_dropped(), 1u);
}

TEST(ReorderStage, DuplicateTimestampsPreserved) {
  std::vector<Timestamp> out;
  ReorderStage stage(5);
  AppendTs(PushOne(&stage, At(4)), &out);
  AppendTs(PushOne(&stage, At(4)), &out);
  AppendTs(stage.Flush(), &out);
  EXPECT_EQ(out.size(), 2u);
}

std::vector<EventPtr> Shuffled(const std::vector<EventPtr>& sorted,
                               Duration max_disorder, uint64_t seed) {
  // Displace each event by a bounded random amount, then order by the
  // displaced position — bounded out-of-orderness.
  Random rng(seed);
  std::vector<std::pair<double, EventPtr>> keyed;
  for (const auto& e : sorted) {
    keyed.emplace_back(static_cast<double>(e->timestamp()) +
                           rng.NextDouble() *
                               static_cast<double>(max_disorder),
                       e);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<EventPtr> out;
  for (auto& [k, e] : keyed) out.push_back(e);
  return out;
}

// A whole disordered run pushed as one span goes in before anything is
// released, so it releases the same sorted sequence as event-by-event
// pushes and never drops more.
TEST(ReorderStage, SpanReleasesSameSequenceAsEventByEvent) {
  Random rng(9);
  std::vector<EventPtr> sorted;
  Timestamp ts = 0;
  for (int i = 0; i < 500; ++i) {
    ts += rng.Uniform(4);
    sorted.push_back(At(ts));
  }
  const auto released = [](ReorderStage* stage, const std::vector<EventPtr>& in,
                           bool as_span) {
    std::vector<const Event*> out;
    const auto take = [&out](const EventBatch& b) {
      for (size_t i = 0; i < b.count; ++i) out.push_back(b.data[i].get());
    };
    if (as_span) {
      take(stage->Push(EventBatch{in.data(), in.size()}));
    } else {
      for (const EventPtr& e : in) take(PushOne(stage, e));
    }
    take(stage->Flush());
    return out;
  };
  const auto by_ts = [](const Event* a, const Event* b) {
    return a->timestamp() < b->timestamp();
  };

  // Disorder within the slack: identical sequences, nothing dropped.
  const std::vector<EventPtr> within = Shuffled(sorted, 10, 7);
  ReorderStage one_a(12), span_a(12);
  const auto one = released(&one_a, within, false);
  const auto span = released(&span_a, within, true);
  EXPECT_EQ(span, one);
  EXPECT_TRUE(std::is_sorted(span.begin(), span.end(), by_ts));
  EXPECT_EQ(span.size(), within.size());
  EXPECT_EQ(one_a.late_dropped(), 0u);
  EXPECT_EQ(span_a.late_dropped(), 0u);

  // Disorder beyond the slack: the span drops no more, and everything
  // the event-by-event stage released is released in the same order.
  const std::vector<EventPtr> beyond = Shuffled(sorted, 40, 8);
  ReorderStage one_b(5), span_b(5);
  const auto one_late = released(&one_b, beyond, false);
  const auto span_late = released(&span_b, beyond, true);
  EXPECT_GT(one_b.late_dropped(), 0u);
  EXPECT_LE(span_b.late_dropped(), one_b.late_dropped());
  EXPECT_EQ(span_late.size() + span_b.late_dropped(), beyond.size());
  EXPECT_TRUE(std::is_sorted(span_late.begin(), span_late.end(), by_ts));
  EXPECT_TRUE(std::includes(span_late.begin(), span_late.end(),
                            one_late.begin(), one_late.end(), by_ts));
}

constexpr char kAbc[] =
    "PATTERN A;B;C WHERE A.name='A' AND B.name='B' AND C.name='C' "
    "WITHIN 20";
constexpr char kAb[] =
    "PATTERN A;B WHERE A.name='A' AND B.name='B' WITHIN 20";

TEST(EngineReorder, SlackRecoversShuffledStreamExactly) {
  const PatternPtr p = MustAnalyze(kAbc);
  Random rng(6);
  std::vector<EventPtr> sorted;
  Timestamp ts = 0;
  for (int i = 0; i < 400; ++i) {
    ts += rng.Uniform(3);
    const char* names[] = {"A", "B", "C"};
    sorted.push_back(Stock(names[rng.Uniform(3)], rng.Uniform(50), ts));
  }
  const auto baseline = RunPlan(p, LeftDeepPlan(*p), sorted);
  ASSERT_FALSE(baseline.empty());

  const auto shuffled = Shuffled(sorted, 10, 7);
  CompileOptions options;
  options.strategy = PlanStrategy::kLeftDeep;
  options.reorder_slack = 12;  // > max disorder
  uint64_t late = 1;
  const auto reordered = RunQuery(kAbc, shuffled, options, &late);
  EXPECT_EQ(reordered, baseline);
  EXPECT_EQ(late, 0u);
}

TEST(EngineReorder, WithoutSlackLateEventsAreDroppedNotCorrupting) {
  ZStream zs(StockSchema());
  auto query = zs.Compile(kAb);
  ASSERT_TRUE(query.ok()) << query.status();
  (*query)->Push(Stock("A", 1, 10));
  (*query)->Push(Stock("B", 1, 5));  // out of order: dropped
  (*query)->Push(Stock("B", 1, 12));
  (*query)->Finish();
  EXPECT_EQ((*query)->late_events(), 1u);
  EXPECT_EQ((*query)->num_matches(), 1u);  // (10, 12) only
  EXPECT_NE((*query)->ExplainAnalyze().find(" late=1"), std::string::npos);
}

TEST(EngineReorder, SlackDelaysButFinishFlushes) {
  ZStream zs(StockSchema());
  CompileOptions options;
  options.reorder_slack = 100;
  options.engine.batch_size = 1;
  auto query = zs.Compile(kAb, options);
  ASSERT_TRUE(query.ok()) << query.status();
  (*query)->Push(Stock("A", 1, 1));
  (*query)->Push(Stock("B", 1, 2));
  // Everything is still pending inside the reorder stage.
  EXPECT_EQ((*query)->num_matches(), 0u);
  (*query)->Finish();
  EXPECT_EQ((*query)->num_matches(), 1u);
}

// Drops by the query's ingress stage are late events of the query: they
// show in late_events() and in EXPLAIN ANALYZE's `late=`.
TEST(EngineReorder, StageDropsShowInExplainAnalyze) {
  ZStream zs(StockSchema());
  CompileOptions options;
  options.reorder_slack = 2;
  auto query = zs.Compile(kAb, options);
  ASSERT_TRUE(query.ok()) << query.status();
  (*query)->Push(Stock("A", 1, 10));
  (*query)->Push(Stock("B", 1, 13));  // releases <= 11
  (*query)->Push(Stock("B", 1, 9));   // beyond the slack: dropped
  (*query)->Finish();
  EXPECT_EQ((*query)->late_events(), 1u);
  EXPECT_EQ((*query)->num_matches(), 1u);  // (10, 13)
  EXPECT_NE((*query)->ExplainAnalyze().find(" late=1"), std::string::npos);
}

}  // namespace
}  // namespace zstream
