// Engine-level behaviour: the batch-iterator model, EAT purging and
// memory bounds, plan switching mid-stream, projections, statistics.
#include <gtest/gtest.h>

#include "test_util.h"

namespace zstream {
namespace {

using testing::MatchKey;
using testing::MustAnalyze;
using testing::RunPlan;
using testing::Stock;

constexpr char kSeq3[] =
    "PATTERN A;B;C WHERE A.name='A' AND B.name='B' AND C.name='C' "
    "WITHIN 20";

std::vector<EventPtr> RandomStream(int n, uint64_t seed,
                                   std::vector<std::string> names = {
                                       "A", "B", "C"}) {
  Random rng(seed);
  std::vector<EventPtr> events;
  Timestamp ts = 0;
  for (int i = 0; i < n; ++i) {
    ts += static_cast<Timestamp>(rng.Uniform(3));
    events.push_back(
        Stock(names[rng.Uniform(names.size())], rng.Uniform(100), ts));
  }
  return events;
}

TEST(Engine, BatchSizeDoesNotChangeResults) {
  const PatternPtr p = MustAnalyze(kSeq3);
  const auto events = RandomStream(500, 17);
  EngineOptions small;
  small.batch_size = 1;
  EngineOptions medium;
  medium.batch_size = 7;
  EngineOptions large;
  large.batch_size = 256;
  const auto a = RunPlan(p, LeftDeepPlan(*p), events, small);
  const auto b = RunPlan(p, LeftDeepPlan(*p), events, medium);
  const auto c = RunPlan(p, LeftDeepPlan(*p), events, large);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_FALSE(a.empty());
}

TEST(Engine, MemoryBoundedByWindowNotStreamLength) {
  const PatternPtr p = MustAnalyze(kSeq3);
  auto run = [&](int n) {
    auto engine = Engine::Create(p, LeftDeepPlan(*p));
    for (const auto& e : RandomStream(n, 5)) (*engine)->Push(e);
    (*engine)->Finish();
    return (*engine)->memory().peak_bytes();
  };
  const int64_t peak_small = run(2000);
  const int64_t peak_large = run(20000);
  // 10x the stream should not come close to 10x the memory.
  EXPECT_LT(peak_large, peak_small * 3);
}

TEST(Engine, FinishFlushesPendingBatch) {
  const PatternPtr p = MustAnalyze(
      "PATTERN A;B WHERE A.name='A' AND B.name='B' WITHIN 10");
  EngineOptions options;
  options.batch_size = 1000;  // never auto-triggers
  auto engine = Engine::Create(p, LeftDeepPlan(*p), options);
  (*engine)->Push(Stock("A", 1, 1));
  (*engine)->Push(Stock("B", 1, 2));
  EXPECT_EQ((*engine)->num_matches(), 0u);
  (*engine)->Finish();
  EXPECT_EQ((*engine)->num_matches(), 1u);
}

TEST(Engine, PlanSwitchPreservesMatchSet) {
  const PatternPtr p = MustAnalyze(kSeq3);
  const auto events = RandomStream(600, 23);

  const auto baseline = RunPlan(p, LeftDeepPlan(*p), events);

  // Same stream, but switch from left-deep to right-deep part-way.
  auto engine = Engine::Create(p, LeftDeepPlan(*p));
  std::vector<std::string> keys;
  (*engine)->SetMatchCallback([&](Match&& m) { keys.push_back(MatchKey(m)); });
  for (size_t i = 0; i < events.size(); ++i) {
    if (i == events.size() / 2) {
      ASSERT_TRUE((*engine)->SwitchPlan(RightDeepPlan(*p)).ok());
    }
    (*engine)->Push(events[i]);
  }
  (*engine)->Finish();
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, baseline);
  EXPECT_EQ((*engine)->plan_switches(), 1u);
}

TEST(Engine, RepeatedPlanSwitchesStayCorrect) {
  const PatternPtr p = MustAnalyze(kSeq3);
  const auto events = RandomStream(600, 29);
  const auto baseline = RunPlan(p, LeftDeepPlan(*p), events);

  auto engine = Engine::Create(p, RightDeepPlan(*p));
  std::vector<std::string> keys;
  (*engine)->SetMatchCallback([&](Match&& m) { keys.push_back(MatchKey(m)); });
  const PhysicalPlan plans[] = {LeftDeepPlan(*p), RightDeepPlan(*p)};
  for (size_t i = 0; i < events.size(); ++i) {
    if (i % 97 == 96) {
      ASSERT_TRUE((*engine)->SwitchPlan(plans[(i / 97) % 2]).ok());
    }
    (*engine)->Push(events[i]);
  }
  (*engine)->Finish();
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, baseline);
}

TEST(Engine, ProjectionEvaluatesReturnClause) {
  const PatternPtr p = MustAnalyze(
      "PATTERN A;B WHERE A.name='A' AND B.name='B' WITHIN 10 "
      "RETURN A.price, B.price, A.price - B.price");
  auto engine = Engine::Create(p, LeftDeepPlan(*p));
  std::vector<std::vector<Value>> rows;
  (*engine)->SetMatchCallback(
      [&](Match&& m) { rows.push_back(ProjectMatch(*p, m)); });
  (*engine)->Push(Stock("A", 30, 1));
  (*engine)->Push(Stock("B", 12, 2));
  (*engine)->Finish();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0][0].AsDouble(), 30.0);
  EXPECT_DOUBLE_EQ(rows[0][1].AsDouble(), 12.0);
  EXPECT_DOUBLE_EQ(rows[0][2].AsDouble(), 18.0);
}

TEST(Engine, WindowedStatsTrackRatesAndSelectivities) {
  const PatternPtr p = MustAnalyze(
      "PATTERN A;B WHERE A.name='A' AND B.name='B' AND A.price > B.price "
      "WITHIN 50");
  EngineOptions options;
  options.collect_stats = true;
  auto engine = Engine::Create(p, LeftDeepPlan(*p), options);
  Random rng(31);
  for (int i = 0; i < 4000; ++i) {
    // A twice as frequent as B.
    (*engine)->Push(Stock(rng.Bernoulli(2.0 / 3.0) ? "A" : "B",
                          rng.Uniform(100), i));
  }
  (*engine)->Finish();
  ASSERT_NE((*engine)->windowed_stats(), nullptr);
  const StatsCatalog defaults(2, 50.0);
  const StatsCatalog snap =
      (*engine)->windowed_stats()->Snapshot(*p, defaults);
  EXPECT_NEAR(snap.rate(0) / snap.rate(1), 2.0, 0.5);
  // Uniform independent prices: P(A.price > B.price) ~ 0.5.
  EXPECT_NEAR(snap.PairSel(0, 1), 0.5, 0.15);
}

TEST(Engine, PartitionedEngineMatchesSingleEngineSemantics) {
  // T1;T2 with full-coverage name equality: keyed execution (pairing by
  // partition key, with and without the key index) must produce the
  // same matches as an unkeyed engine evaluating the equality predicate
  // directly.
  const std::string query =
      "PATTERN T1;T2 WHERE T1.name = T2.name WITHIN 50";
  AnalyzerOptions no_part;
  no_part.detect_partition = false;
  const PatternPtr direct = MustAnalyze(query, no_part);
  const PatternPtr parted = MustAnalyze(query);
  ASSERT_TRUE(parted->partition.has_value());

  const auto events = RandomStream(400, 41, {"X", "Y", "Z"});
  const auto baseline = RunPlan(direct, LeftDeepPlan(*direct), events);
  ASSERT_FALSE(baseline.empty());

  for (const bool use_index : {true, false}) {
    EngineOptions options;
    options.use_hash_indexes = use_index;
    auto engine = Engine::Create(parted, LeftDeepPlan(*parted), options);
    ASSERT_TRUE(engine.ok());
    std::vector<std::string> keys;
    (*engine)->SetMatchCallback(
        [&](Match&& m) { keys.push_back(MatchKey(m)); });
    for (size_t i = 0; i < events.size(); ++i) {
      (*engine)->Push(events[i]);
      // Mid-stream, all three keys hold live state.
      if (i == events.size() / 2) {
        EXPECT_GT((*engine)->num_partitions(), 1u);
      }
    }
    (*engine)->Finish();
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(keys, baseline) << "use_hash_indexes=" << use_index;
  }
}

// Regression (zstream_fuzz case: E0;(E1|E2) with E0.grp = E1.grp): hash
// routing an equality whose class sits in a disjunction branch loses
// the other branch's matches — its records are never indexed under any
// key, and probes for them never ran. Such equalities must not be hash
// routed; with and without hash indexes the match sets must agree.
TEST(Engine, DisjunctionBranchEqualityMatchesWithAndWithoutHash) {
  const PatternPtr p = MustAnalyze(
      "PATTERN A;(B|C) WHERE A.volume = 1 AND B.volume = 2 "
      "AND C.volume = 3 AND A.name = B.name WITHIN 10");
  const std::vector<EventPtr> events = {
      Stock("IBM", 1, 1, /*volume=*/1),
      Stock("Sun", 1, 2, /*volume=*/3),  // C branch: name pred vacuous
      Stock("Sun", 1, 3, /*volume=*/2),  // B branch: name mismatch
      Stock("IBM", 1, 4, /*volume=*/2),  // B branch: name matches
  };
  EngineOptions hash_on;
  EngineOptions hash_off;
  hash_off.use_hash_indexes = false;
  const auto with_hash = RunPlan(p, LeftDeepPlan(*p), events, hash_on);
  const auto without = RunPlan(p, LeftDeepPlan(*p), events, hash_off);
  EXPECT_EQ(with_hash, without);
  // (A@1, C@2) via the C branch and (A@1, B@4) via the B branch.
  EXPECT_EQ(with_hash.size(), 2u);
}

// Regression (zstream_fuzz): a non-aggregate predicate on the closure
// class that also references a class outside the KSEQ's operands can
// only attach above the KSEQ, where per-event qualification is
// impossible — it used to silently drop every match; now it is
// rejected as unsupported.
TEST(Engine, ClosurePredicateOutsideKseqOperandsIsRejected) {
  const PatternPtr p = MustAnalyze(
      "PATTERN A;B*;C;D WHERE A.volume = 1 AND B.volume = 2 "
      "AND C.volume = 3 AND D.volume = 4 AND B.price < D.price "
      "WITHIN 10");
  auto engine = Engine::Create(p, LeftDeepPlan(*p));
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kNotSupported);

  // The same predicate against the KSEQ's own operands is supported.
  const PatternPtr ok = MustAnalyze(
      "PATTERN A;B*;C;D WHERE A.volume = 1 AND B.volume = 2 "
      "AND C.volume = 3 AND D.volume = 4 AND B.price < C.price "
      "WITHIN 10");
  EXPECT_TRUE(Engine::Create(ok, LeftDeepPlan(*ok)).ok());
}

}  // namespace
}  // namespace zstream
