// Keyed (hash-partitioned) patterns on the single Engine: every pairing
// operator against the oracle and against partition detection off,
// null-key admission, plan switches that keep the leaf key indexes, and
// bounded state under key churn. The PartitionedEngine.* cases were
// written for the former per-key engine and keep their match-set
// assertions on the folded one.
#include <random>

#include "test_util.h"
#include "testing/differential.h"
#include "testing/oracle.h"
#include "workload/stock_gen.h"

namespace zstream::testing {
namespace {

constexpr char kQuery[] =
    "PATTERN A;B WHERE A.name = B.name AND A.price < B.price WITHIN 100";

std::unique_ptr<Engine> MakeEngine(const PatternPtr& p,
                                   const PhysicalPlan& plan,
                                   EngineOptions options = {}) {
  auto engine = Engine::Create(p, plan, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(*engine);
}

// Regression: the callback is installed BEFORE any event arrives, so
// every key first appears after it; each must still deliver.
TEST(PartitionedEngine, PartitionsCreatedAfterCallbackInheritIt) {
  const PatternPtr p = MustAnalyze(kQuery);
  ASSERT_TRUE(p->partition.has_value());
  auto engine = MakeEngine(p, LeftDeepPlan(*p));

  uint64_t delivered = 0;
  engine->SetMatchCallback([&](Match&&) { ++delivered; });
  ASSERT_EQ(engine->num_partitions(), 0u);  // no key has state yet

  for (int k = 0; k < 4; ++k) {
    const std::string name = "SYM" + std::to_string(k);
    engine->Push(Stock(name, 10.0, 4 * k));
    engine->Push(Stock(name, 20.0, 4 * k + 1));
  }
  engine->Finish();

  EXPECT_EQ(engine->num_partitions(), 4u);  // all inside the window
  EXPECT_EQ(engine->num_matches(), 4u);
  EXPECT_EQ(delivered, engine->num_matches());
}

// Clearing the callback must also apply to keys first seen later.
TEST(PartitionedEngine, ClearedCallbackAppliesToNewPartitions) {
  const PatternPtr p = MustAnalyze(kQuery);
  EngineOptions options;
  options.batch_size = 1;  // deliver X's match before the clear below
  auto engine = MakeEngine(p, LeftDeepPlan(*p), options);

  uint64_t delivered = 0;
  engine->SetMatchCallback([&](Match&&) { ++delivered; });
  engine->Push(Stock("X", 10.0, 0));
  engine->Push(Stock("X", 20.0, 1));
  engine->SetMatchCallback(nullptr);
  engine->Push(Stock("Y", 10.0, 2));  // key first seen after clearing
  engine->Push(Stock("Y", 20.0, 3));
  engine->Finish();

  EXPECT_EQ(engine->num_matches(), 2u);
  EXPECT_EQ(delivered, 1u);  // only X's match, before the clear
}

TEST(PartitionedEngine, SwitchPlanPreservesMatchSetAcrossPartitions) {
  const PatternPtr p = MustAnalyze(
      "PATTERN A;B;C WHERE A.name = B.name AND B.name = C.name "
      "AND A.price < B.price AND B.price < C.price WITHIN 100");
  StockGenOptions gen;
  gen.names = {"S0", "S1", "S2", "S3"};
  gen.weights = {1.0, 1.0, 1.0, 1.0};
  gen.num_events = 4000;
  gen.seed = 11;
  const auto events = GenerateStockTrades(gen);

  // Baseline: left-deep throughout.
  std::vector<std::string> expected;
  {
    auto base = MakeEngine(p, LeftDeepPlan(*p));
    base->SetMatchCallback([&](Match&& m) { expected.push_back(MatchKey(m)); });
    for (const EventPtr& e : events) base->Push(e);
    base->Finish();
    std::sort(expected.begin(), expected.end());
  }
  ASSERT_FALSE(expected.empty());

  // Same trace with a mid-stream switch to right-deep for every key.
  auto engine = MakeEngine(p, LeftDeepPlan(*p));
  std::vector<std::string> keys;
  engine->SetMatchCallback([&](Match&& m) { keys.push_back(MatchKey(m)); });
  const size_t half = events.size() / 2;
  for (size_t i = 0; i < half; ++i) engine->Push(events[i]);
  ASSERT_TRUE(engine->SwitchPlan(RightDeepPlan(*p)).ok());
  EXPECT_EQ(engine->plan_switches(), 1u);
  for (size_t i = half; i < events.size(); ++i) engine->Push(events[i]);
  engine->Finish();
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, expected);
}

TEST(PartitionedEngine, StatsSnapshotMergesPartitionStats) {
  // Leaf predicates split the price range 10%/90%, so the windowed
  // stats over all keys must report class A well below class B.
  const PatternPtr p = MustAnalyze(
      "PATTERN A;B WHERE A.name = B.name AND A.price > 90 "
      "AND B.price <= 90 WITHIN 100");
  EngineOptions options;
  options.collect_stats = true;
  auto engine = MakeEngine(p, LeftDeepPlan(*p), options);

  StockGenOptions gen;
  gen.names = {"S0", "S1", "S2"};
  gen.weights = {1.0, 1.0, 1.0};
  gen.num_events = 6000;
  gen.seed = 21;
  for (const EventPtr& e : GenerateStockTrades(gen)) engine->Push(e);
  engine->Finish();

  const StatsCatalog defaults(p->num_classes(),
                              static_cast<double>(p->window));
  const StatsCatalog merged = engine->StatsSnapshot(defaults);
  EXPECT_GT(merged.rate(1), merged.rate(0) * 4);
}

TEST(MergeStatsCatalogs, RatesSumAndSelectivitiesAverage) {
  StatsCatalog a(2, 100.0), b(2, 100.0);
  a.set_rate(0, 1.0);
  a.set_rate(1, 3.0);
  b.set_rate(0, 2.0);
  b.set_rate(1, 5.0);
  a.SetPairSel(0, 1, 0.2);
  b.SetPairSel(0, 1, 0.6);
  // Weights 1:3 -> selectivity 0.2*0.25 + 0.6*0.75 = 0.5; rates sum.
  const StatsCatalog merged = MergeStatsCatalogs({a, b}, {1.0, 3.0});
  EXPECT_DOUBLE_EQ(merged.rate(0), 3.0);
  EXPECT_DOUBLE_EQ(merged.rate(1), 8.0);
  EXPECT_DOUBLE_EQ(merged.PairSel(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(merged.window(), 100.0);
}

// Regression (zstream_fuzz): the reorder slack used to be ignored on the
// partitioned path. The query's ingress reorder stage sits before leaf
// admission, so both same-key and cross-key disorder within the slack
// is absorbed.
TEST(PartitionedEngine, ReorderSlackAppliesBeforeRouting) {
  ZStream zs(StockSchema());
  CompileOptions options;
  options.strategy = PlanStrategy::kLeftDeep;
  options.reorder_slack = 10;
  auto query = zs.Compile(kQuery, options);
  ASSERT_TRUE(query.ok()) << query.status();
  ASSERT_TRUE((*query)->partitioned());
  uint64_t delivered = 0;
  (*query)->SetMatchCallback([&](Match&&) { ++delivered; });

  // Same key, out of order: @2 used to be dropped as late.
  (*query)->Push(Stock("SYM0", 20.0, 9));
  (*query)->Push(Stock("SYM0", 10.0, 2));
  // Cross-key interleaving, also out of order.
  (*query)->Push(Stock("SYM1", 20.0, 8));
  (*query)->Push(Stock("SYM1", 10.0, 3));
  (*query)->Finish();

  EXPECT_EQ((*query)->late_events(), 0u);
  EXPECT_EQ(delivered, 2u);  // (10@2, 20@9) and (10@3, 20@8)
}

// ---------------------------------------------------------------------
// Every pairing operator under a partition key, against the oracle.
// ---------------------------------------------------------------------

PhysNodePtr L(int c) { return PhysNode::Leaf(c); }

struct KeyedCase {
  std::string name;
  std::string query;
  /// The plan under test and an alternative for the mid-stream switch.
  PhysNodePtr plan;
  PhysNodePtr alt;
  /// Check against the oracle in one assembly round after a sentinel
  /// past the window (see the NSEQ-neg-right case).
  bool single_round = false;
};

/// Classes are told apart by volume (A=1, B=2, C=3); every class shares
/// the partition key `name`, drawn from three symbols.
std::vector<EventPtr> KeyedTrace(uint64_t seed, int n) {
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

std::vector<std::string> EngineKeys(const PatternPtr& p,
                                    const PhysicalPlan& plan,
                                    const std::vector<EventPtr>& events,
                                    EngineOptions options,
                                    const PhysNodePtr& switch_to = nullptr,
                                    bool batched = false) {
  auto engine = Engine::Create(p, plan, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  if (!engine.ok()) return {};
  std::vector<std::string> keys;
  (*engine)->SetMatchCallback(
      [&](Match&& m) { keys.push_back(EngineMatchKey(*p, m)); });
  const size_t half = switch_to != nullptr ? events.size() / 2 : 0;
  for (size_t i = 0; i < half; ++i) (*engine)->Push(events[i]);
  if (switch_to != nullptr) {
    EXPECT_TRUE((*engine)->SwitchPlan(PhysicalPlan{switch_to, 0.0}).ok());
  }
  if (batched) {
    (*engine)->PushBatch(EventBatch{events.data() + half,
                                    events.size() - half});
  } else {
    for (size_t i = half; i < events.size(); ++i) (*engine)->Push(events[i]);
  }
  (*engine)->Finish();
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(KeyedEngine, EveryOperatorMatchesOracleAndUnkeyedPlan) {
  const std::string abc =
      " A.name = B.name AND B.name = C.name AND A.volume = 1 "
      "AND B.volume = 2 AND C.volume = 3 ";
  const std::vector<KeyedCase> cases = {
      {"SEQ", "PATTERN A;B;C WHERE" + abc + "AND A.price < C.price WITHIN 12",
       PhysNode::Seq(PhysNode::Seq(L(0), L(1)), L(2)),
       PhysNode::Seq(L(0), PhysNode::Seq(L(1), L(2)))},
      {"CONJ", "PATTERN (A & B);C WHERE" + abc + "WITHIN 12",
       PhysNode::Seq(PhysNode::Conj(L(0), L(1)), L(2)), nullptr},
      {"DISJ",
       "PATTERN A;(B|C) WHERE A.name = B.name AND A.name = C.name "
       "AND A.volume = 1 AND B.volume = 2 AND C.volume = 3 WITHIN 12",
       PhysNode::Seq(L(0), PhysNode::Disj(L(1), L(2))), nullptr},
      {"NSEQ-neg-left", "PATTERN A;!B;C WHERE" + abc + "WITHIN 12",
       PhysNode::Seq(L(0), PhysNode::NSeq(L(1), L(2), /*neg_left=*/true)),
       PhysNode::NegFilter(PhysNode::Seq(L(0), L(2)), 1)},
      // A negator-right NSEQ holds each record until no negator can
      // still arrive, and its parent SEQ consumes the triggers that came
      // meanwhile: mid-stream rounds lose those matches, keyed or not
      // (the planner never emits this shape). One round after a sentinel
      // releases every hold first, so the oracle comparison runs there;
      // every batch size is still compared with the unkeyed engine.
      {"NSEQ-neg-right",
       "PATTERN A;!B;C WHERE A.name = B.name AND A.name = C.name "
       "AND A.volume = 1 AND B.volume = 2 AND C.volume = 3 WITHIN 12",
       PhysNode::Seq(PhysNode::NSeq(L(1), L(0), /*neg_left=*/false), L(2)),
       nullptr, /*single_round=*/true},
      {"NEG-filter", "PATTERN A;!B;C WHERE" + abc + "WITHIN 12",
       PhysNode::NegFilter(PhysNode::Seq(L(0), L(2)), 1),
       PhysNode::Seq(L(0), PhysNode::NSeq(L(1), L(2), /*neg_left=*/true))},
      {"KSEQ", "PATTERN A;B+;C WHERE" + abc + "WITHIN 12",
       PhysNode::KSeq(L(0), L(1), L(2)), nullptr},
  };
  AnalyzerOptions no_part;
  no_part.detect_partition = false;
  for (const KeyedCase& c : cases) {
    SCOPED_TRACE(c.name);
    const PatternPtr p = MustAnalyze(c.query);
    ASSERT_TRUE(p->partition.has_value());
    const PhysicalPlan plan{c.plan, 0.0};
    auto events = KeyedTrace(7, 400);
    if (c.single_round) {
      // Admitted by no class (volume 4); lifts the horizon past every
      // record's window.
      events.push_back(
          Stock("X", 0.0, events.back()->timestamp() + p->window + 1, 4));
    }
    auto oracle = Oracle::Create(p);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    const std::vector<std::string> expected = (*oracle)->Run(events);
    ASSERT_FALSE(expected.empty());

    const PatternPtr flat = MustAnalyze(c.query, no_part);
    ASSERT_FALSE(flat->partition.has_value());
    const bool flat_compiles = Engine::Create(flat, plan).ok();
    const std::vector<int> batches =
        c.single_round ? std::vector<int>{1 << 20} : std::vector<int>{1, 64};
    for (const bool use_index : {true, false}) {
      if (c.single_round && flat_compiles) {
        for (const int batch : {1, 64}) {
          EngineOptions options;
          options.use_hash_indexes = use_index;
          options.batch_size = batch;
          EXPECT_EQ(EngineKeys(p, plan, events, options),
                    EngineKeys(flat, plan, events, options));
        }
      }
      for (const int batch : batches) {
        EngineOptions options;
        options.use_hash_indexes = use_index;
        options.batch_size = batch;
        SCOPED_TRACE("use_hash_indexes=" + std::to_string(use_index) +
                     " batch_size=" + std::to_string(batch));
        EXPECT_EQ(EngineKeys(p, plan, events, options), expected);
        EXPECT_EQ(EngineKeys(p, plan, events, options, nullptr,
                             /*batched=*/true),
                  expected);
        if (c.alt != nullptr) {
          // Mid-stream switch: the leaf key indexes survive the rebuild.
          EXPECT_EQ(EngineKeys(p, plan, events, options, c.alt), expected);
        }
      }
    }

    // Partition detection off: the equalities are ordinary predicates.
    // Not every shape compiles that way (an NSEQ cannot evaluate a
    // negated class's equality with a class outside its operands).
    if (flat_compiles) {
      EngineOptions options;
      options.batch_size = batches.back();
      EXPECT_EQ(EngineKeys(flat, plan, events, options), expected);
    }
  }
}

// A null key belongs to no partition: leaf admission rejects it, but
// the event is still counted, so EXPLAIN ANALYZE accounts for it.
TEST(KeyedEngine, NullKeyEventsAreCountedAndRejectedAtAdmission) {
  const PatternPtr p = MustAnalyze(kQuery);
  for (const bool batched : {false, true}) {
    auto engine = MakeEngine(p, LeftDeepPlan(*p));
    const EventPtr keyless = EventBuilder(StockSchema())
                                 .Set("price", 5.0)
                                 .At(1)
                                 .Build();
    ASSERT_TRUE(keyless->value(StockSchema()->FieldIndex("name")).is_null());
    const std::vector<EventPtr> events = {Stock("X", 1.0, 0), keyless,
                                          Stock("X", 9.0, 2)};
    if (batched) {
      engine->PushBatch(EventBatch{events.data(), events.size()});
    } else {
      for (const EventPtr& e : events) engine->Push(e);
    }
    engine->Finish();

    EXPECT_EQ(engine->events_pushed(), 3u);
    EXPECT_EQ(engine->num_matches(), 1u);  // (1@0, 9@2); keyless unpaired
    const NodeProfile profile = engine->Profile();
    ASSERT_EQ(profile.children.size(), 2u);
    for (const NodeProfile& leaf : profile.children) {
      EXPECT_EQ(leaf.events_in, 3u);   // offered, null key included
      EXPECT_EQ(leaf.records_out, 2u);  // admitted: keyed events only
    }
    EXPECT_NE(engine->ExplainAnalyze().find("events_pushed=3"),
              std::string::npos);
    EXPECT_EQ(engine->num_partitions(), 1u);
  }
}

// ---------------------------------------------------------------------
// Bounded keyed state under key churn (paper Query 2's shape).
// ---------------------------------------------------------------------

struct ChurnResult {
  int64_t peak_bytes = 0;
  size_t live_keys_at_end = 0;
  size_t keys_in_last_window = 0;
  uint64_t matches = 0;
};

/// `keys` distinct names, three rising-price trades each (one match per
/// key), one trade per time unit. Events are generated and pushed in
/// chunks, so the test's own footprint stays flat.
ChurnResult RunChurn(int64_t keys) {
  constexpr Duration kWindow = 200;
  const PatternPtr p = MustAnalyze(
      "PATTERN A;B;C WHERE A.name = B.name AND B.name = C.name "
      "AND A.price < B.price AND B.price < C.price WITHIN 200");
  EXPECT_EQ(p->window, kWindow);
  auto engine = MakeEngine(p, LeftDeepPlan(*p));
  const SchemaPtr schema = StockSchema();
  const size_t name_idx = static_cast<size_t>(schema->FieldIndex("name"));
  const size_t price_idx = static_cast<size_t>(schema->FieldIndex("price"));
  std::vector<EventPtr> chunk;
  const int64_t total = 3 * keys;
  for (int64_t i = 0; i < total; ++i) {
    std::string name = "K";
    name += std::to_string(i / 3);
    std::vector<Value> values(static_cast<size_t>(schema->num_fields()));
    values[name_idx] = Value(std::move(name));
    values[price_idx] = Value(static_cast<double>(i % 3));
    chunk.push_back(std::make_shared<Event>(schema, std::move(values), i));
    if (chunk.size() == 1024 || i + 1 == total) {
      engine->PushBatch(EventBatch{chunk.data(), chunk.size()});
      chunk.clear();
    }
  }
  engine->Finish();
  ChurnResult r;
  r.peak_bytes = engine->memory().peak_bytes();
  r.live_keys_at_end = engine->num_partitions();
  // Keys with a trade inside the last window [max_ts - WITHIN, max_ts].
  const int64_t max_ts = total - 1;
  r.keys_in_last_window = static_cast<size_t>(
      (max_ts / 3) - std::max<int64_t>(0, max_ts - kWindow) / 3 + 1);
  r.matches = engine->num_matches();
  return r;
}

// The former per-key engine grew linearly with keys ever seen (~15 KB
// tracked per key). Folded, peak state tracks window occupancy: a
// hundred times more keys must not move the peak, and the keys with
// state at the end are only those inside the last window.
TEST(KeyedEngine, StateStaysBoundedUnderKeyChurn) {
  const ChurnResult small = RunChurn(10000);
  const ChurnResult large = RunChurn(1000000);
  EXPECT_EQ(small.matches, 10000u);
  EXPECT_EQ(large.matches, 1000000u);
  ASSERT_GT(small.peak_bytes, 0);
  EXPECT_LE(static_cast<double>(large.peak_bytes),
            1.25 * static_cast<double>(small.peak_bytes))
      << "peak tracked bytes: 10k keys " << small.peak_bytes << ", 1M keys "
      << large.peak_bytes;
  EXPECT_LE(large.live_keys_at_end, large.keys_in_last_window);
  EXPECT_GT(large.live_keys_at_end, 0u);
}

}  // namespace
}  // namespace zstream::testing
