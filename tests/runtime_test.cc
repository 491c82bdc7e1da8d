// Concurrency tests for runtime::StreamRuntime (designed to run clean
// under ThreadSanitizer; the CI `thread` job builds this binary with
// -fsanitize=thread).
//
// The determinism tests compare the sharded runtime's match set — not
// just the count — against a single-threaded CompiledQuery on the same
// pre-recorded trace, using CanonicalMatchKey on both sides.
#include "runtime/stream_runtime.h"

#include <algorithm>
#include <random>
#include <sstream>
#include <thread>

#include "runtime/mpsc_queue.h"
#include "test_util.h"
#include "workload/driver.h"
#include "workload/stock_gen.h"
#include "workload/weblog_gen.h"

namespace zstream::testing {
namespace {

using runtime::BackpressurePolicy;
using runtime::CollectingMatchSink;
using runtime::MpscRingQueue;
using runtime::QueryId;
using runtime::QueryOptions;
using runtime::RoutePolicy;
using runtime::RuntimeOptions;
using runtime::StreamId;
using runtime::StreamRuntime;

// Paper Query 2's shape: three same-name trades with rising prices; the
// analyzer turns the name equalities into a partition key, which is the
// runtime's sharding axis.
constexpr char kPartitionedQuery[] =
    "PATTERN A;B;C WHERE A.name = B.name AND B.name = C.name "
    "AND A.price < B.price AND B.price < C.price WITHIN 100";

std::vector<EventPtr> ManyNameTrades(int64_t num_events, uint64_t seed) {
  StockGenOptions gen;
  gen.names.clear();
  gen.weights.clear();
  for (int i = 0; i < 16; ++i) {
    gen.names.push_back("SYM" + std::to_string(i));
    gen.weights.push_back(1.0);
  }
  gen.num_events = num_events;
  gen.seed = seed;
  return GenerateStockTrades(gen);
}

/// Single-threaded reference: match keys of `text` over `events`.
std::vector<std::string> SingleThreadedKeys(
    const SchemaPtr& schema, const std::string& text,
    const std::vector<EventPtr>& events) {
  ZStream zs(schema);
  auto query = zs.Compile(text);
  EXPECT_TRUE(query.ok()) << query.status();
  std::vector<std::string> keys;
  (*query)->SetMatchCallback([&](Match&& m) {
    keys.push_back(runtime::CanonicalMatchKey(m));
  });
  for (const EventPtr& e : events) (*query)->Push(e);
  (*query)->Finish();
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(MpscRingQueue, OrdersAndBounds) {
  MpscRingQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_TRUE(q.TryPush(3));
  EXPECT_TRUE(q.TryPush(4));
  EXPECT_FALSE(q.TryPush(5));  // full
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out, 3), 3u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(q.TryPush(6));
  EXPECT_EQ(q.PopBatch(&out, 10), 2u);
  EXPECT_EQ(out, (std::vector<int>{4, 6}));
  q.Close();
  EXPECT_FALSE(q.TryPush(7));
  EXPECT_EQ(q.PopBatch(&out, 10), 0u);  // closed and drained
}

TEST(MpscRingQueue, ManyProducersDeliverEverything) {
  MpscRingQueue<int> q(64);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.Push(p);
    });
  }
  int64_t got = 0;
  std::thread consumer([&] {
    std::vector<int> batch;
    while (q.PopBatch(&batch, 128) > 0) {
      got += static_cast<int64_t>(batch.size());
    }
  });
  for (auto& t : producers) t.join();
  q.Close();
  consumer.join();
  EXPECT_EQ(got, kProducers * kPerProducer);
}

TEST(StreamRuntime, ShardedStockMatchesEqualSingleThreaded) {
  const auto events = ManyNameTrades(20000, 99);
  const auto expected =
      SingleThreadedKeys(StockSchema(), kPartitionedQuery, events);
  ASSERT_FALSE(expected.empty());

  RuntimeOptions options;
  options.num_shards = 4;
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok()) << rt.status();
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());

  CollectingMatchSink sink;
  QueryOptions qopts;
  qopts.sink = &sink;
  auto id = (*rt)->RegisterQuery(*stream, kPartitionedQuery, {}, qopts);
  ASSERT_TRUE(id.ok()) << id.status();

  for (const EventPtr& e : events) {
    ASSERT_TRUE((*rt)->Ingest(*stream, e));
  }
  ASSERT_TRUE((*rt)->Flush().ok());

  EXPECT_EQ(sink.SortedKeys(), expected);
  auto matches = (*rt)->query_matches(*id);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(*matches, expected.size());
  auto shard_count = (*rt)->query_shard_count(*id);
  ASSERT_TRUE(shard_count.ok());
  EXPECT_EQ(*shard_count, 4);
  auto peak = (*rt)->query_peak_bytes(*id);
  ASSERT_TRUE(peak.ok());
  EXPECT_GT(*peak, 0);
}

TEST(StreamRuntime, IngestBatchEqualsSingleThreaded) {
  const auto events = ManyNameTrades(20000, 7);
  const auto expected =
      SingleThreadedKeys(StockSchema(), kPartitionedQuery, events);

  RuntimeOptions options;
  options.num_shards = 4;
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());
  CollectingMatchSink sink;
  QueryOptions qopts;
  qopts.sink = &sink;
  auto id = (*rt)->RegisterQuery(*stream, kPartitionedQuery, {}, qopts);
  ASSERT_TRUE(id.ok());

  EXPECT_EQ((*rt)->IngestBatch(*stream, events), 0u);
  ASSERT_TRUE((*rt)->Flush().ok());
  EXPECT_EQ(sink.SortedKeys(), expected);
}

TEST(StreamRuntime, MultiProducerKeyPartitionedPushIsExact) {
  const auto events = ManyNameTrades(20000, 123);
  const auto expected =
      SingleThreadedKeys(StockSchema(), kPartitionedQuery, events);
  ASSERT_FALSE(expected.empty());

  RuntimeOptions options;
  options.num_shards = 4;
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());
  CollectingMatchSink sink;
  QueryOptions qopts;
  qopts.sink = &sink;
  auto id = (*rt)->RegisterQuery(*stream, kPartitionedQuery, {}, qopts);
  ASSERT_TRUE(id.ok());

  // Four producers, each owning the symbols that hash to it. They split
  // with the router's own Value::Hash % 4, so each shard is fed by
  // exactly one producer and sees its stream in timestamp order: the
  // match set must be exact. (Producers that do not line up with the
  // shards: KeyedQueryWithMisalignedProducers below.)
  ConcurrentDriveOptions drive;
  drive.num_producers = 4;
  drive.partition_field = StockSchema()->FieldIndex("name");
  ASSERT_GE(drive.partition_field, 0);
  StreamRuntime* raw = rt->get();
  const StreamId sid = *stream;
  const auto result = DriveConcurrently(
      events, drive,
      [raw, sid](const EventPtr& e) { return raw->Ingest(sid, e); });
  EXPECT_EQ(result.rejected, 0u);
  ASSERT_TRUE((*rt)->Flush().ok());
  EXPECT_EQ(sink.SortedKeys(), expected);
}

// Three producers into two shards: the producers split the symbols by
// Value::Hash % 3, the router by Value::Hash % 2, so each shard
// interleaves several producers' streams. One engine per shard serves
// all of the shard's keys and needs its input in timestamp order, so the
// match set is exact with a reorder slack that covers the producers'
// skew; without one, events behind the engine's frontier are dropped and
// counted in RuntimeStats::late_dropped.
TEST(StreamRuntime, KeyedQueryWithMisalignedProducers) {
  const auto events = ManyNameTrades(20000, 321);
  const auto expected =
      SingleThreadedKeys(StockSchema(), kPartitionedQuery, events);
  ASSERT_FALSE(expected.empty());
  const int name_field = StockSchema()->FieldIndex("name");
  ASSERT_GE(name_field, 0);
  constexpr int kProducers = 3;
  constexpr int kShards = 2;

  {
    // Free-running producers can drift apart arbitrarily, so the slack
    // spans the whole trace.
    RuntimeOptions options;
    options.num_shards = kShards;
    options.reorder_slack =
        events.back()->timestamp() - events.front()->timestamp() + 1;
    auto rt = StreamRuntime::Create(options);
    ASSERT_TRUE(rt.ok());
    auto stream = (*rt)->AddStream("stock", StockSchema());
    ASSERT_TRUE(stream.ok());
    CollectingMatchSink sink;
    QueryOptions qopts;
    qopts.sink = &sink;
    ASSERT_TRUE((*rt)->RegisterQuery(*stream, kPartitionedQuery, {}, qopts)
                    .ok());
    ConcurrentDriveOptions drive;
    drive.num_producers = kProducers;
    drive.partition_field = name_field;
    StreamRuntime* raw = rt->get();
    const StreamId sid = *stream;
    const auto result = DriveConcurrently(
        events, drive,
        [raw, sid](const EventPtr& e) { return raw->Ingest(sid, e); });
    EXPECT_EQ(result.rejected, 0u);
    ASSERT_TRUE((*rt)->Flush().ok());
    EXPECT_EQ(sink.SortedKeys(), expected);
    EXPECT_EQ((*rt)->Stats().late_dropped, 0u);
  }

  {
    // No slack, and a fixed schedule: producer 0 pushes its whole share,
    // then producer 1, then producer 2. A shard's engine drops every
    // event older than one it has already seen, whatever its key.
    std::vector<std::vector<EventPtr>> shares(kProducers);
    uint64_t expected_late = 0;
    std::vector<Timestamp> frontier(kShards, kMinTimestamp);
    for (int p = 0; p < kProducers; ++p) {
      for (const EventPtr& e : events) {
        const size_t h = e->value(name_field).Hash();
        if (static_cast<int>(h % kProducers) != p) continue;
        shares[static_cast<size_t>(p)].push_back(e);
        Timestamp& max_ts = frontier[h % kShards];
        if (e->timestamp() < max_ts) {
          ++expected_late;
        } else {
          max_ts = e->timestamp();
        }
      }
    }
    ASSERT_GT(expected_late, 0u);

    RuntimeOptions options;
    options.num_shards = kShards;
    auto rt = StreamRuntime::Create(options);
    ASSERT_TRUE(rt.ok());
    auto stream = (*rt)->AddStream("stock", StockSchema());
    ASSERT_TRUE(stream.ok());
    CollectingMatchSink sink;
    QueryOptions qopts;
    qopts.sink = &sink;
    ASSERT_TRUE((*rt)->RegisterQuery(*stream, kPartitionedQuery, {}, qopts)
                    .ok());
    for (const auto& share : shares) {
      EXPECT_EQ((*rt)->IngestBatch(*stream, share), 0u);
    }
    ASSERT_TRUE((*rt)->Flush().ok());

    const runtime::RuntimeStats stats = (*rt)->Stats();
    EXPECT_EQ(stats.late_dropped, expected_late);
    uint64_t per_shard = 0;
    for (const auto& s : stats.shards) per_shard += s.late_dropped;
    EXPECT_EQ(per_shard, expected_late);
    // The Prometheus counter carries the same per-shard totals.
    uint64_t scraped = 0;
    std::istringstream metrics((*rt)->MetricsPrometheus());
    for (std::string line; std::getline(metrics, line);) {
      if (line.rfind("zstream_shard_reorder_late_total{", 0) != 0) continue;
      scraped += std::stoull(line.substr(line.rfind(' ') + 1));
    }
    EXPECT_EQ(scraped, expected_late);
    // The drops lose matches (this query has no negation, so what is
    // left is a strict subset of the exact set).
    const auto got = sink.SortedKeys();
    EXPECT_LT(got.size(), expected.size());
    EXPECT_TRUE(std::includes(expected.begin(), expected.end(), got.begin(),
                              got.end()));
  }
}

TEST(StreamRuntime, WebLogQuery8MatchesEqualSingleThreaded) {
  constexpr char kQuery8[] =
      "PATTERN Pub;Proj;Course "
      "WHERE Pub.category='publication' AND Proj.category='project' "
      "AND Course.category='course' "
      "AND Pub.ip = Proj.ip = Course.ip "
      "WITHIN 10 hours";
  WebLogGenOptions gen;
  gen.total_records = 120000;
  gen.publication_accesses = 550;
  gen.project_accesses = 930;
  gen.course_accesses = 1290;
  gen.num_ips = 120;
  gen.num_burst_ips = 2;
  const auto events = GenerateWebLog(gen);
  const auto expected = SingleThreadedKeys(WebLogSchema(), kQuery8, events);
  ASSERT_FALSE(expected.empty());

  RuntimeOptions options;
  options.num_shards = 4;
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("weblog", WebLogSchema());
  ASSERT_TRUE(stream.ok());
  CollectingMatchSink sink;
  QueryOptions qopts;
  qopts.sink = &sink;
  auto id = (*rt)->RegisterQuery(*stream, kQuery8, {}, qopts);
  ASSERT_TRUE(id.ok()) << id.status();

  EXPECT_EQ((*rt)->IngestBatch(*stream, events), 0u);
  ASSERT_TRUE((*rt)->Flush().ok());
  EXPECT_EQ(sink.SortedKeys(), expected);
}

TEST(StreamRuntime, RegisterUnregisterWhileIngesting) {
  const auto events = ManyNameTrades(30000, 5);
  const auto expected =
      SingleThreadedKeys(StockSchema(), kPartitionedQuery, events);

  RuntimeOptions options;
  options.num_shards = 4;
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());

  CollectingMatchSink sink;
  QueryOptions qopts;
  qopts.sink = &sink;
  auto primary = (*rt)->RegisterQuery(*stream, kPartitionedQuery, {}, qopts);
  ASSERT_TRUE(primary.ok());

  StreamRuntime* raw = rt->get();
  const StreamId sid = *stream;
  std::thread producer([raw, sid, &events] {
    for (const EventPtr& e : events) raw->Ingest(sid, e);
  });

  // Churn secondary queries (one keyless/pinned, one broadcast) while
  // the producer runs; their counts depend on registration timing, but
  // the primary query's match set must stay exact and nothing may race.
  constexpr char kKeyless[] =
      "PATTERN X;Y WHERE X.name = 'SYM0' AND Y.name = 'SYM1' "
      "AND X.price > Y.price WITHIN 20";
  for (int round = 0; round < 5; ++round) {
    auto secondary = (*rt)->RegisterQuery(*stream, kKeyless);
    ASSERT_TRUE(secondary.ok()) << secondary.status();
    QueryOptions broadcast;
    broadcast.route = RoutePolicy::kBroadcast;
    auto tertiary = (*rt)->RegisterQuery(*stream, kKeyless, {}, broadcast);
    ASSERT_TRUE(tertiary.ok());
    auto removed = (*rt)->UnregisterQuery(*secondary);
    ASSERT_TRUE(removed.ok());
    auto removed2 = (*rt)->UnregisterQuery(*tertiary);
    ASSERT_TRUE(removed2.ok());
  }

  producer.join();
  ASSERT_TRUE((*rt)->Flush().ok());
  EXPECT_EQ(sink.SortedKeys(), expected);
}

TEST(StreamRuntime, BackpressureDropNewestCountsExactly) {
  RuntimeOptions options;
  options.num_shards = 1;
  options.queue_capacity = 8;
  options.backpressure = BackpressurePolicy::kDropNewest;
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());
  auto id = (*rt)->RegisterQuery(
      *stream, "PATTERN A;B WHERE A.name = B.name WITHIN 10");
  ASSERT_TRUE(id.ok());

  // Park the only worker so the queue fills deterministically.
  auto gate = (*rt)->PauseShard(0);
  ASSERT_NE(gate, nullptr);
  gate->WaitParked();

  int accepted = 0;
  for (int i = 0; i < 20; ++i) {
    if ((*rt)->Ingest(*stream, Stock("SYM", 10.0, i))) ++accepted;
  }
  EXPECT_EQ(accepted, 8);  // ring capacity

  gate->Open();
  ASSERT_TRUE((*rt)->Flush().ok());
  const auto stats = (*rt)->Stats();
  EXPECT_EQ(stats.events_ingested, 20u);
  EXPECT_EQ(stats.events_processed, 8u);
  EXPECT_EQ(stats.events_dropped, 12u);
  EXPECT_EQ(stats.events_processed + stats.events_dropped,
            stats.events_ingested);
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.shards[0].events_dropped, 12u);
}

TEST(StreamRuntime, BackpressureBlockLosesNothing) {
  RuntimeOptions options;
  options.num_shards = 1;
  options.queue_capacity = 4;
  options.backpressure = BackpressurePolicy::kBlock;
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());
  auto id = (*rt)->RegisterQuery(
      *stream, "PATTERN A;B WHERE A.name = B.name WITHIN 10");
  ASSERT_TRUE(id.ok());

  auto gate = (*rt)->PauseShard(0);
  ASSERT_NE(gate, nullptr);
  gate->WaitParked();

  StreamRuntime* raw = rt->get();
  const StreamId sid = *stream;
  std::thread producer([raw, sid] {
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(raw->Ingest(sid, Stock("SYM", 10.0, 1000 + i)));
    }
  });
  gate->Open();
  producer.join();
  ASSERT_TRUE((*rt)->Flush().ok());
  const auto stats = (*rt)->Stats();
  EXPECT_EQ(stats.events_dropped, 0u);
  EXPECT_EQ(stats.events_processed, 64u);
}

TEST(StreamRuntime, MergedStatsReplanPreservesMatchSet) {
  // C-rare workload where the initial left-deep plan is the wrong shape;
  // merged windowed stats must trigger a switch without losing or
  // duplicating matches (Section 5.3 under concurrency).
  StockGenOptions gen;
  gen.names = {"A", "B", "C"};
  gen.weights = {50.0, 50.0, 1.0};
  gen.num_events = 8000;
  gen.seed = 17;
  const auto events = GenerateStockTrades(gen);

  const PatternPtr p = MustAnalyze(
      "PATTERN A;B;C WHERE A.name='A' AND B.name='B' AND C.name='C' "
      "WITHIN 30");
  const PhysicalPlan initial = LeftDeepPlan(*p);
  std::vector<std::string> expected;
  {
    auto engine = Engine::Create(p, initial);
    ASSERT_TRUE(engine.ok());
    (*engine)->SetMatchCallback([&](Match&& m) {
      expected.push_back(runtime::CanonicalMatchKey(m));
    });
    for (const EventPtr& e : events) (*engine)->Push(e);
    (*engine)->Finish();
    std::sort(expected.begin(), expected.end());
  }
  ASSERT_FALSE(expected.empty());

  RuntimeOptions options;
  options.num_shards = 2;
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());

  CollectingMatchSink sink;
  QueryOptions qopts;
  qopts.sink = &sink;
  qopts.enable_replan = true;
  qopts.replan.drift_threshold = 0.4;
  qopts.replan.improvement_threshold = 0.05;
  auto id = (*rt)->RegisterQuery(*stream, p, initial, {}, qopts);
  ASSERT_TRUE(id.ok()) << id.status();

  // First half, then a merged replan, then the rest.
  const size_t half = events.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE((*rt)->Ingest(*stream, events[i]));
  }
  ASSERT_TRUE((*rt)->Flush().ok());
  auto switched = (*rt)->ReplanQuery(*id);
  ASSERT_TRUE(switched.ok()) << switched.status();
  EXPECT_TRUE(*switched);  // the skew must beat the uniform defaults
  for (size_t i = half; i < events.size(); ++i) {
    ASSERT_TRUE((*rt)->Ingest(*stream, events[i]));
  }
  ASSERT_TRUE((*rt)->Flush().ok());
  EXPECT_EQ(sink.SortedKeys(), expected);
}

TEST(StreamRuntime, StartRuntimeFacade) {
  ZStream zs(StockSchema());
  auto rt = zs.StartRuntime();
  ASSERT_TRUE(rt.ok()) << rt.status();
  auto stream = (*rt)->stream("default");
  ASSERT_TRUE(stream.ok());
  auto id = (*rt)->RegisterQuery(
      *stream,
      "PATTERN A;B WHERE A.name = B.name AND A.price < B.price WITHIN 50");
  ASSERT_TRUE(id.ok()) << id.status();
  const auto events = ManyNameTrades(5000, 3);
  EXPECT_EQ((*rt)->IngestBatch(*stream, events), 0u);
  ASSERT_TRUE((*rt)->Flush().ok());
  auto matches = (*rt)->query_matches(*id);
  ASSERT_TRUE(matches.ok());
  EXPECT_GT(*matches, 0u);
  const auto stats = (*rt)->Stats();
  EXPECT_EQ(stats.events_processed, events.size());
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"shards\""), std::string::npos);
  EXPECT_NE(json.find("\"throughput_eps\""), std::string::npos);
  (*rt)->Stop();
  EXPECT_FALSE((*rt)->Ingest(*stream, events.front()));
  EXPECT_TRUE((*rt)->Flush().IsFailedPrecondition());
}

// The facade binds every catalog stream under its name, queries
// register per stream (addressable by name), and events route only to
// their own stream's queries.
TEST(StreamRuntime, FacadeBindsAllCatalogStreams) {
  ZStream zs;
  ASSERT_TRUE(zs.catalog().CreateStream("stock", StockSchema()).ok());
  ASSERT_TRUE(zs.catalog().CreateStream("weblog", WebLogSchema()).ok());
  RuntimeOptions options;
  options.num_shards = 2;
  auto rt = zs.StartRuntime(options);
  ASSERT_TRUE(rt.ok()) << rt.status();
  EXPECT_EQ((*rt)->StreamNames(),
            (std::vector<std::string>{"stock", "weblog"}));

  auto stock_q = (*rt)->RegisterQuery(
      "stock", "PATTERN A;B WHERE A.price > B.price WITHIN 10");
  ASSERT_TRUE(stock_q.ok()) << stock_q.status();
  auto web_q = (*rt)->RegisterQuery(
      "weblog",
      "PATTERN Pub;Course WHERE Pub.category='publication' "
      "AND Course.category='course' AND Pub.ip = Course.ip WITHIN 100");
  ASSERT_TRUE(web_q.ok()) << web_q.status();
  EXPECT_FALSE((*rt)->RegisterQuery("nope", "PATTERN A;B WITHIN 1").ok());

  ASSERT_TRUE((*rt)->Ingest("stock", Stock("IBM", 100, 1)));
  ASSERT_TRUE((*rt)->Ingest("stock", Stock("Sun", 50, 2)));
  const auto web_event = [&](const char* ip, const char* cat,
                             Timestamp ts) {
    return EventBuilder(WebLogSchema())
        .Set("ip", ip)
        .Set("url", "/x")
        .Set("category", cat)
        .At(ts)
        .Build();
  };
  ASSERT_TRUE((*rt)->Ingest("weblog", web_event("1.2.3.4",
                                                "publication", 1)));
  ASSERT_TRUE((*rt)->Ingest("weblog", web_event("1.2.3.4", "course", 2)));
  EXPECT_FALSE((*rt)->Ingest("nope", Stock("IBM", 1, 3)));
  ASSERT_TRUE((*rt)->Flush().ok());
  EXPECT_EQ(*(*rt)->query_matches(*stock_q), 1u);
  EXPECT_EQ(*(*rt)->query_matches(*web_q), 1u);
}

// Regression: a MatchSink callback may call runtime accessors (which
// take control_mu_); Flush/Unregister must not hold that mutex while
// waiting on the workers, or this deadlocks.
TEST(StreamRuntime, SinkMayReenterRuntimeAccessors) {
  RuntimeOptions options;
  options.num_shards = 2;
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());

  StreamRuntime* raw = rt->get();
  std::atomic<uint64_t> reentrant_reads{0};
  runtime::CallbackMatchSink sink([&](runtime::RuntimeMatch&& m) {
    auto matches = raw->query_matches(m.query);  // takes control_mu_
    if (matches.ok()) reentrant_reads.fetch_add(1);
    (void)raw->Stats();
  });
  QueryOptions qopts;
  qopts.sink = &sink;
  auto id = (*rt)->RegisterQuery(*stream, kPartitionedQuery, {}, qopts);
  ASSERT_TRUE(id.ok());

  const auto events = ManyNameTrades(4000, 31);
  EXPECT_EQ((*rt)->IngestBatch(*stream, events), 0u);
  ASSERT_TRUE((*rt)->Flush().ok());  // must not deadlock
  EXPECT_GT(reentrant_reads.load(), 0u);
  auto removed = (*rt)->UnregisterQuery(*id);  // must not deadlock either
  ASSERT_TRUE(removed.ok());
}

TEST(CollectingMatchSink, TakeOrdersDeterministically) {
  runtime::CollectingMatchSink sink;
  auto make = [](QueryId q, Timestamp ts) {
    runtime::RuntimeMatch m;
    m.query = q;
    m.match.span = TimeSpan{ts, ts + 1};
    m.match.slots.push_back(Stock("S", 1.0, ts));
    return m;
  };
  // Published out of order, across two queries.
  sink.Publish(make(2, 30));
  sink.Publish(make(1, 20));
  sink.Publish(make(2, 10));
  sink.Publish(make(1, 5));
  const auto taken = sink.Take();
  ASSERT_EQ(taken.size(), 4u);
  EXPECT_EQ(taken[0].query, 1);
  EXPECT_EQ(taken[0].match.span.start, 5);
  EXPECT_EQ(taken[1].match.span.start, 20);
  EXPECT_EQ(taken[2].query, 2);
  EXPECT_EQ(taken[2].match.span.start, 10);
  EXPECT_EQ(taken[3].match.span.start, 30);
  EXPECT_EQ(sink.size(), 0u);  // Take drains
}

TEST(StreamRuntime, ErrorsAreReported) {
  auto rt = StreamRuntime::Create();
  ASSERT_TRUE(rt.ok());
  EXPECT_TRUE((*rt)->stream("missing").status().IsNotFound());
  EXPECT_TRUE((*rt)->query_matches(42).status().IsNotFound());
  auto stream = (*rt)->AddStream("s", StockSchema());
  ASSERT_TRUE(stream.ok());
  EXPECT_FALSE((*rt)->AddStream("s", StockSchema()).ok());
  // kHashKey on a keyless pattern must be rejected.
  QueryOptions qopts;
  qopts.route = RoutePolicy::kHashKey;
  auto bad = (*rt)->RegisterQuery(
      *stream, "PATTERN A;B WHERE A.price < B.price WITHIN 10", {}, qopts);
  EXPECT_FALSE(bad.ok());
  // Replan on a query registered without enable_replan.
  auto id = (*rt)->RegisterQuery(
      *stream, "PATTERN A;B WHERE A.name = B.name WITHIN 10");
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE((*rt)->ReplanQuery(*id).status().IsFailedPrecondition());
}

TEST(StreamRuntime, ReorderSlackRestoresOrderAtIngest) {
  // A cross-symbol (keyless) query is order-sensitive: without the
  // Section-4.1 stage at the shard ingest path, interleaved producers
  // would lose late events. With RuntimeOptions::reorder_slack the
  // shuffled replay must produce the exact in-order match set.
  constexpr char kSpread[] =
      "PATTERN X;Y WHERE X.price < Y.price WITHIN 5";
  std::vector<EventPtr> events;
  for (int i = 0; i < 2000; ++i) {
    events.push_back(Stock("SYM" + std::to_string(i % 4),
                           (i * 37) % 100, i));
  }
  const auto expected = SingleThreadedKeys(StockSchema(), kSpread, events);
  ASSERT_FALSE(expected.empty());

  // Shuffle within a bounded disorder window of 8 timestamps.
  std::vector<EventPtr> shuffled = events;
  std::mt19937 rng(7);
  for (size_t i = 0; i + 8 < shuffled.size(); i += 8) {
    std::shuffle(shuffled.begin() + static_cast<long>(i),
                 shuffled.begin() + static_cast<long>(i + 8), rng);
  }

  RuntimeOptions options;
  options.num_shards = 2;
  options.reorder_slack = 16;
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok()) << rt.status();
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());
  CollectingMatchSink sink;
  QueryOptions qopts;
  qopts.sink = &sink;
  auto id = (*rt)->RegisterQuery(*stream, kSpread, {}, qopts);
  ASSERT_TRUE(id.ok()) << id.status();

  for (const EventPtr& e : shuffled) {
    ASSERT_TRUE((*rt)->Ingest(*stream, e));
  }
  ASSERT_TRUE((*rt)->Flush().ok());
  EXPECT_EQ(sink.SortedKeys(), expected);

  const runtime::RuntimeStats stats = (*rt)->Stats();
  EXPECT_EQ(stats.late_dropped, 0u);
  EXPECT_EQ(stats.pending, 0u);  // Flush drained the stage
}

TEST(StreamRuntime, UnregisterFlushesReorderedEvents) {
  // Events still buffered in the reorder stage must reach the engine
  // before it retires, so UnregisterQuery's final match count covers
  // everything ingested beforehand.
  RuntimeOptions options;
  options.num_shards = 1;
  options.reorder_slack = 1000;  // holds everything below ts max-1000
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());
  auto id = (*rt)->RegisterQuery(
      *stream, "PATTERN A;B WHERE A.price < B.price WITHIN 10");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*rt)->Ingest(*stream, Stock("IBM", 1.0, 1)));
  ASSERT_TRUE((*rt)->Ingest(*stream, Stock("IBM", 2.0, 2)));
  // Both events sit inside the reorder buffer (slack >> max ts seen).
  auto final_matches = (*rt)->UnregisterQuery(*id);
  ASSERT_TRUE(final_matches.ok()) << final_matches.status();
  EXPECT_EQ(*final_matches, 1u);
}

TEST(StreamRuntime, ReorderLateDropsAreCountedAndExported) {
  RuntimeOptions options;
  options.num_shards = 1;
  options.reorder_slack = 5;
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());
  auto id = (*rt)->RegisterQuery(
      *stream, "PATTERN A;B WHERE A.price < B.price WITHIN 10");
  ASSERT_TRUE(id.ok());

  // ts=200 advances the release watermark past ts=100, which the stage
  // emits; ts=50 then arrives below the emitted frontier — more than
  // the slack allows late — and must be dropped and counted.
  ASSERT_TRUE((*rt)->Ingest(*stream, Stock("IBM", 1.0, 100)));
  ASSERT_TRUE((*rt)->Ingest(*stream, Stock("IBM", 2.0, 200)));
  ASSERT_TRUE((*rt)->Ingest(*stream, Stock("IBM", 3.0, 50)));
  ASSERT_TRUE((*rt)->Flush().ok());

  const runtime::RuntimeStats stats = (*rt)->Stats();
  EXPECT_EQ(stats.late_dropped, 1u);
  EXPECT_EQ(stats.pending, 0u);
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"late_dropped\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"pending\": 0"), std::string::npos);
}

// The shards reorder at ingress; a per-query slack would be a second
// stage behind theirs, so registration refuses it loudly.
TEST(StreamRuntime, RegisterRejectsCompileReorderSlack) {
  auto rt = StreamRuntime::Create();
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());
  CompileOptions compile;
  compile.reorder_slack = 5;
  auto id = (*rt)->RegisterQuery(
      *stream, "PATTERN A;B WHERE A.price < B.price WITHIN 10", compile);
  ASSERT_FALSE(id.ok());
  EXPECT_TRUE(id.status().IsInvalidArgument());
  EXPECT_NE(id.status().ToString().find("RuntimeOptions::reorder_slack"),
            std::string::npos)
      << id.status();
}

#ifndef ZSTREAM_OBS_STRIPPED
// A slow-event threshold no longer sends the shards back to per-event
// dispatch: slow events are timed per run, and the match set is the one
// the runtime finds without a threshold.
TEST(StreamRuntime, SlowEventThresholdKeepsRunDispatch) {
  const auto events = ManyNameTrades(20000, 17);
  const auto run = [&events](int64_t slow_event_ns, const std::string& label) {
    RuntimeOptions options;
    options.num_shards = 2;
    options.slow_event_ns = slow_event_ns;
    auto rt = StreamRuntime::Create(options);
    EXPECT_TRUE(rt.ok());
    auto stream = (*rt)->AddStream("stock", StockSchema());
    EXPECT_TRUE(stream.ok());
    CollectingMatchSink sink;
    QueryOptions qopts;
    qopts.sink = &sink;
    CompileOptions compile;
    compile.engine.label = label;
    EXPECT_TRUE(
        (*rt)->RegisterQuery(*stream, kPartitionedQuery, compile, qopts).ok());
    for (size_t i = 0; i < events.size(); i += 500) {
      const std::vector<EventPtr> chunk(
          events.begin() + static_cast<long>(i),
          events.begin() + static_cast<long>(std::min(i + 500, events.size())));
      EXPECT_EQ((*rt)->IngestBatch(*stream, chunk), 0u);
    }
    EXPECT_TRUE((*rt)->Flush().ok());
    return sink.SortedKeys();
  };
  const auto plain = run(0, "runtime_no_threshold");
  ASSERT_FALSE(plain.empty());
  const obs::Counter* slow = obs::Registry::Default().GetCounter(
      "zstream_slow_events_total", {{"query", "runtime_slow_1ns"}});
  EXPECT_EQ(run(1, "runtime_slow_1ns"), plain);
  EXPECT_EQ(plain,
            SingleThreadedKeys(StockSchema(), kPartitionedQuery, events));
  // Every event lands on exactly one of the two shards, so per-event
  // dispatch would count 20000 slow events; runs count one per span.
  EXPECT_GT(slow->value(), 0u);
  EXPECT_LT(slow->value() * 4, events.size());
}
#endif  // ZSTREAM_OBS_STRIPPED

}  // namespace
}  // namespace zstream::testing
