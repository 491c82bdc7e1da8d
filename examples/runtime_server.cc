// Multi-core, multi-query serving with runtime::StreamRuntime.
//
// Starts a 4-shard runtime over the stock schema, registers two queries
// (a hash-partitioned rising-triple per symbol, and a keyless IBM/Sun
// spread pinned to one shard), replays a synthetic trading day from two
// key-partitioned producer threads, and prints per-query match counts
// plus the runtime's JSON metrics.
//
//   ./runtime_server [num_events]   (default 50000)
#include <cstdio>
#include <cstdlib>

#include "api/zstream.h"
#include "runtime/stream_runtime.h"
#include "workload/driver.h"
#include "workload/stock_gen.h"

int main(int argc, char** argv) {
  using namespace zstream;

  int64_t num_events = 50000;
  if (argc > 1) num_events = std::atoll(argv[1]);

  // A 4-shard runtime bound to the stock schema ("default" stream).
  ZStream zs(StockSchema());
  runtime::RuntimeOptions options;
  options.num_shards = 4;
  // The producers below preserve order only *per symbol*; the keyless
  // spread query (Query 2) needs the Section-4.1 reorder stage at each
  // shard's ingress to absorb inter-producer skew (without it, late
  // events are dropped and counted).
  options.reorder_slack = 5000;
  auto rt = zs.StartRuntime(options);
  if (!rt.ok()) {
    std::fprintf(stderr, "%s\n", rt.status().ToString().c_str());
    return 1;
  }
  const auto stream = (*rt)->stream("default");

  // Query 1: three same-symbol trades with rising prices. The analyzer
  // finds the symbol partition key, so the runtime shards it by hash —
  // all four cores work on it.
  runtime::CollectingMatchSink rising_sink;
  runtime::QueryOptions rising_opts;
  rising_opts.sink = &rising_sink;
  auto rising = (*rt)->RegisterQuery(
      *stream,
      "PATTERN A;B;C WHERE A.name = B.name AND B.name = C.name "
      "AND A.price < B.price AND B.price < C.price WITHIN 100",
      {}, rising_opts);
  if (!rising.ok()) {
    std::fprintf(stderr, "%s\n", rising.status().ToString().c_str());
    return 1;
  }

  // Query 2: keyless cross-symbol spread; pinned to one shard, whose
  // reorder stage orders the two producers' interleaving.
  auto spread = (*rt)->RegisterQuery(
      *stream,
      "PATTERN IBM;Sun WHERE IBM.name = 'SYM0' AND Sun.name = 'SYM1' "
      "AND IBM.price > Sun.price + 40 WITHIN 20");
  if (!spread.ok()) {
    std::fprintf(stderr, "%s\n", spread.status().ToString().c_str());
    return 1;
  }

  // One trading day over 16 symbols, replayed by two producer threads
  // that split the symbols between them. With 4 shards (a multiple of
  // 2) each shard is fed by one producer, so its stream stays ordered.
  StockGenOptions gen;
  gen.names.clear();
  gen.weights.clear();
  for (int i = 0; i < 16; ++i) {
    gen.names.push_back("SYM" + std::to_string(i));
    gen.weights.push_back(1.0);
  }
  gen.num_events = num_events;
  const auto events = GenerateStockTrades(gen);

  ConcurrentDriveOptions drive;
  drive.num_producers = 2;
  drive.partition_field = StockSchema()->FieldIndex("name");
  runtime::StreamRuntime* raw = rt->get();
  const runtime::StreamId sid = *stream;
  const auto replay = DriveConcurrently(
      events, drive,
      [raw, sid](const EventPtr& e) { return raw->Ingest(sid, e); });
  if (!(*rt)->Flush().ok()) return 1;

  const auto rising_matches = (*rt)->query_matches(*rising);
  const auto spread_matches = (*rt)->query_matches(*spread);
  std::printf("replayed %lld events from %d producers in %.3fs\n",
              static_cast<long long>(num_events), drive.num_producers,
              replay.elapsed_s);
  std::printf("rising-triple matches (sharded by symbol): %llu\n",
              static_cast<unsigned long long>(
                  rising_matches.ok() ? *rising_matches : 0));
  std::printf("spread matches (pinned):                   %llu\n",
              static_cast<unsigned long long>(
                  spread_matches.ok() ? *spread_matches : 0));
  std::printf("runtime metrics: %s\n", (*rt)->Stats().ToJson().c_str());

  // Sanity for the smoke test: the sink saw what the counter counted.
  if (rising_matches.ok() && rising_sink.size() != *rising_matches) {
    std::fprintf(stderr, "sink/counter mismatch\n");
    return 1;
  }
  return 0;
}
