// Concurrent streaming runtime: a sharded, multi-query server layer on
// top of the single-threaded ZStream engines.
//
//   producers --> Ingest() --router--> shard queues --> shard workers
//                                                          |  per-shard
//                                                          |  engines
//                                                          v
//                                          MatchSink (thread-safe, ordered)
//
// Each of N shards owns one worker thread, one bounded MPSC ring queue
// and one engine instance per registered query that routes there. Events
// are routed by partition-key hash (the analyzer's Section 5.2.2 key),
// so every key's events land on exactly one shard and the sharded match
// set equals the single-threaded one exactly. Keyless queries are pinned
// to a single shard (assigned round-robin across queries, so many
// queries still spread over all cores) or broadcast to every shard on
// request. Backpressure on full queues is configurable: block the
// producer, or drop-newest with per-shard drop counters.
//
// Queries register and unregister at runtime; both are barriers (they
// return once every shard has installed/retired its engine), so events
// ingested after RegisterQuery() returns are guaranteed to be seen.
// Per-shard windowed statistics can be merged into one StatsCatalog and
// fed to a query-level AdaptiveController (ReplanQuery), broadcasting a
// Section-5.3 state-preserving plan switch to every shard.
#ifndef ZSTREAM_RUNTIME_STREAM_RUNTIME_H_
#define ZSTREAM_RUNTIME_STREAM_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/zstream.h"
#include "common/sync.h"
#include "obs/metrics.h"
#include "opt/adaptive.h"
#include "runtime/match_sink.h"
#include "runtime/runtime_options.h"
#include "runtime/runtime_stats.h"

namespace zstream::runtime {

using StreamId = int;

struct QueryOptions {
  RoutePolicy route = RoutePolicy::kAuto;
  /// Thread-safe match consumer (not owned; may be null: count only).
  MatchSink* sink = nullptr;
  /// Enables merged-stats re-planning via ReplanQuery (forces
  /// collect_stats on the per-shard engines).
  bool enable_replan = false;
  AdaptiveOptions replan;
};

/// \brief Test/diagnostic hook: parks a shard worker until opened, so a
/// test can deterministically fill a queue (see PauseShard).
class Gate {
 public:
  /// Worker side: signal parked, then block until Open().
  void Park();
  /// Blocks until the worker has parked.
  void WaitParked();
  /// Releases the worker.
  void Open();

 private:
  zs::Mutex mu_;
  zs::CondVar cv_;
  bool parked_ ZS_GUARDED_BY(mu_) = false;
  bool open_ ZS_GUARDED_BY(mu_) = false;
};

/// \brief The sharded multi-query runtime.
class StreamRuntime {
 public:
  static Result<std::unique_ptr<StreamRuntime>> Create(
      const RuntimeOptions& options = {});

  ~StreamRuntime();
  ZS_DISALLOW_COPY_AND_ASSIGN(StreamRuntime);

  /// Declares a named input stream carrying events of `schema`.
  Result<StreamId> AddStream(const std::string& name, SchemaPtr schema);

  /// Looks up a stream by name.
  Result<StreamId> stream(const std::string& name) const;

  /// Names of the bound streams, in StreamId order.
  std::vector<std::string> StreamNames() const;

  /// Compiles `text` against the stream's schema (parse -> rewrite ->
  /// analyze -> plan) and instantiates it on its target shards. Returns
  /// once every shard has the engine installed: events ingested after
  /// this returns are guaranteed to be evaluated.
  Result<QueryId> RegisterQuery(StreamId stream, const std::string& text,
                                const CompileOptions& compile = {},
                                const QueryOptions& options = {});

  /// Same, addressing the stream by its catalog name.
  Result<QueryId> RegisterQuery(const std::string& stream_name,
                                const std::string& text,
                                const CompileOptions& compile = {},
                                const QueryOptions& options = {});

  /// Same, for a pre-analyzed pattern + plan (benchmark path).
  Result<QueryId> RegisterQuery(StreamId stream, PatternPtr pattern,
                                const PhysicalPlan& plan,
                                const EngineOptions& engine = {},
                                const QueryOptions& options = {});

  /// Flushes and retires the query on every shard; returns its final
  /// match count.
  Result<uint64_t> UnregisterQuery(QueryId id);

  /// Routes one event to the shards that need it. Thread-safe (any
  /// number of producers). Returns false when the runtime is stopped or
  /// any target shard dropped the event under kDropNewest.
  bool Ingest(StreamId stream, const EventPtr& event);

  /// Routes by stream name (one registry lookup per call — resolve the
  /// StreamId once via stream() on hot paths).
  bool Ingest(const std::string& stream_name, const EventPtr& event);

  /// Bulk ingest: routes and enqueues with one queue lock per target
  /// shard. Returns the number of (event, shard) deliveries dropped.
  uint64_t IngestBatch(StreamId stream, const std::vector<EventPtr>& events);

  /// Ingest with an externally-minted trace id (obs/trace.h) — the
  /// server passes the id decoded from the wire so client and server
  /// spans share one trace; 0 means untraced. The two-argument
  /// overloads sample locally via the global tracer.
  bool Ingest(StreamId stream, const EventPtr& event, uint64_t trace_id);
  uint64_t IngestBatch(StreamId stream, const std::vector<EventPtr>& events,
                       uint64_t trace_id);

  /// Barrier: every event enqueued before this call is processed and
  /// every engine has flushed (Engine::Finish), so match counters and
  /// sinks are complete for everything ingested so far.
  Status Flush();

  /// Closes the queues, drains them, and joins the workers. Idempotent;
  /// also called by the destructor. Ingest fails afterwards.
  void Stop();

  /// Matches delivered so far (complete after Flush).
  Result<uint64_t> query_matches(QueryId id) const;

  /// Peak tracked bytes across the query's shard engines (the shared
  /// thread-safe MemoryTracker).
  Result<int64_t> query_peak_bytes(QueryId id) const;

  /// Number of shards actually hosting an engine for the query.
  Result<int> query_shard_count(QueryId id) const;

  /// Merges per-shard windowed stats and asks the query's
  /// AdaptiveController for a better plan; on success broadcasts the
  /// plan switch to every shard. Returns true when a switch happened.
  /// Requires QueryOptions::enable_replan at registration.
  Result<bool> ReplanQuery(QueryId id);

  /// Snapshot of the runtime counters (see runtime_stats.h).
  RuntimeStats Stats() const;

  /// The query's merged plan tree annotated with live per-node counters
  /// (EXPLAIN ANALYZE). A barrier: every shard worker snapshots its
  /// engine's profile at a message boundary, so counters are consistent
  /// with everything processed so far. Also refreshes the query's
  /// observed-pairs metric.
  Result<std::string> ExplainAnalyze(QueryId id);

  /// This runtime's metrics registry (shard/queue/query series, see
  /// docs/observability.md). Instrument pointers stay valid for the
  /// runtime's lifetime.
  obs::Registry& metrics_registry() { return registry_; }

  /// Mirrors the live shard and query counters into the registry (the
  /// registry otherwise only sees latency observations, which are
  /// written in-line). Called by the renderers below; cheap, lock-light.
  void UpdateMetrics();

  /// UpdateMetrics + render: Prometheus text exposition / stable JSON.
  std::string MetricsPrometheus();
  std::string MetricsJson();

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Test/diagnostic hook: enqueues a gate on `shard`'s queue and
  /// returns it; the worker parks at the gate until Open().
  std::shared_ptr<Gate> PauseShard(int shard);

 private:
  struct Shard;        // defined in stream_runtime.cc
  struct QueryState;   // defined in stream_runtime.cc
  struct ShardMsg;     // defined in stream_runtime.cc
  struct CollectCtx;   // defined in stream_runtime.cc
  struct ProfileCtx;   // defined in stream_runtime.cc

  /// Routing entry snapshot used by Ingest without touching QueryState.
  struct RouteEntry {
    QueryId query = 0;
    RoutePolicy route = RoutePolicy::kPinned;
    int key_field = -1;
    int pinned_shard = 0;
  };
  struct StreamInfo {
    std::string name;
    SchemaPtr schema;
    std::vector<RouteEntry> routes;
  };

  explicit StreamRuntime(const RuntimeOptions& options);

  void WorkerLoop(Shard* shard);
  /// Offers a run of one stream's events to every engine on `shard`
  /// whose query routes them there, as one span (Engine::PushBatch).
  /// Hash-routed queries filter the run per event first, reusing the
  /// router's key hashes from `msgs` (the queue messages the run was
  /// taken from; null for a run released by a reorder stage);
  /// pinned/broadcast queries take the span whole.
  void DispatchRun(Shard* shard, StreamId stream, const EventBatch& run,
                   const ShardMsg* msgs);
  /// Releases the shard's reorder stages into the engines (stream end /
  /// flush barrier).
  void FlushReorder(Shard* shard);
  /// Shard bitmask for `entry`; for hash routes also records the key
  /// hash it computed into *hint_field/*hint_hash so the shard worker
  /// can reuse it instead of re-hashing.
  uint64_t TargetMask(const RouteEntry& entry, const EventPtr& event,
                      int* hint_field, size_t* hint_hash) const;
  /// Sends `msg` to the given shards plus a sync barrier and waits.
  /// Returns false when any queue was already closed (runtime stopping),
  /// i.e. some worker never saw the message. Callers must NOT hold
  /// control_mu_: a worker can block on control_mu_ inside a MatchSink
  /// callback, and waiting on it here would deadlock.
  bool SyncShards(const std::vector<int>& shard_indices, ShardMsg&& proto);
  std::vector<int> TargetShards(const QueryState& qs) const;
  Result<QueryId> RegisterCompiled(StreamId stream, PatternPtr pattern,
                                   const PhysicalPlan& plan,
                                   const EngineOptions& engine,
                                   const QueryOptions& options,
                                   std::string text);

  RuntimeOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable zs::SharedMutex route_mu_;
  std::vector<StreamInfo> streams_ ZS_GUARDED_BY(route_mu_);

  mutable zs::Mutex control_mu_;  // queries_, registration round-robin
  std::unordered_map<QueryId, std::shared_ptr<QueryState>> queries_
      ZS_GUARDED_BY(control_mu_);
  QueryId next_query_id_ ZS_GUARDED_BY(control_mu_) = 1;
  int next_pin_ ZS_GUARDED_BY(control_mu_) = 0;

  std::atomic<uint64_t> events_ingested_{0};
  /// Events ingested carrying a nonzero trace id (sampled locally or
  /// propagated from the wire).
  std::atomic<uint64_t> events_traced_{0};
  std::atomic<bool> stopped_{false};
  std::chrono::steady_clock::time_point start_time_;

  /// Per-runtime (not process-global) so concurrent runtimes — and
  /// tests — never see each other's series. Owns the per-query
  /// detection-latency histograms, written by shard workers in-line.
  obs::Registry registry_;

  /// Gates handed out by PauseShard; Stop() opens any still closed so a
  /// forgotten gate can never deadlock worker join.
  zs::Mutex gates_mu_;
  std::vector<std::weak_ptr<Gate>> gates_ ZS_GUARDED_BY(gates_mu_);
};

}  // namespace zstream::runtime

#endif  // ZSTREAM_RUNTIME_STREAM_RUNTIME_H_
