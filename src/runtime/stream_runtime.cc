#include "runtime/stream_runtime.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/logging.h"
#include "common/sync.h"
#include "exec/reorder.h"
#include "obs/trace.h"
#include "runtime/mpsc_queue.h"
#include "verify/plan_verifier.h"

namespace zstream::runtime {

// ---------------------------------------------------------------------
// Internal structures
// ---------------------------------------------------------------------

namespace {

/// Count-down barrier between the control plane and shard workers.
struct SyncPoint {
  explicit SyncPoint(int n) : remaining(n) {}

  void Arrive() {
    zs::MutexLock lock(mu);
    if (--remaining <= 0) cv.NotifyAll();
  }
  void Wait() {
    zs::MutexLock lock(mu);
    while (remaining > 0) cv.Wait(mu);
  }

  zs::Mutex mu;
  zs::CondVar cv;
  int remaining ZS_GUARDED_BY(mu);
};

}  // namespace

void Gate::Park() {
  zs::MutexLock lock(mu_);
  parked_ = true;
  cv_.NotifyAll();
  while (!open_) cv_.Wait(mu_);
}

void Gate::WaitParked() {
  zs::MutexLock lock(mu_);
  while (!parked_) cv_.Wait(mu_);
}

void Gate::Open() {
  zs::MutexLock lock(mu_);
  open_ = true;
  cv_.NotifyAll();
}

/// Merged-stats collection rendezvous for ReplanQuery.
struct StreamRuntime::CollectCtx {
  /// Written once by the control plane before the collect message is
  /// published; read-only for workers afterwards, so unguarded.
  StatsCatalog defaults;
  zs::Mutex mu;
  std::vector<StatsCatalog> parts ZS_GUARDED_BY(mu);
  std::vector<double> weights ZS_GUARDED_BY(mu);
};

/// Profile collection rendezvous for ExplainAnalyze: each shard worker
/// merges its engine's node profile at a message boundary.
struct StreamRuntime::ProfileCtx {
  zs::Mutex mu;
  bool has ZS_GUARDED_BY(mu) = false;
  NodeProfile merged ZS_GUARDED_BY(mu);
  uint64_t events_pushed ZS_GUARDED_BY(mu) = 0;
};

/// One registered query. Engines are indexed by shard and driven only by
/// that shard's worker; everything cross-thread is atomic or immutable
/// after registration.
struct StreamRuntime::QueryState {
  QueryId id = 0;
  StreamId stream = -1;
  std::string text;
  PatternPtr pattern;
  RoutePolicy route = RoutePolicy::kPinned;
  int key_field = -1;
  int pinned_shard = 0;
  int num_shards = 1;
  MatchSink* sink = nullptr;
  std::atomic<uint64_t> matches{0};
  /// Metric label / slow-event log name ("q<id>" unless the caller set
  /// EngineOptions::label).
  std::string label;
  /// Ingest-to-emission latency for this query, owned by the runtime's
  /// registry (null only if registration raced Stop()).
  obs::Histogram* latency = nullptr;
  /// The installed plan's estimated cost (refreshed by ReplanQuery) and
  /// the observed operator-pairs total (refreshed at ExplainAnalyze
  /// barriers) — the predicted-vs-observed pair in /metrics.
  std::atomic<double> plan_cost{0.0};
  std::atomic<uint64_t> observed_pairs{0};
  /// Shared by every shard engine (MemoryTracker is thread-safe).
  std::unique_ptr<MemoryTracker> tracker;
  std::vector<std::unique_ptr<Engine>> engines;  // [shard] or null
  /// Serializes ReplanQuery's controller + plan updates without holding
  /// the runtime-wide control_mu_ across worker barriers (a worker
  /// blocked on control_mu_ inside a MatchSink callback must never be
  /// one we are waiting on).
  zs::Mutex replan_mu;
  PhysicalPlan plan ZS_GUARDED_BY(replan_mu);  // control-plane plan view
  /// enable_replan only; the pointer itself is set once at registration,
  /// the controller's mutable state is driven only under replan_mu.
  std::unique_ptr<AdaptiveController> controller ZS_PT_GUARDED_BY(replan_mu);

  /// Worker-side re-filter: several queries can route one event to the
  /// same shard, so each engine checks that the event is its own. The
  /// router stamps the key hash it computed into the message
  /// (hint_field/hint_hash), so the common case — every hash query on
  /// the stream keyed on the same field — is an integer compare here
  /// rather than a second Value::Hash.
  bool AcceptsOn(int shard, const EventPtr& event, int hint_field,
                 size_t hint_hash) const {
    switch (route) {
      case RoutePolicy::kHashKey: {
        const size_t hash = hint_field == key_field
                                ? hint_hash
                                : event->value(key_field).Hash();
        return static_cast<int>(hash % static_cast<size_t>(num_shards)) ==
               shard;
      }
      case RoutePolicy::kPinned:
        return shard == pinned_shard;
      case RoutePolicy::kBroadcast:
        return true;
      case RoutePolicy::kAuto:
        break;  // resolved at registration
    }
    return false;
  }
};

struct StreamRuntime::ShardMsg {
  enum class Kind : char {
    kEvent,
    kRegister,
    kUnregister,
    kFinishAll,     // flush barrier: Finish every engine on the shard
    kSwitchPlan,
    kCollectStats,
    kCollectProfile,  // EXPLAIN ANALYZE: merge node profiles at a barrier
    kGate,
  };

  Kind kind = Kind::kEvent;
  StreamId stream = -1;
  EventPtr event;
  /// kEvent: MonotonicNanos at Ingest — the start of the detection
  /// latency measured when this event's processing emits a match.
  uint64_t arrival_ns = 0;
  /// kEvent: trace id of the sampled ingest batch this event belongs
  /// to (obs/trace.h); 0 = untraced. The shard worker sets it as the
  /// thread's current trace around dispatch.
  uint64_t trace_id = 0;
  /// Router-computed key hash for kEvent (see QueryState::AcceptsOn);
  /// field -1 when no hash route was evaluated.
  int key_hint_field = -1;
  size_t key_hint_hash = 0;
  std::shared_ptr<QueryState> query;
  std::shared_ptr<SyncPoint> sync;
  std::shared_ptr<const PhysicalPlan> plan;
  std::shared_ptr<CollectCtx> collect;
  std::shared_ptr<ProfileCtx> profile;
  std::shared_ptr<Gate> gate;
};

struct StreamRuntime::Shard {
  Shard(int idx, size_t capacity) : index(idx), queue(capacity) {}

  int index;
  MpscRingQueue<ShardMsg> queue;
  std::thread thread;

  // Counters read by the control plane while the worker runs.
  std::atomic<uint64_t> events_processed{0};
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> dropped{0};
  /// Events dropped as late: by the reorder stages, plus each hosted
  /// engine's own drops below its timestamp frontier.
  std::atomic<uint64_t> late{0};
  std::atomic<uint64_t> reorder_pending{0};

  // Worker-thread-local: engines hosted on this shard.
  struct Entry {
    QueryState* query;
    Engine* engine;
  };
  std::vector<Entry> entries;
  // Worker-thread-local: late drops of engines already retired from
  // `entries`, so the published count never goes backwards.
  uint64_t retired_late = 0;

  // Worker-thread-local: arrival stamp of the event currently being
  // dispatched; match callbacks (same thread) read it to compute
  // detection latency. 0 outside event dispatch (Finish-time matches
  // have no single triggering arrival and are not observed).
  uint64_t current_arrival_ns = 0;

  // Worker-thread-local scratch: the run of queued events handed to a
  // reorder stage or to DispatchRun, and the per-query filtered subset
  // for hash-routed queries. Reused across runs to stay allocation-free.
  std::vector<EventPtr> span_scratch;
  std::vector<EventPtr> filter_scratch;

  // Worker-thread-local: one Section-4.1 reorder stage per stream,
  // created lazily when RuntimeOptions::reorder_slack > 0. Sits between
  // the shard queue and the engines, so every engine on the shard sees
  // timestamp-ordered input even when producers interleave.
  std::unordered_map<StreamId, ReorderStage> reorder;

  void PublishLateCounters() {
    uint64_t dropped = retired_late;
    uint64_t pending = 0;
    for (const auto& [stream, stage] : reorder) {
      dropped += stage.late_dropped();
      pending += stage.pending();
    }
    for (const Entry& e : entries) dropped += e.engine->late_events();
    late.store(dropped, std::memory_order_relaxed);
    reorder_pending.store(pending, std::memory_order_relaxed);
  }
};

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

StreamRuntime::StreamRuntime(const RuntimeOptions& options)
    : options_(options) {
  if (options_.num_shards <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    options_.num_shards = hw == 0 ? 1 : static_cast<int>(hw);
  }
  options_.num_shards = std::min(options_.num_shards, 64);  // route bitmask
  if (options_.shard_batch_size < 1) options_.shard_batch_size = 1;
  start_time_ = std::chrono::steady_clock::now();
}

Result<std::unique_ptr<StreamRuntime>> StreamRuntime::Create(
    const RuntimeOptions& options) {
  if (options.queue_capacity < 2) {
    return Status::InvalidArgument(
        "queue_capacity must be >= 2 (events + control messages)");
  }
  auto runtime = std::unique_ptr<StreamRuntime>(new StreamRuntime(options));
  for (int s = 0; s < runtime->options_.num_shards; ++s) {
    runtime->shards_.push_back(
        std::make_unique<Shard>(s, runtime->options_.queue_capacity));
  }
  for (auto& shard : runtime->shards_) {
    Shard* raw = shard.get();
    raw->thread = std::thread([rt = runtime.get(), raw] {
      rt->WorkerLoop(raw);
    });
  }
  return runtime;
}

StreamRuntime::~StreamRuntime() { Stop(); }

void StreamRuntime::Stop() {
  if (stopped_.exchange(true)) return;
  for (auto& shard : shards_) shard->queue.Close();
  {
    // A worker parked at a forgotten PauseShard gate would never see
    // the queue close; open every outstanding gate before joining.
    zs::MutexLock lock(gates_mu_);
    for (const std::weak_ptr<Gate>& weak : gates_) {
      if (auto gate = weak.lock()) gate->Open();
    }
    gates_.clear();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

// ---------------------------------------------------------------------
// Worker loop
// ---------------------------------------------------------------------

ZS_HOT void StreamRuntime::DispatchRun(Shard* shard, StreamId stream,
                                       const EventBatch& run,
                                       const ShardMsg* msgs) {
  if (run.count == 0) return;
  for (Shard::Entry& entry : shard->entries) {
    const QueryState* q = entry.query;
    if (q->stream != stream) continue;
    switch (q->route) {
      case RoutePolicy::kPinned:
        if (shard->index != q->pinned_shard) continue;
        break;
      case RoutePolicy::kBroadcast:
        break;
      case RoutePolicy::kHashKey: {
        // Membership varies per event: filter the run down to this
        // query's keys, reusing the router's hash hints when the run
        // comes straight from the queue (a reordered run re-hashes).
        std::vector<EventPtr>& mine = shard->filter_scratch;
        mine.clear();
        for (size_t i = 0; i < run.count; ++i) {
          const int hint_field = msgs != nullptr ? msgs[i].key_hint_field : -1;
          const size_t hint_hash = msgs != nullptr ? msgs[i].key_hint_hash : 0;
          if (q->AcceptsOn(shard->index, run.data[i], hint_field, hint_hash)) {
            mine.push_back(run.data[i]);  // zs-hotpath-allow(amortized: scratch capacity reused across runs)
          }
        }
        if (!mine.empty()) {
          entry.engine->PushBatch(EventBatch{mine.data(), mine.size()});
        }
        continue;
      }
      case RoutePolicy::kAuto:
        continue;  // resolved at registration
    }
    entry.engine->PushBatch(run);
  }
}

void StreamRuntime::FlushReorder(Shard* shard) {
  for (auto& [stream, stage] : shard->reorder) {
    DispatchRun(shard, stream, stage.Flush(), nullptr);
  }
}

ZS_HOT void StreamRuntime::WorkerLoop(Shard* shard) {
  const bool reordering = options_.reorder_slack > 0;
  // Spans recorded from this thread (queue wait, exec, operator, match)
  // land in the shard's own ring lane; lane 0 stays the control lane.
  obs::SetCurrentLane(static_cast<uint32_t>(1 + shard->index));
  std::vector<ShardMsg> batch;
  batch.reserve(static_cast<size_t>(options_.shard_batch_size));
  while (shard->queue.PopBatch(&batch,
                               static_cast<size_t>(
                                   options_.shard_batch_size)) > 0) {
    shard->batches.fetch_add(1, std::memory_order_relaxed);
    for (size_t bi = 0; bi < batch.size(); ++bi) {
      ShardMsg& msg = batch[bi];
      switch (msg.kind) {
        case ShardMsg::Kind::kEvent: {
          // One run: consecutive untraced events of the same stream and
          // ingest batch. A traced event is a run of one, so queue-wait
          // spans and trace ids stay per event.
          size_t run_end = bi + 1;
          while (msg.trace_id == 0 && run_end < batch.size() &&
                 batch[run_end].kind == ShardMsg::Kind::kEvent &&
                 batch[run_end].stream == msg.stream &&
                 batch[run_end].trace_id == 0 &&
                 batch[run_end].arrival_ns == msg.arrival_ns) {
            ++run_end;
          }
          std::vector<EventPtr>& span = shard->span_scratch;
          span.clear();
          for (size_t i = bi; i < run_end; ++i) {
            span.push_back(batch[i].event);  // zs-hotpath-allow(amortized: scratch capacity reused across runs)
          }
          const EventBatch run{span.data(), span.size()};
          // Matches emitted while this run is processed (including the
          // reorder releases it triggers) measure latency from its
          // arrival: the emission-triggering ingest.
          shard->current_arrival_ns = msg.arrival_ns;
          obs::SetCurrentTrace(msg.trace_id);
          // Queue residency: enqueue stamp to dequeue, on this shard's
          // lane. The dominant latency contributor under load.
          obs::TraceRecord(obs::CurrentLane(), obs::SpanKind::kQueueWait,
                           msg.trace_id, msg.arrival_ns,
                           obs::MonotonicNanos(), nullptr,
                           static_cast<uint64_t>(shard->index));
          if (reordering) {
            ReorderStage& stage =
                shard->reorder.try_emplace(msg.stream, options_.reorder_slack)
                    .first->second;
            DispatchRun(shard, msg.stream, stage.Push(run), nullptr);
          } else {
            DispatchRun(shard, msg.stream, run, &batch[bi]);
          }
          shard->current_arrival_ns = 0;
          obs::SetCurrentTrace(0);
          shard->events_processed.fetch_add(run_end - bi,
                                            std::memory_order_relaxed);
          bi = run_end - 1;
          break;
        }
        case ShardMsg::Kind::kRegister: {
          Engine* engine =
              msg.query->engines[static_cast<size_t>(shard->index)].get();
          shard->entries.push_back(Shard::Entry{msg.query.get(), engine});
          msg.sync->Arrive();
          break;
        }
        case ShardMsg::Kind::kUnregister: {
          const QueryId id = msg.query->id;
          auto it = std::find_if(
              shard->entries.begin(), shard->entries.end(),
              [id](const Shard::Entry& e) { return e.query->id == id; });
          if (it != shard->entries.end()) {
            // Release the stream's reorder buffer first so the final
            // match count covers everything ingested before the
            // retire. Side effect (as at the kFinishAll barrier):
            // other queries on the stream see those events now, and
            // later arrivals below the flushed frontier count as late.
            auto stage = shard->reorder.find(msg.query->stream);
            if (stage != shard->reorder.end()) {
              DispatchRun(shard, stage->first, stage->second.Flush(),
                          nullptr);
            }
            it->engine->Finish();  // deliver pending matches first
            shard->retired_late += it->engine->late_events();
            shard->entries.erase(it);
            shard->PublishLateCounters();
          }
          msg.sync->Arrive();
          break;
        }
        case ShardMsg::Kind::kFinishAll: {
          // Release everything still buffered in the reorder stages
          // first, so the barrier's promise ("every event enqueued
          // before this call is processed") covers them. Events
          // arriving after the barrier with timestamps below the flush
          // point count as late.
          FlushReorder(shard);
          for (Shard::Entry& entry : shard->entries) entry.engine->Finish();
          shard->PublishLateCounters();
          msg.sync->Arrive();
          break;
        }
        case ShardMsg::Kind::kSwitchPlan: {
          const QueryId id = msg.query->id;
          for (Shard::Entry& entry : shard->entries) {
            if (entry.query->id != id) continue;
            const Status st = entry.engine->SwitchPlan(*msg.plan);
            if (!st.ok()) {
              ZS_LOG(Warn) << "shard " << shard->index
                           << " plan switch failed: " << st.ToString();
            }
          }
          msg.sync->Arrive();
          break;
        }
        case ShardMsg::Kind::kCollectStats: {
          const QueryId id = msg.query->id;
          for (Shard::Entry& entry : shard->entries) {
            if (entry.query->id != id) continue;
            CollectCtx* ctx = msg.collect.get();
            StatsCatalog part = entry.engine->StatsSnapshot(ctx->defaults);
            const double weight =
                static_cast<double>(entry.engine->events_pushed());
            zs::MutexLock lock(ctx->mu);
            ctx->parts.push_back(std::move(part));
            ctx->weights.push_back(weight);
          }
          msg.sync->Arrive();
          break;
        }
        case ShardMsg::Kind::kCollectProfile: {
          const QueryId id = msg.query->id;
          for (Shard::Entry& entry : shard->entries) {
            if (entry.query->id != id) continue;
            ProfileCtx* ctx = msg.profile.get();
            NodeProfile part = entry.engine->Profile();
            const uint64_t pushed = entry.engine->events_pushed();
            zs::MutexLock lock(ctx->mu);
            ctx->events_pushed += pushed;
            if (!ctx->has) {
              ctx->merged = std::move(part);
              ctx->has = true;
            } else {
              // Same query, same plan on every shard -> same shape; a
              // failed merge would mean shard engines desynchronized.
              const Status st = MergeNodeProfile(&ctx->merged, part);
              if (!st.ok()) {
                ZS_LOG(Warn) << "shard " << shard->index
                             << " profile merge failed: " << st.ToString();
              }
            }
          }
          msg.sync->Arrive();
          break;
        }
        case ShardMsg::Kind::kGate: {
          msg.gate->Park();
          break;
        }
      }
    }
    shard->PublishLateCounters();
  }
  // Queue closed and drained: flush so counters and sinks are complete.
  FlushReorder(shard);
  for (Shard::Entry& entry : shard->entries) entry.engine->Finish();
  shard->PublishLateCounters();
}

// ---------------------------------------------------------------------
// Streams and routing
// ---------------------------------------------------------------------

Result<StreamId> StreamRuntime::AddStream(const std::string& name,
                                          SchemaPtr schema) {
  if (schema == nullptr) {
    return Status::InvalidArgument("stream schema must not be null");
  }
  zs::WriterMutexLock lock(route_mu_);
  for (const StreamInfo& info : streams_) {
    if (info.name == name) {
      return Status::InvalidArgument("stream '" + name +
                                     "' already exists");
    }
  }
  streams_.push_back(StreamInfo{name, std::move(schema), {}});
  return static_cast<StreamId>(streams_.size() - 1);
}

Result<StreamId> StreamRuntime::stream(const std::string& name) const {
  zs::ReaderMutexLock lock(route_mu_);
  for (size_t i = 0; i < streams_.size(); ++i) {
    if (streams_[i].name == name) return static_cast<StreamId>(i);
  }
  return Status::NotFound("no stream named '" + name + "'");
}

std::vector<std::string> StreamRuntime::StreamNames() const {
  zs::ReaderMutexLock lock(route_mu_);
  std::vector<std::string> names;
  names.reserve(streams_.size());
  for (const StreamInfo& info : streams_) names.push_back(info.name);
  return names;
}

ZS_HOT uint64_t StreamRuntime::TargetMask(const RouteEntry& entry,
                                          const EventPtr& event,
                                          int* hint_field,
                                          size_t* hint_hash) const {
  switch (entry.route) {
    case RoutePolicy::kHashKey: {
      const size_t hash = *hint_field == entry.key_field
                              ? *hint_hash
                              : event->value(entry.key_field).Hash();
      *hint_field = entry.key_field;
      *hint_hash = hash;
      return 1ULL << (hash % shards_.size());
    }
    case RoutePolicy::kPinned:
      return 1ULL << entry.pinned_shard;
    case RoutePolicy::kBroadcast:
      return shards_.size() >= 64 ? ~0ULL
                                  : (1ULL << shards_.size()) - 1;
    case RoutePolicy::kAuto:
      break;  // resolved at registration
  }
  return 0;
}

// ---------------------------------------------------------------------
// Ingest
// ---------------------------------------------------------------------

ZS_HOT bool StreamRuntime::Ingest(StreamId stream, const EventPtr& event) {
  // A single-event ingest is its own sampling batch.
  return Ingest(stream, event, obs::TraceSampleBatch());
}

ZS_HOT bool StreamRuntime::Ingest(StreamId stream, const EventPtr& event,
                                  uint64_t trace_id) {
  if (stopped_.load(std::memory_order_relaxed) || event == nullptr) {
    return false;
  }
  uint64_t mask = 0;
  int hint_field = -1;
  size_t hint_hash = 0;
  {
    zs::ReaderMutexLock lock(route_mu_);
    if (stream < 0 || static_cast<size_t>(stream) >= streams_.size()) {
      return false;
    }
    for (const RouteEntry& entry : streams_[static_cast<size_t>(stream)]
                                       .routes) {
      mask |= TargetMask(entry, event, &hint_field, &hint_hash);
    }
  }
  events_ingested_.fetch_add(1, std::memory_order_relaxed);
  if (trace_id != 0) {
    events_traced_.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t arrival_ns = obs::MonotonicNanos();
  bool ok = true;
  for (size_t s = 0; mask != 0; ++s, mask >>= 1) {
    if ((mask & 1) == 0) continue;
    ShardMsg msg;
    msg.kind = ShardMsg::Kind::kEvent;
    msg.stream = stream;
    msg.event = event;
    msg.arrival_ns = arrival_ns;
    msg.trace_id = trace_id;
    msg.key_hint_field = hint_field;
    msg.key_hint_hash = hint_hash;
    if (options_.backpressure == BackpressurePolicy::kBlock) {
      ok &= shards_[s]->queue.Push(std::move(msg));
    } else if (!shards_[s]->queue.TryPush(std::move(msg))) {
      shards_[s]->dropped.fetch_add(1, std::memory_order_relaxed);
      ok = false;
    }
  }
  return ok;
}

bool StreamRuntime::Ingest(const std::string& stream_name,
                           const EventPtr& event) {
  const Result<StreamId> id = stream(stream_name);
  return id.ok() && Ingest(*id, event);
}

ZS_HOT uint64_t StreamRuntime::IngestBatch(
    StreamId stream, const std::vector<EventPtr>& events) {
  return IngestBatch(stream, events, obs::TraceSampleBatch());
}

ZS_HOT uint64_t StreamRuntime::IngestBatch(
    StreamId stream, const std::vector<EventPtr>& events, uint64_t trace_id) {
  if (stopped_.load(std::memory_order_relaxed)) return events.size();
  // One stamp per batch: latency for a batch's matches is measured from
  // the batch's enqueue, which is what a producer of that batch observes.
  const uint64_t arrival_ns = obs::MonotonicNanos();
  std::vector<std::vector<ShardMsg>> per_shard(shards_.size());
  {
    zs::ReaderMutexLock lock(route_mu_);
    if (stream < 0 || static_cast<size_t>(stream) >= streams_.size()) {
      return events.size();
    }
    const StreamInfo& info = streams_[static_cast<size_t>(stream)];
    for (const EventPtr& event : events) {
      uint64_t mask = 0;
      int hint_field = -1;
      size_t hint_hash = 0;
      for (const RouteEntry& entry : info.routes) {
        mask |= TargetMask(entry, event, &hint_field, &hint_hash);
      }
      for (size_t s = 0; mask != 0; ++s, mask >>= 1) {
        if ((mask & 1) == 0) continue;
        ShardMsg msg;
        msg.kind = ShardMsg::Kind::kEvent;
        msg.stream = stream;
        msg.event = event;
        msg.arrival_ns = arrival_ns;
        msg.trace_id = trace_id;
        msg.key_hint_field = hint_field;
        msg.key_hint_hash = hint_hash;
        per_shard[s].push_back(std::move(msg));
      }
    }
  }
  events_ingested_.fetch_add(events.size(), std::memory_order_relaxed);
  if (trace_id != 0) {
    events_traced_.fetch_add(events.size(), std::memory_order_relaxed);
  }
  uint64_t drops = 0;
  for (size_t s = 0; s < per_shard.size(); ++s) {
    if (per_shard[s].empty()) continue;
    if (options_.backpressure == BackpressurePolicy::kBlock) {
      // PushAll falls short only when the runtime stopped mid-batch.
      drops += per_shard[s].size() - shards_[s]->queue.PushAll(&per_shard[s]);
    } else {
      for (ShardMsg& msg : per_shard[s]) {
        if (!shards_[s]->queue.TryPush(std::move(msg))) {
          shards_[s]->dropped.fetch_add(1, std::memory_order_relaxed);
          ++drops;
        }
      }
    }
  }
  return drops;
}

// ---------------------------------------------------------------------
// Query registration
// ---------------------------------------------------------------------

std::vector<int> StreamRuntime::TargetShards(const QueryState& qs) const {
  std::vector<int> out;
  if (qs.route == RoutePolicy::kPinned) {
    out.push_back(qs.pinned_shard);
  } else {
    for (int s = 0; s < static_cast<int>(shards_.size()); ++s) {
      out.push_back(s);
    }
  }
  return out;
}

bool StreamRuntime::SyncShards(const std::vector<int>& shard_indices,
                               ShardMsg&& proto) {
  auto sync = std::make_shared<SyncPoint>(
      static_cast<int>(shard_indices.size()));
  proto.sync = sync;
  bool all_delivered = true;
  for (int s : shard_indices) {
    ShardMsg msg = proto;  // shared_ptr copies
    if (!shards_[static_cast<size_t>(s)]->queue.Push(std::move(msg))) {
      sync->Arrive();  // queue closed: account for the missing worker ack
      all_delivered = false;
    }
  }
  sync->Wait();
  return all_delivered;
}

Result<QueryId> StreamRuntime::RegisterQuery(StreamId stream,
                                             const std::string& text,
                                             const CompileOptions& compile,
                                             const QueryOptions& options) {
  if (compile.reorder_slack != 0) {
    // The shards already reorder at ingress; a second, per-query stage
    // would run behind theirs, so refuse rather than ignore the value.
    return Status::InvalidArgument(
        "CompileOptions::reorder_slack applies to session queries only; "
        "set RuntimeOptions::reorder_slack to reorder runtime input");
  }
  SchemaPtr schema;
  {
    zs::ReaderMutexLock lock(route_mu_);
    if (stream < 0 || static_cast<size_t>(stream) >= streams_.size()) {
      return Status::InvalidArgument("unknown stream id");
    }
    schema = streams_[static_cast<size_t>(stream)].schema;
  }
  ZS_ASSIGN_OR_RETURN(PatternPtr pattern,
                      AnalyzeQuery(text, schema, compile.analyzer));
  ZS_ASSIGN_OR_RETURN(PhysicalPlan plan, BuildPlan(pattern, compile));
  return RegisterCompiled(stream, std::move(pattern), plan, compile.engine,
                          options, text);
}

Result<QueryId> StreamRuntime::RegisterQuery(const std::string& stream_name,
                                             const std::string& text,
                                             const CompileOptions& compile,
                                             const QueryOptions& options) {
  ZS_ASSIGN_OR_RETURN(StreamId id, stream(stream_name));
  return RegisterQuery(id, text, compile, options);
}

Result<QueryId> StreamRuntime::RegisterQuery(StreamId stream,
                                             PatternPtr pattern,
                                             const PhysicalPlan& plan,
                                             const EngineOptions& engine,
                                             const QueryOptions& options) {
  {
    zs::ReaderMutexLock lock(route_mu_);
    if (stream < 0 || static_cast<size_t>(stream) >= streams_.size()) {
      return Status::InvalidArgument("unknown stream id");
    }
  }
  return RegisterCompiled(stream, std::move(pattern), plan, engine, options,
                          "");
}

Result<QueryId> StreamRuntime::RegisterCompiled(
    StreamId stream, PatternPtr pattern, const PhysicalPlan& plan,
    const EngineOptions& engine_options, const QueryOptions& options,
    std::string text) {
  if (stopped_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("runtime is stopped");
  }
  RoutePolicy route = options.route;
  if (route == RoutePolicy::kAuto) {
    route = pattern->partition.has_value() ? RoutePolicy::kHashKey
                                           : RoutePolicy::kPinned;
  }
  if (route == RoutePolicy::kHashKey && !pattern->partition.has_value()) {
    return Status::InvalidArgument(
        "RoutePolicy::kHashKey requires a pattern with a partition key "
        "(the analyzer found none)");
  }

  // NOTE: control_mu_ is only held for id reservation and the final map
  // insert — never across SyncShards. A worker can block on control_mu_
  // through a MatchSink callback (sink -> query_matches), so waiting on
  // workers while holding it would deadlock.
  auto qs = std::make_shared<QueryState>();
  QueryState* q = qs.get();
  {
    zs::MutexLock control(control_mu_);
    q->id = next_query_id_++;
    if (route == RoutePolicy::kPinned) {
      q->pinned_shard = next_pin_++ % static_cast<int>(shards_.size());
    }
  }
  qs->stream = stream;
  qs->text = std::move(text);
  qs->pattern = pattern;
  {
    // No concurrent access yet (qs is unpublished); the lock satisfies
    // the plan field's replan_mu guard.
    zs::MutexLock replan(q->replan_mu);
    q->plan = plan;
  }
  qs->route = route;
  qs->num_shards = static_cast<int>(shards_.size());
  qs->sink = options.sink;
  qs->tracker = std::make_unique<MemoryTracker>();
  qs->engines.resize(shards_.size());
  if (pattern->partition.has_value()) {
    qs->key_field = pattern->partition->field_indices.front();
  }

  EngineOptions eopts = engine_options;
  if (eopts.slow_event_ns == 0) eopts.slow_event_ns = options_.slow_event_ns;
  qs->label = eopts.label.empty() ? "q" + std::to_string(qs->id)
                                  : eopts.label;
  eopts.label = qs->label;
  qs->plan_cost.store(plan.estimated_cost, std::memory_order_relaxed);
  qs->latency = registry_.GetHistogram(
      "zstream_detection_latency_seconds", {{"query", qs->label}},
      "Ingest-to-emission latency of each match", 1e-9);
  if (options.enable_replan) {
    eopts.collect_stats = true;
    const StatsCatalog defaults(pattern->num_classes(),
                                static_cast<double>(pattern->window));
    zs::MutexLock replan(q->replan_mu);
    q->controller =
        std::make_unique<AdaptiveController>(pattern, options.replan);
    q->controller->OnPlanInstalled(plan, defaults);
  }

  const std::vector<int> targets = TargetShards(*qs);
  for (int s : targets) {
    ZS_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                        Engine::Create(pattern, plan, eopts,
                                       qs->tracker.get()));
    engine->SetMatchCallback(
        [raw = qs.get(), s, sink = options.sink,
         shard = shards_[static_cast<size_t>(s)].get()](Match&& m) {
          raw->matches.fetch_add(1, std::memory_order_relaxed);
          // Same thread as the worker that set the stamp; 0 outside
          // event dispatch (e.g. Finish-time matches).
          if (shard->current_arrival_ns != 0) {
            raw->latency->Observe(obs::MonotonicNanos() -
                                  shard->current_arrival_ns);
          }
          if (sink != nullptr) {
            // Published on the worker thread, so the thread-local trace
            // id still names the sampled ingest that emitted this match;
            // fanout/delivery spans downstream join the same trace.
            sink->Publish(
                RuntimeMatch{raw->id, s, obs::CurrentTraceId(),
                             std::move(m)});
          }
        });
    qs->engines[static_cast<size_t>(s)] = std::move(engine);
  }

  // Install on every target shard; barrier so events ingested after we
  // return are guaranteed to be evaluated.
  ShardMsg msg;
  msg.kind = ShardMsg::Kind::kRegister;
  msg.query = qs;
  if (!SyncShards(targets, std::move(msg))) {
    // Stop() raced with us: some worker never installed the engine, so
    // the registration guarantee cannot hold. Nothing was published;
    // qs (and its engines, which no worker ever saw) die here.
    return Status::FailedPrecondition("runtime stopped during register");
  }

  // Only now publish the route: nothing can reach a shard that has not
  // installed the engine yet.
  {
    zs::WriterMutexLock lock(route_mu_);
    streams_[static_cast<size_t>(stream)].routes.push_back(RouteEntry{
        qs->id, qs->route, qs->key_field, qs->pinned_shard});
  }
  const QueryId id = qs->id;
  {
    zs::MutexLock control(control_mu_);
    queries_.emplace(id, std::move(qs));
  }
  return id;
}

Result<uint64_t> StreamRuntime::UnregisterQuery(QueryId id) {
  std::shared_ptr<QueryState> qs;
  {
    zs::MutexLock control(control_mu_);
    auto it = queries_.find(id);
    if (it == queries_.end()) {
      return Status::NotFound("no query with that id");
    }
    qs = it->second;
  }
  {
    zs::WriterMutexLock lock(route_mu_);
    auto& routes = streams_[static_cast<size_t>(qs->stream)].routes;
    routes.erase(std::remove_if(routes.begin(), routes.end(),
                                [id](const RouteEntry& e) {
                                  return e.query == id;
                                }),
                 routes.end());
  }
  ShardMsg msg;
  msg.kind = ShardMsg::Kind::kUnregister;
  msg.query = qs;
  if (!SyncShards(TargetShards(*qs), std::move(msg))) {
    // Runtime is stopping: some worker never processed the retire
    // message and may still touch the engines while draining. Leave the
    // QueryState registered so the engines outlive the workers (they
    // are destroyed with the runtime, after Stop() joins).
    return Status::FailedPrecondition(
        "runtime stopped while unregistering; query retired with it");
  }
  const uint64_t final_matches = qs->matches.load(std::memory_order_relaxed);
  {
    zs::MutexLock control(control_mu_);
    queries_.erase(id);
  }
  return final_matches;
}

// ---------------------------------------------------------------------
// Barriers, stats, re-planning
// ---------------------------------------------------------------------

Status StreamRuntime::Flush() {
  if (stopped_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("runtime is stopped");
  }
  // No control_mu_ here: shards_ is immutable after Create, and a
  // worker's Finish -> MatchSink callback may itself take control_mu_
  // via an accessor (query_matches, Stats).
  std::vector<int> all;
  for (int s = 0; s < static_cast<int>(shards_.size()); ++s) {
    all.push_back(s);
  }
  ShardMsg msg;
  msg.kind = ShardMsg::Kind::kFinishAll;
  SyncShards(all, std::move(msg));
  return Status::OK();
}

Result<uint64_t> StreamRuntime::query_matches(QueryId id) const {
  zs::MutexLock control(control_mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) return Status::NotFound("no query with that id");
  return it->second->matches.load(std::memory_order_relaxed);
}

Result<int64_t> StreamRuntime::query_peak_bytes(QueryId id) const {
  zs::MutexLock control(control_mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) return Status::NotFound("no query with that id");
  return it->second->tracker->peak_bytes();
}

Result<int> StreamRuntime::query_shard_count(QueryId id) const {
  zs::MutexLock control(control_mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) return Status::NotFound("no query with that id");
  return static_cast<int>(TargetShards(*it->second).size());
}

Result<bool> StreamRuntime::ReplanQuery(QueryId id) {
  if (stopped_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("runtime is stopped");
  }
  std::shared_ptr<QueryState> qs;
  {
    zs::MutexLock control(control_mu_);
    auto it = queries_.find(id);
    if (it == queries_.end()) {
      return Status::NotFound("no query with that id");
    }
    qs = it->second;
  }
  QueryState* q = qs.get();
  if (q->controller == nullptr) {
    return Status::FailedPrecondition(
        "query was not registered with QueryOptions::enable_replan");
  }
  // Controller/plan updates serialize on the query's own mutex;
  // control_mu_ must not be held across the worker barriers below.
  zs::MutexLock replan(q->replan_mu);

  // Adaptive decisions are control-plane work: give each evaluation its
  // own trace (lane 0) so plan churn is auditable next to event spans.
  const uint64_t replan_trace = obs::Tracer::Global().NewTraceId();
  const uint64_t replan_t0 = obs::MonotonicNanos();
  auto end_replan = [&](bool switched) {
    obs::TraceRecord(0, obs::SpanKind::kReplan, replan_trace, replan_t0,
                     obs::MonotonicNanos(), q->label.c_str(),
                     switched ? 1 : 0);
  };

  auto collect = std::make_shared<CollectCtx>();
  CollectCtx* cctx = collect.get();
  cctx->defaults = StatsCatalog(q->pattern->num_classes(),
                                static_cast<double>(q->pattern->window));
  ShardMsg msg;
  msg.kind = ShardMsg::Kind::kCollectStats;
  msg.query = qs;
  msg.collect = collect;
  SyncShards(TargetShards(*qs), std::move(msg));

  // The barrier above ordered every worker's writes before this point;
  // the (now uncontended) lock makes that visible to the analysis.
  size_t num_parts = 0;
  std::optional<StatsCatalog> merged_opt;
  {
    zs::MutexLock lock(cctx->mu);
    if (cctx->parts.empty()) {
      end_replan(false);
      return false;
    }
    num_parts = cctx->parts.size();
    merged_opt = MergeStatsCatalogs(cctx->parts, cctx->weights);
  }
  StatsCatalog merged = std::move(*merged_opt);
  if (q->route == RoutePolicy::kBroadcast && num_parts > 1) {
    // MergeStatsCatalogs sums rates assuming disjoint stream slices;
    // broadcast shards each saw the FULL stream, so undo the N-fold
    // inflation (selectivity averages remain correct either way).
    for (int c = 0; c < merged.num_classes(); ++c) {
      merged.set_rate(c,
                      merged.rate(c) / static_cast<double>(num_parts));
    }
  }
  std::optional<PhysicalPlan> next = q->controller->MaybeReplan(merged);
  if (!next.has_value()) {
    end_replan(false);
    return false;
  }
  // The controller already verified the candidate, but a plan is about
  // to be broadcast to every shard — re-check at the last seam so a
  // future controller bug cannot desynchronize shard engines.
  ZS_RETURN_IF_ERROR(verify::VerifyPlan(*q->pattern, *next));

  ShardMsg switch_msg;
  switch_msg.kind = ShardMsg::Kind::kSwitchPlan;
  switch_msg.query = qs;
  switch_msg.plan = std::make_shared<const PhysicalPlan>(*next);
  const uint64_t switch_t0 = obs::MonotonicNanos();
  SyncShards(TargetShards(*qs), std::move(switch_msg));
  obs::TraceRecord(0, obs::SpanKind::kPlanSwitch, replan_trace, switch_t0,
                   obs::MonotonicNanos(), q->label.c_str(),
                   obs::Fnv1a64(next->Explain(*q->pattern)));
  q->plan = *next;
  q->plan_cost.store(next->estimated_cost, std::memory_order_relaxed);
  end_replan(true);
  return true;
}

Result<std::string> StreamRuntime::ExplainAnalyze(QueryId id) {
  if (stopped_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("runtime is stopped");
  }
  std::shared_ptr<QueryState> qs;
  {
    zs::MutexLock control(control_mu_);
    auto it = queries_.find(id);
    if (it == queries_.end()) {
      return Status::NotFound("no query with that id");
    }
    qs = it->second;
  }
  QueryState* q = qs.get();
  auto profile = std::make_shared<ProfileCtx>();
  ProfileCtx* pctx = profile.get();
  ShardMsg msg;
  msg.kind = ShardMsg::Kind::kCollectProfile;
  msg.query = qs;
  msg.profile = profile;
  if (!SyncShards(TargetShards(*qs), std::move(msg))) {
    return Status::FailedPrecondition("runtime stopped during profile");
  }

  std::ostringstream os;
  os << "query=" << q->label;
  {
    // q->plan is only mutated under replan_mu (ReplanQuery).
    zs::MutexLock replan(q->replan_mu);
    os << " plan=" << q->plan.Explain(*q->pattern);
    os.precision(6);
    os << " cost_est=" << q->plan.estimated_cost;
  }
  // The SyncShards barrier ordered the workers' profile writes before
  // this point; the uncontended lock makes that visible to the analysis.
  uint64_t pairs = 0;
  uint64_t events_pushed = 0;
  bool has_profile = false;
  std::string rendered;
  {
    zs::MutexLock lock(pctx->mu);
    has_profile = pctx->has;
    events_pushed = pctx->events_pushed;
    if (pctx->has) {
      // The observed analogue of the cost estimate: total operator input
      // combinations tried, summed over the merged tree.
      std::function<void(const NodeProfile&)> sum =
          [&](const NodeProfile& n) {
            pairs += n.pairs_tried;
            for (const NodeProfile& c : n.children) sum(c);
          };
      sum(pctx->merged);
      rendered = RenderNodeProfile(pctx->merged);
    }
  }
  q->observed_pairs.store(pairs, std::memory_order_relaxed);
  os << " observed_pairs=" << pairs << " shards="
     << TargetShards(*qs).size() << "\n";
  os << "events_pushed=" << events_pushed << " matches="
     << q->matches.load(std::memory_order_relaxed) << "\n";
  if (has_profile) {
    os << rendered;
  } else {
    os << "(no engine profile collected)\n";
  }
  return os.str();
}

void StreamRuntime::UpdateMetrics() {
  const RuntimeStats stats = Stats();
  obs::Registry& reg = registry_;
  reg.GetGauge("zstream_uptime_seconds", {},
               "Seconds since the runtime was created")
      ->Set(static_cast<int64_t>(stats.elapsed_s));
  reg.GetCounter("zstream_events_ingested_total", {},
                 "Events accepted by Ingest/IngestBatch")
      ->Store(stats.events_ingested);
  reg.GetCounter("zstream_matches_total", {},
                 "Matches emitted across all registered queries")
      ->Store(stats.matches);
  reg.GetCounter("zstream_events_traced_total", {},
                 "Events ingested carrying a sampled trace id")
      ->Store(stats.events_traced);
  reg.GetGauge("zstream_queries", {}, "Currently registered queries")
      ->Set(static_cast<int64_t>(stats.num_queries));
  for (const ShardStats& s : stats.shards) {
    const obs::Labels labels = {{"shard", std::to_string(s.shard)}};
    reg.GetCounter("zstream_shard_events_processed_total", labels,
                   "Events dispatched to engines, per shard")
        ->Store(s.events_processed);
    reg.GetCounter("zstream_shard_batches_total", labels,
                   "Queue batches popped, per shard")
        ->Store(s.batches);
    reg.GetCounter("zstream_shard_events_dropped_total", labels,
                   "Events dropped on a full queue (kDropNewest)")
        ->Store(s.events_dropped);
    reg.GetCounter("zstream_shard_reorder_late_total", labels,
                   "Events dropped as late: beyond the reorder slack, or "
                   "below an engine's timestamp frontier")
        ->Store(s.late_dropped);
    reg.GetGauge("zstream_shard_queue_depth", labels,
                 "Messages waiting in the shard's ring queue")
        ->Set(static_cast<int64_t>(s.queue_depth));
    reg.GetGauge("zstream_shard_reorder_pending", labels,
                 "Events buffered in the shard's reorder stages")
        ->Set(static_cast<int64_t>(s.pending));
  }
  std::vector<std::shared_ptr<QueryState>> queries;
  {
    zs::MutexLock control(control_mu_);
    queries.reserve(queries_.size());
    for (const auto& [qid, qstate] : queries_) queries.push_back(qstate);
  }
  for (const auto& qs : queries) {
    const obs::Labels labels = {{"query", qs->label}};
    reg.GetCounter("zstream_query_matches_total", labels,
                   "Matches emitted by the query")
        ->Store(qs->matches.load(std::memory_order_relaxed));
    reg.GetGauge("zstream_query_plan_cost_estimate", labels,
                 "Estimated cost of the installed plan (rounded; "
                 "refreshed on adaptive switches)")
        ->Set(static_cast<int64_t>(
            qs->plan_cost.load(std::memory_order_relaxed)));
    reg.GetCounter("zstream_query_pairs_observed_total", labels,
                   "Operator input combinations tried (refreshed at "
                   "ExplainAnalyze barriers)")
        ->Store(qs->observed_pairs.load(std::memory_order_relaxed));
    reg.GetGauge("zstream_query_peak_bytes", labels,
                 "Peak tracked engine memory across the query's shards")
        ->Set(qs->tracker->peak_bytes());
  }
}

std::string StreamRuntime::MetricsPrometheus() {
  UpdateMetrics();
  return registry_.RenderPrometheus();
}

std::string StreamRuntime::MetricsJson() {
  UpdateMetrics();
  return registry_.RenderJson();
}

RuntimeStats StreamRuntime::Stats() const {
  RuntimeStats out;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time_)
          .count();
  out.elapsed_s = elapsed;
  out.events_ingested = events_ingested_.load(std::memory_order_relaxed);
  out.events_traced = events_traced_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    ShardStats s;
    s.shard = shard->index;
    s.events_processed =
        shard->events_processed.load(std::memory_order_relaxed);
    s.batches = shard->batches.load(std::memory_order_relaxed);
    s.events_dropped = shard->dropped.load(std::memory_order_relaxed);
    s.queue_depth = shard->queue.size();
    s.throughput_eps =
        elapsed > 0.0 ? static_cast<double>(s.events_processed) / elapsed
                      : 0.0;
    s.late_dropped = shard->late.load(std::memory_order_relaxed);
    s.pending = static_cast<size_t>(
        shard->reorder_pending.load(std::memory_order_relaxed));
    out.events_processed += s.events_processed;
    out.events_dropped += s.events_dropped;
    out.late_dropped += s.late_dropped;
    out.pending += s.pending;
    out.shards.push_back(s);
  }
  {
    zs::MutexLock control(control_mu_);
    out.num_queries = queries_.size();
    for (const auto& [id, qs] : queries_) {
      out.matches += qs->matches.load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::shared_ptr<Gate> StreamRuntime::PauseShard(int shard) {
  if (shard < 0 || static_cast<size_t>(shard) >= shards_.size() ||
      stopped_.load(std::memory_order_relaxed)) {
    return nullptr;
  }
  auto gate = std::make_shared<Gate>();
  {
    zs::MutexLock lock(gates_mu_);
    gates_.push_back(gate);
  }
  ShardMsg msg;
  msg.kind = ShardMsg::Kind::kGate;
  msg.gate = gate;
  if (!shards_[static_cast<size_t>(shard)]->queue.Push(std::move(msg))) {
    return nullptr;
  }
  return gate;
}

}  // namespace zstream::runtime
