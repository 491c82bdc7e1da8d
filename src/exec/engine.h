// The ZStream execution engine (Section 4).
//
// An Engine instantiates one physical tree plan over one pattern and
// drives the batch-iterator model:
//
//   1. Idle rounds: incoming primitive events are offered to every leaf
//      buffer whose pushed-down predicates admit them.
//   2. Once a batch has accumulated and the final (trigger) event class
//      has an unconsumed instance, an assembly round runs: the EAT is
//      computed from the earliest pending trigger event, leaf buffers
//      are purged, and operators assemble bottom-up; completed matches
//      drain from the root.
//
// Ingest has one shape: PushBatch takes a span of events in timestamp
// order (a single event is a batch of one) and admits each in-order run
// into every leaf as a columnar batch. Events older than one already
// seen are dropped and counted; bounded disorder is absorbed before the
// engine, by a ReorderStage at ingress (exec/reorder.h).
//
// Plan switching (Section 5.3) preserves leaf buffers, discards internal
// state, and rewinds non-trigger watermarks for one rebuild round, so a
// switch loses no matches and duplicates none.
//
// A keyed pattern (Section 5.2.2: the analyzer found a partition key)
// runs in the same single operator tree. Leaves reject events whose key
// is null, the pairing operators combine only records of one key through
// key-major buffer indexes, and the round's EAT purge frees expired
// records of every key at once, so keyed state is bounded by the live
// records inside the WITHIN window, not by the number of keys seen.
#ifndef ZSTREAM_EXEC_ENGINE_H_
#define ZSTREAM_EXEC_ENGINE_H_

#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/memory_tracker.h"
#include "exec/node_profile.h"
#include "exec/operators.h"
#include "opt/adaptive.h"
#include "opt/stats.h"
#include "plan/pattern.h"
#include "plan/physical_plan.h"

namespace zstream {

/// \brief One completed pattern match.
struct Match {
  TimeSpan span;
  /// Component events slotted by pattern class (negated classes null).
  std::vector<EventPtr> slots;
  EventGroupPtr group;  // Kleene-closure events, when present

  std::string ToString() const;
};

/// Consumes one completed match. The engine lends one reused Match for
/// every call: it is valid for the duration of the call only. Move from
/// it (slots, group) or copy it to keep it; the engine overwrites every
/// field for the next match and clears it after each assembly round. The
/// callback must not re-enter the engine (Push, Finish, SwitchPlan, ...).
using MatchCallback = std::function<void(Match&&)>;

/// Evaluates the pattern's RETURN clause against a match.
std::vector<Value> ProjectMatch(const Pattern& pattern, const Match& match);

struct EngineOptions {
  /// Primitive events per batch before an assembly round is attempted.
  int batch_size = 64;
  /// Use hash indexes for equality predicates (Section 5.2.2).
  bool use_hash_indexes = true;
  /// Enable runtime statistics + cost-based plan adaptation (Section 5.3).
  bool adaptive = false;
  AdaptiveOptions adaptive_options;
  /// Collect runtime statistics even when not adapting.
  bool collect_stats = false;
  /// Per-node assembly timing (EXPLAIN ANALYZE `time=` column): two
  /// clock reads per operator per assembly round. Off by default; the
  /// per-node counters are always on (and near-free, see
  /// bench_obs_overhead).
  bool profile = false;
  /// Slow-event log threshold in wall nanoseconds: a PushBatch call
  /// whose processing (including the assembly rounds it triggers)
  /// exceeds this counts one slow event and emits one rate-limited
  /// ZS_LOG(Warn) naming the query and its hottest plan node. A Push is
  /// a batch of one, so it is timed per event. 0 disables; > 0 implies
  /// per-node timing.
  int64_t slow_event_ns = 0;
  /// Query name used in slow-event logs and metric labels.
  std::string label;
};

/// \brief Query engine: one operator tree per query (per shard), keyed
/// or not. Single-threaded: a session Query or one runtime shard worker
/// drives each instance.
///
/// The engine is its own MatchSink: the plan root streams completed
/// matches straight into OnMatch (count / trace / callback) instead of
/// materializing them into a root buffer that DrainRoot would discard,
/// and the callback borrows one reused Match (see MatchCallback).
///
/// The counters are inline non-virtual members; zbench/src/workloads.cc
/// builds with -Werror and relies on that (GCC's -Wnonnull flags its
/// null-guarded call through a virtual accessor).
class Engine final : private MatchSink {
 public:
  using MatchCallback = zstream::MatchCallback;

  /// Instantiates `plan` (validated against `pattern`). `tracker` may be
  /// null, in which case the engine owns a private tracker.
  static Result<std::unique_ptr<Engine>> Create(
      PatternPtr pattern, const PhysicalPlan& plan,
      const EngineOptions& options = {}, MemoryTracker* tracker = nullptr);

  ~Engine() override;
  ZS_DISALLOW_COPY_AND_ASSIGN(Engine);

  /// The one ingest path: admits each in-order run of the span into
  /// every leaf as a columnar batch (term-major predicate admission) and
  /// runs an assembly round at every EngineOptions::batch_size events.
  /// An event older than one already seen is dropped and counted in
  /// late_events(). Timed as one unit for slow-event logging.
  void PushBatch(const EventBatch& batch);

  /// A batch of one.
  void Push(const EventPtr& event) { PushBatch(EventBatch{&event, 1}); }

  /// Forces an assembly round (used at batch boundaries / stream end).
  void AssemblyRound();

  /// Runs an assembly round for any pending partial batch, then frees
  /// every record too old to join a future match. The engine remains
  /// usable afterwards; Finish is a barrier, not a shutdown.
  void Finish();

  /// Installs a match consumer; without one, matches are only counted.
  void SetMatchCallback(MatchCallback cb) { callback_ = std::move(cb); }

  /// Replaces the physical plan between assembly rounds (Section 5.3).
  Status SwitchPlan(const PhysicalPlan& plan);

  /// Windowed runtime statistics as a planner catalog; components with
  /// too few observations fall back to `defaults`, and so does the whole
  /// catalog when the engine is not collecting stats. Used by the
  /// runtime's merged re-planning.
  StatsCatalog StatsSnapshot(const StatsCatalog& defaults) const;

  const Pattern& pattern() const { return *pattern_; }
  const PhysicalPlan& current_plan() const { return plan_; }
  std::string ExplainPlan() const { return plan_.Explain(*pattern_); }

  /// Live per-plan-node counters for EXPLAIN ANALYZE (see
  /// node_profile.h); the runtime merges its shards' profiles.
  NodeProfile Profile() const;
  /// Renders the plan tree annotated with live counters/timings, plus
  /// engine totals and predicted-vs-observed cost. `ingress_late` adds
  /// the drops of a reorder stage in front of the engine to `late=`.
  std::string ExplainAnalyze(uint64_t ingress_late = 0) const;

  /// Human-readable query name for slow-event logs and metric labels.
  void SetLabel(const std::string& label) { options_.label = label; }
  const std::string& label() const { return options_.label; }

  /// FNV-1a 64 hash of the installed plan's Explain rendering, refreshed
  /// on every Build/SwitchPlan. Spans and match provenance
  /// (obs/trace.h) carry it so a match stays attributable to the exact
  /// plan shape that produced it even after an adaptive switch.
  uint64_t plan_fingerprint() const { return plan_fingerprint_; }

  uint64_t num_matches() const { return num_matches_; }
  uint64_t events_pushed() const { return events_pushed_; }
  uint64_t assembly_rounds() const { return assembly_rounds_; }
  uint64_t plan_switches() const { return plan_switches_; }
  /// Events dropped for arriving below the engine's timestamp frontier
  /// (the engine needs its input in timestamp order across all keys).
  uint64_t late_events() const { return late_events_; }
  /// PushBatch calls whose processing exceeded
  /// EngineOptions::slow_event_ns.
  uint64_t slow_events() const { return slow_events_; }
  MemoryTracker& memory() { return *tracker_; }
  WindowedClassStats* windowed_stats() { return windowed_stats_.get(); }

  /// Total operator input combinations tried in the current plan
  /// (the empirical analogue of the cost model's Ci terms).
  uint64_t pairs_tried() const;

  /// Keyed pattern: the number of distinct partition keys with live
  /// records in any buffer (bounded by the keys active inside the
  /// window, not by the keys ever seen). 0 for an unkeyed pattern.
  /// Scans the live records: diagnostics, not a per-event call.
  size_t num_partitions() const;

 private:
  Engine(PatternPtr pattern, const EngineOptions& options,
         MemoryTracker* tracker);

  Status Build(const PhysicalPlan& plan, bool initial,
               bool pre_verified = false);
  Result<OperatorNode*> BuildNode(const PhysNodePtr& node,
                                  std::vector<ExprPtr>* unattached);
  void AttachPredicates(OperatorNode* op, std::vector<ExprPtr>* unattached);
  void DrainRoot(Timestamp eat);
  /// Purges every buffer of records that start before
  /// max_ts_seen_ - window: future events arrive at or after
  /// max_ts_seen_, so no future match can reach back to them.
  void PurgeExpired();
  /// Keyed pattern: marks `op` as pairing by key and, with hash indexes
  /// on, indexes the probed buffers of `probed` (null entries skipped)
  /// on the partition key.
  void KeyOperator(OperatorNode* op,
                   std::initializer_list<OperatorNode*> probed);
  void MaybeAdapt();
  void LogSlowEvent(uint64_t elapsed_ns, size_t batch_size);

  // MatchSink: the plan root calls straight into the engine, which
  // counts the match and, for a consumer or a sampled trace, composes it
  // into match_.
  void OnMatch(Timestamp start_ts, Timestamp end_ts, const RecordRef& a,
               const RecordRef* b, const EventGroup* group) override;
  /// Nulls match_'s slots (keeping their storage; re-sized only after a
  /// consumer moved them out) and drops its group.
  void ClearMatch();
  /// The Kleene path's per-match allocation: shares a copy of a KSEQ's
  /// borrowed group into match_.
  void ShareGroup(const EventGroup& group);

  /// Cold path for sampled matches: records the kMatch span and the
  /// match's provenance (contributing event ids, operator path, plan
  /// fingerprint) into the global tracer.
  void RecordMatchTrace(uint64_t trace_id, const Match& match);

  PatternPtr pattern_;
  EngineOptions options_;
  MemoryTracker* tracker_;
  std::unique_ptr<MemoryTracker> owned_tracker_;

  PhysicalPlan plan_;
  std::vector<std::unique_ptr<LeafNode>> leaves_;  // one per class, persistent
  std::vector<std::unique_ptr<OperatorNode>> internal_nodes_;
  OperatorNode* root_ = nullptr;
  std::vector<OperatorNode*> assembly_order_;  // post-order, internal only
  std::vector<int> trigger_classes_;
  /// Pattern-level index of each multi-predicate (for stats attribution).
  std::vector<int> pred_index_of_;
  /// Classes that can be unbound in a record (negated / Kleene / inside
  /// a disjunction branch); such classes are excluded from hash routing.
  std::vector<bool> optional_class_;
  /// The pattern's partition key; nullopt when unkeyed.
  std::optional<KeySpec> part_key_;

  std::unique_ptr<WindowedClassStats> windowed_stats_;
  std::unique_ptr<AdaptiveController> adaptive_;

  MatchCallback callback_;
  /// The Match lent to callback_ for every match (see MatchCallback):
  /// composed in place by OnMatch, so delivery allocates nothing and a
  /// slot holding the same event as in the previous match costs no
  /// refcount. Cleared at the end of each assembly round so it never
  /// pins an event past its purge.
  Match match_;
  int pending_in_batch_ = 0;
  Timestamp max_ts_seen_ = kMinTimestamp;
  /// EAT of the assembly round in flight: OnMatch drops matches that
  /// start before it (mirrors DrainRoot's filter for buffered roots).
  Timestamp round_eat_ = kMinTimestamp;
  /// Trace id sampled at round start; nonzero makes OnMatch compose the
  /// payload so provenance can be recorded.
  uint64_t cur_trace_ = 0;
  uint64_t late_events_ = 0;
  uint64_t events_pushed_ = 0;
  uint64_t num_matches_ = 0;
  uint64_t assembly_rounds_ = 0;
  uint64_t plan_switches_ = 0;
  bool rebuild_round_pending_ = false;
  /// Per-node timing active (options_.profile or a slow-event
  /// threshold); resolved once at construction.
  bool profiling_ = false;
  uint64_t slow_events_ = 0;
  uint64_t slow_suppressed_ = 0;
  uint64_t last_slow_log_ns_ = 0;
  uint64_t plan_fingerprint_ = 0;
  /// Cached Explain rendering of the installed plan (refreshed with
  /// plan_fingerprint_), so per-match provenance recording copies a
  /// fixed buffer instead of re-rendering the plan.
  char op_path_[96] = {};
  /// Provenance throttle: at most kProvenancePerTrace full provenance
  /// records per traced batch (kMatch spans stay per match).
  static constexpr uint32_t kProvenancePerTrace = 16;
  uint64_t prov_trace_ = 0;
  uint32_t prov_in_trace_ = 0;
};

/// Kept only for the repo benchmark's compile contract (zbench names
/// these types); keyed and unkeyed queries, in a session or on a runtime
/// shard, all run on Engine.
using EngineCore = Engine;
using PartitionedEngine = Engine;

}  // namespace zstream

#endif  // ZSTREAM_EXEC_ENGINE_H_
