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
#include "exec/engine_core.h"
#include "exec/operators.h"
#include "exec/reorder.h"
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
  /// Bounded out-of-orderness tolerated on Push (Section 4.1's
  /// reordering operator); 0 means input must arrive in order, and
  /// out-of-order events are dropped and counted.
  Duration reorder_slack = 0;
  /// Per-node assembly timing (EXPLAIN ANALYZE `time=` column): two
  /// clock reads per operator per assembly round. Off by default; the
  /// per-node counters are always on (and near-free, see
  /// bench_obs_overhead).
  bool profile = false;
  /// Slow-event log threshold in wall nanoseconds: a Push whose
  /// processing (including any assembly round it triggers) exceeds this
  /// emits one rate-limited ZS_LOG(Warn) naming the query and its
  /// hottest plan node. 0 disables; > 0 implies per-node timing.
  int64_t slow_event_ns = 0;
  /// Query name used in slow-event logs and metric labels.
  std::string label;
};

/// \brief Query engine: one operator tree per query (per shard), keyed
/// or not.
///
/// The engine is its own MatchSink: the plan root streams completed
/// matches straight into OnMatch (count / trace / callback) instead of
/// materializing them into a root buffer that DrainRoot would discard.
///
/// `final` lets calls through an `Engine*` inline the EngineCore
/// counters; zbench/src/workloads.cc builds with -Werror and relies on
/// that (GCC's -Wnonnull flags its null-guarded virtual call otherwise).
class Engine final : public EngineCore, private MatchSink {
 public:
  using MatchCallback = zstream::MatchCallback;

  /// Instantiates `plan` (validated against `pattern`). `tracker` may be
  /// null, in which case the engine owns a private tracker.
  static Result<std::unique_ptr<Engine>> Create(
      PatternPtr pattern, const PhysicalPlan& plan,
      const EngineOptions& options = {}, MemoryTracker* tracker = nullptr);

  ~Engine() override;
  ZS_DISALLOW_COPY_AND_ASSIGN(Engine);

  /// Streams one event in; may trigger an assembly round.
  void Push(const EventPtr& event) override;

  /// Columnar ingest: offers in-order runs of the span to every leaf as
  /// a batch (term-major predicate admission), triggering assembly
  /// rounds at batch boundaries exactly as repeated Push would.
  void PushBatch(const EventBatch& batch) override;

  /// Offers an event to the leaves without round-triggering.
  void Offer(const EventPtr& event);

  /// Forces an assembly round (used at batch boundaries / stream end).
  void AssemblyRound();

  /// Flushes the reorder stage (if any) and any pending partial batch,
  /// then frees every record too old to join a future match.
  void Finish() override;

  /// Installs a match consumer; without one, matches are only counted.
  void SetMatchCallback(MatchCallback cb) override {
    callback_ = std::move(cb);
  }

  /// Replaces the physical plan between assembly rounds (Section 5.3).
  Status SwitchPlan(const PhysicalPlan& plan) override;

  /// Windowed stats as a catalog; `defaults` when not collecting stats.
  StatsCatalog StatsSnapshot(const StatsCatalog& defaults) const override;

  const Pattern& pattern() const override { return *pattern_; }
  const PhysicalPlan& current_plan() const { return plan_; }
  std::string ExplainPlan() const { return plan_.Explain(*pattern_); }

  /// Live per-node counter tree (see node_profile.h).
  NodeProfile Profile() const override;
  /// Renders the plan tree annotated with live counters/timings, plus
  /// engine totals and predicted-vs-observed cost.
  std::string ExplainAnalyze() const;

  void SetLabel(const std::string& label) override {
    options_.label = label;
  }
  const std::string& label() const { return options_.label; }

  /// FNV-1a 64 of the installed plan's Explain rendering (refreshed on
  /// every Build/SwitchPlan); see EngineCore::plan_fingerprint.
  uint64_t plan_fingerprint() const override { return plan_fingerprint_; }

  uint64_t num_matches() const override { return num_matches_; }
  uint64_t events_pushed() const override { return events_pushed_; }
  uint64_t assembly_rounds() const { return assembly_rounds_; }
  uint64_t plan_switches() const { return plan_switches_; }
  /// Events dropped for arriving out of order beyond the slack (by the
  /// reorder stage, or below the timestamp frontier without one).
  uint64_t late_events() const override {
    return late_events_ + (reorder_ != nullptr ? reorder_->late_dropped() : 0);
  }
  /// Events whose processing exceeded EngineOptions::slow_event_ns.
  uint64_t slow_events() const { return slow_events_; }
  MemoryTracker& memory() override { return *tracker_; }
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
  void PushOrdered(const EventPtr& event);
  /// Offers an ordered span to every leaf (batch admission); late
  /// events inside the span are dropped and counted like Offer does.
  void OfferSpan(const EventPtr* events, size_t n);
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
  void LogSlowEvent(uint64_t elapsed_ns);

  // MatchSink: the plan root calls straight into the engine.
  bool NeedsPayload() const override;
  void OnMatch(Timestamp start_ts, Timestamp end_ts, const EventPtr* slots,
               int num_slots, const EventGroupPtr* group) override;

  /// Cold path for sampled matches: records the kMatch span and the
  /// match's provenance (contributing event ids, operator path, plan
  /// fingerprint) into the global tracer.
  void RecordMatchTrace(uint64_t trace_id, Timestamp start_ts,
                        Timestamp end_ts, const EventPtr* slots,
                        int num_slots, const EventGroup* group);

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
  std::unique_ptr<ReorderStage> reorder_;

  MatchCallback callback_;
  int pending_in_batch_ = 0;
  Timestamp max_ts_seen_ = kMinTimestamp;
  /// EAT of the assembly round in flight: OnMatch drops matches that
  /// start before it (mirrors DrainRoot's filter for buffered roots).
  Timestamp round_eat_ = kMinTimestamp;
  /// Trace id sampled at round start; nonzero makes sinks assemble
  /// payloads so provenance can be recorded.
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

/// Kept only for the repo benchmark's compile contract (zbench names the
/// type); keyed and unkeyed queries both run on Engine.
using PartitionedEngine = Engine;

}  // namespace zstream

#endif  // ZSTREAM_EXEC_ENGINE_H_
