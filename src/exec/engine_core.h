// The shard-facing engine interface.
//
// runtime::StreamRuntime hosts many queries, each instantiated once per
// shard as an Engine (keyed or not); a shard worker drives its engines
// through this interface. Implementations are single-threaded
// (one shard worker owns each instance); cross-thread aggregation happens
// above, via atomic match counters, the thread-safe MemoryTracker and the
// merged StatsCatalog snapshots.
#ifndef ZSTREAM_EXEC_ENGINE_CORE_H_
#define ZSTREAM_EXEC_ENGINE_CORE_H_

#include <functional>
#include <string>

#include "common/status.h"
#include "event/event.h"
#include "exec/node_profile.h"

namespace zstream {

struct Match;
class MemoryTracker;
class Pattern;
struct PhysicalPlan;
class StatsCatalog;

/// Consumes one completed match (moved in).
using MatchCallback = std::function<void(Match&&)>;

/// \brief A borrowed span of events for columnar ingest. The pointers
/// stay owned by the producer; the span must outlive the PushBatch call.
struct EventBatch {
  const EventPtr* data = nullptr;
  size_t count = 0;
};

/// \brief The shard-facing driving interface implemented by Engine.
class EngineCore {
 public:
  virtual ~EngineCore() = default;

  /// Streams one event in; may trigger assembly rounds.
  virtual void Push(const EventPtr& event) = 0;

  /// Streams a span of events in; may trigger assembly rounds. The
  /// default forwards event-at-a-time; engines with a columnar ingest
  /// path override this to amortize per-event dispatch.
  virtual void PushBatch(const EventBatch& batch) {
    for (size_t i = 0; i < batch.count; ++i) Push(batch.data[i]);
  }

  /// Flushes pending state (reorder stages, partial batches). The engine
  /// remains usable afterwards; Finish is a barrier, not a shutdown.
  virtual void Finish() = 0;

  /// Installs a match consumer; without one, matches are only counted.
  virtual void SetMatchCallback(MatchCallback cb) = 0;

  /// Replaces the physical plan between assembly rounds (Section 5.3).
  virtual Status SwitchPlan(const PhysicalPlan& plan) = 0;

  /// Windowed runtime statistics as a planner catalog; components with
  /// too few observations (or engines not collecting stats) fall back to
  /// `defaults`. Used by the runtime's merged re-planning.
  virtual StatsCatalog StatsSnapshot(const StatsCatalog& defaults) const = 0;

  virtual uint64_t num_matches() const = 0;
  virtual uint64_t events_pushed() const = 0;
  /// Events dropped for arriving below the engine's timestamp frontier
  /// (the engine needs its input in timestamp order across all keys).
  virtual uint64_t late_events() const = 0;
  virtual const Pattern& pattern() const = 0;
  virtual MemoryTracker& memory() = 0;

  /// Live per-plan-node counters for EXPLAIN ANALYZE (see
  /// node_profile.h); the runtime merges its shards' profiles.
  virtual NodeProfile Profile() const = 0;

  /// Human-readable query name for slow-event logs and metric labels.
  virtual void SetLabel(const std::string& label) = 0;

  /// FNV-1a 64 hash of the installed plan's Explain rendering. Spans
  /// and match provenance (obs/trace.h) carry this so a match stays
  /// attributable to the exact plan shape that produced it even after
  /// an adaptive switch. 0 when no plan is installed yet.
  virtual uint64_t plan_fingerprint() const { return 0; }
};

}  // namespace zstream

#endif  // ZSTREAM_EXEC_ENGINE_CORE_H_
