// Runtime counters as a typed in-process snapshot: per-shard
// throughput, queue depth and drop counters, read by
// StreamRuntime::Stats() for tests and benchmarks. This is not an export
// format: StreamRuntime::UpdateMetrics copies the snapshot into the
// metrics registry, whose Prometheus/JSON documents (METRICS, /metrics,
// /metrics.json) are the one exported view (docs/observability.md).
#ifndef ZSTREAM_RUNTIME_RUNTIME_STATS_H_
#define ZSTREAM_RUNTIME_RUNTIME_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace zstream::runtime {

/// \brief One shard's counters at snapshot time.
struct ShardStats {
  int shard = 0;
  uint64_t events_processed = 0;
  uint64_t batches = 0;
  /// Events rejected by BackpressurePolicy::kDropNewest on a full queue.
  uint64_t events_dropped = 0;
  size_t queue_depth = 0;
  /// events_processed / seconds since the runtime started.
  double throughput_eps = 0.0;
  /// Events dropped as late — by the reorder stage
  /// (RuntimeOptions::reorder_slack > 0) for arriving later than the
  /// slack allows, or by an engine for arriving below its timestamp
  /// frontier (counted once per engine) — and events currently buffered
  /// in the reorder stage awaiting their release timestamp.
  uint64_t late_dropped = 0;
  size_t pending = 0;
};

/// \brief Snapshot of the whole runtime. (The per-engine windowed
/// estimator that used to share this name is now
/// zstream::WindowedClassStats in opt/stats.h; this class aggregates
/// shard-level serving counters and is unrelated to cost estimation.)
class RuntimeStats {
 public:
  std::vector<ShardStats> shards;
  double elapsed_s = 0.0;
  uint64_t events_ingested = 0;
  /// Events ingested carrying a sampled trace id (obs/trace.h).
  uint64_t events_traced = 0;
  uint64_t events_processed = 0;
  uint64_t events_dropped = 0;
  /// Matches emitted by every query ever registered: unregistered
  /// queries keep their share, so the total never goes backwards.
  uint64_t matches = 0;
  size_t num_queries = 0;
  /// Totals of the per-shard late and reorder-stage counters.
  uint64_t late_dropped = 0;
  size_t pending = 0;
};

}  // namespace zstream::runtime

#endif  // ZSTREAM_RUNTIME_RUNTIME_STATS_H_
