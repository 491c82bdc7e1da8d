// Multi-threaded driver for the pre-recorded workloads.
//
// The stock/weblog generators produce one timestamp-ordered event
// vector; this driver replays it from N producer threads into any push
// function (typically runtime::StreamRuntime::Ingest). Two split modes:
//
//   * key-partitioned (partition_field >= 0): each producer owns the
//     keys hashing to it (Value::Hash % num_producers) and pushes them
//     in original order, so every partition key observes an ordered
//     stream. A runtime shard's engine serves all of the shard's keys
//     and needs its whole input in timestamp order, so the match set is
//     exact only when each shard is fed by one producer — the runtime
//     routes by Value::Hash % num_shards, so num_shards must be a
//     multiple of num_producers — or when the runtime's reorder slack
//     covers the skew between producers. Otherwise late events are
//     dropped and counted in RuntimeStats::late_dropped;
//   * contiguous chunks (partition_field < 0): maximum-rate replay where
//     cross-chunk ordering is NOT preserved (use engines with reorder
//     slack, or a single producer, when exactness matters).
//
// The driver is deliberately independent of the runtime: it only needs
// a bool(const EventPtr&) push target, so tests can also aim it at a
// mutex-wrapped Engine or a counter.
#ifndef ZSTREAM_WORKLOAD_DRIVER_H_
#define ZSTREAM_WORKLOAD_DRIVER_H_

#include <functional>
#include <vector>

#include "event/event.h"

namespace zstream {

struct ConcurrentDriveOptions {
  int num_producers = 1;
  /// Schema field index whose value hash assigns events to producers;
  /// < 0 splits into contiguous chunks instead.
  int partition_field = -1;
};

struct ConcurrentDriveResult {
  double elapsed_s = 0.0;
  /// Events for which `push` returned false (runtime stopped / dropped).
  uint64_t rejected = 0;
};

/// Replays `events` through `push` from the configured producer threads;
/// `push` must be thread-safe. Blocks until every producer finishes.
ConcurrentDriveResult DriveConcurrently(
    const std::vector<EventPtr>& events,
    const ConcurrentDriveOptions& options,
    const std::function<bool(const EventPtr&)>& push);

}  // namespace zstream

#endif  // ZSTREAM_WORKLOAD_DRIVER_H_
