// Client-mode workload replay: drives a pre-recorded event vector (the
// stock/weblog generators) over the wire into a running zstream_server,
// mirroring workload/driver.h's in-process DriveConcurrently.
//
// Each connection is one net::Client on its own thread (clients are not
// thread-safe), pushing its share of the trace in batched kEventBatch
// frames. The same two split modes as the in-process driver apply:
//
//   * key-partitioned (partition_field >= 0): connection c owns the
//     keys hashing to it and sends them in original order. Per-key
//     order is preserved, but a server shard needs its whole input in
//     timestamp order: match sets are exact when the server's shard
//     count is a multiple of num_connections (each shard then hears
//     from one connection) or its --reorder-slack covers the skew
//     between connections; otherwise late events are dropped and
//     counted (zstream_shard_reorder_late_total);
//   * contiguous chunks (partition_field < 0): maximum-rate replay;
//     cross-chunk order is NOT preserved (run the server with
//     --reorder-slack, or use a single connection, when exactness
//     matters).
#ifndef ZSTREAM_WORKLOAD_NET_REPLAY_H_
#define ZSTREAM_WORKLOAD_NET_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "event/event.h"

namespace zstream {

struct NetReplayOptions {
  int num_connections = 1;
  /// Schema field index whose value hash assigns events to connections;
  /// < 0 splits into contiguous chunks instead.
  int partition_field = -1;
  /// Events per kEventBatch frame (one ack round-trip per batch).
  size_t batch_size = 1024;
};

struct NetReplayResult {
  uint64_t accepted = 0;
  uint64_t dropped = 0;
  /// True when any ack carried the server's throttle flag.
  bool throttled = false;
  double elapsed_s = 0.0;
  double events_per_sec = 0.0;
};

/// Replays `events` into stream `stream` on the server at host:port.
/// Blocks until every connection finished; fails if any connection
/// could not be established or any batch was rejected with an error.
Result<NetReplayResult> ReplayOverWire(const std::string& host,
                                       uint16_t port,
                                       const std::string& stream,
                                       const std::vector<EventPtr>& events,
                                       const NetReplayOptions& options = {});

}  // namespace zstream

#endif  // ZSTREAM_WORKLOAD_NET_REPLAY_H_
