// The benchmark's three workloads and the three user entry points they
// run through: the embedded session (api/), the sharded runtime
// (runtime/) and the TCP server with its client (net/).
#ifndef ZBENCH_WORKLOADS_H_
#define ZBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/zstream.h"
#include "harness.h"
#include "runtime/runtime_options.h"

namespace zbench {

enum class Entry { kSession, kRuntime, kServer };

struct WorkloadSpec {
  std::string name;
  Entry entry = Entry::kSession;
  std::string stream;
  std::string stream_ddl;
  std::string query;  // PATTERN text
  int shards = 1;
  zstream::Duration reorder_slack = 0;
  /// Open-loop phase rate, events/s: about half the max-rate throughput
  /// measured when the benchmark was defined (see README.md).
  double open_loop_rate = 0.0;
  /// Events of the input the loopback cut point of the ledger replays.
  size_t ledger_wire_events = 0;
};

const WorkloadSpec* FindWorkload(const std::string& name);

/// The workload's runtime configuration (shards, queue, reorder slack,
/// blocking backpressure), shared by its runtime and server entries.
zstream::runtime::RuntimeOptions RuntimeOpts(const WorkloadSpec& spec);

/// One generated input. Timestamps are unique, so a match's end
/// timestamp names the event its latency is measured from.
struct Input {
  /// What producers send (weblog-keyed: bounded timestamp disorder).
  std::vector<zstream::EventPtr> send_order;
  /// The same events in timestamp order (reference and engine cuts).
  std::vector<zstream::EventPtr> ts_order;
  /// (timestamp, index in send_order), sorted by timestamp.
  std::vector<std::pair<zstream::Timestamp, uint32_t>> send_index;

  int64_t SendIndex(zstream::Timestamp ts) const;
  Input Prefix(size_t n) const;
};

Input Generate(const WorkloadSpec& spec, uint64_t seed, bool tiny);

/// Receives every match a pass produces: digests it and, in the open-loop
/// phase, records its latency from the due time of its last event.
/// Callers serialize calls (single thread or under a lock).
class Consumer {
 public:
  /// Enables latency recording against `input`'s schedule at `period_ns`
  /// per event; Start() then fixes the schedule's origin.
  void Schedule(const Input* input, double period_ns) {
    input_ = input;
    period_ns_ = period_ns;
  }
  void Start(int64_t t0_ns) { t0_ns_.store(t0_ns, std::memory_order_release); }

  /// Reads the clock itself (at most once per 64 matches sharing an end
  /// timestamp).
  void OnMatch(const zstream::Match& match);
  /// Delivery time supplied by the caller.
  void OnMatchAt(const zstream::Match& match, int64_t now_ns);

  Digest digest;
  Samples latency_ns;
  /// Every 1024th match is rendered and compared against
  /// runtime::CanonicalMatchKey when set.
  bool check_keys = false;
  uint64_t key_mismatches = 0;

 private:
  int64_t DueNs(int64_t send_index) const;

  const Input* input_ = nullptr;
  double period_ns_ = 0.0;
  std::atomic<int64_t> t0_ns_{0};
  zstream::Timestamp last_end_ = INT64_MIN;
  int64_t last_due_ = 0;
  int64_t cached_now_ = 0;
  int since_read_ = 0;
};

/// One open connection of a workload to the program: set up in Open,
/// driven by Send, drained by Finish.
class Path {
 public:
  virtual ~Path() = default;
  virtual void Send(const zstream::EventPtr* events, size_t n) = 0;
  /// The entry point's barrier (Query::Finish, StreamRuntime::Flush,
  /// Client::Flush). False on error.
  virtual bool Finish() = 0;
  /// Waits until every match Finish reported has reached the consumer.
  virtual bool AwaitDelivery() { return true; }
  /// Matches as counted by the program.
  virtual uint64_t Matches() = 0;
  /// Events dropped, late-dropped or rejected.
  virtual uint64_t Failed() = 0;
  /// Stops and joins any receiver thread; the receiver figures below are
  /// final afterwards.
  virtual void StopReceiving() {}
  /// CPU ns the match receiver spent (server entry only).
  virtual int64_t ReceiverCpuNs() const { return 0; }
  /// Mean wire bytes of a received match frame (server entry only).
  virtual double MatchWireBytes() const { return 0.0; }
  const std::string& error() const { return error_; }

 protected:
  std::string error_;
};

/// Opens `entry` for the workload (session, runtime or server). Matches
/// go to `consumer`. Null with *error set on failure.
std::unique_ptr<Path> OpenPath(const WorkloadSpec& spec, Entry entry,
                               Consumer* consumer, std::string* error);

struct PassResult {
  bool ok = false;
  std::string error;
  double setup_s = 0.0;
  /// First ingest until the barrier returned.
  double elapsed_s = 0.0;
  /// First ingest until every match reached the consumer.
  double delivered_s = 0.0;
  double cpu_s = 0.0;
  uint64_t events = 0;
  uint64_t failed = 0;
  uint64_t program_matches = 0;
  int64_t receiver_cpu_ns = 0;
  double match_wire_bytes = 0.0;
  Digest digest;
  Samples latency_ns;
  /// Send time minus due time of every event (open loop only).
  std::vector<float> lag_ns;
  /// Span covering first ingest to the barrier (-1 when untraced).
  int pass_span = -1;
};

inline constexpr size_t kSendChunk = 1024;

/// One pass over `input`: opens the path (timed as set-up), sends every
/// event, and closes with the barrier. rate == 0 sends at maximum rate;
/// otherwise events are due at a fixed rate and latency is measured from
/// their due time. Spans go under `parent` when the log is enabled.
PassResult RunPass(const WorkloadSpec& spec, Entry entry, const Input& input,
                   double rate, SpanLog* spans, int parent);

/// Untimed reference digest: the session entry over the timestamp-ordered
/// input, with canonical-key agreement checked on sampled matches.
Digest ReferenceDigest(const WorkloadSpec& spec, const Input& input,
                       const zstream::CompileOptions& options,
                       uint64_t* key_mismatches);

}  // namespace zbench

#endif  // ZBENCH_WORKLOADS_H_
