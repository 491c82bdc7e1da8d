// Per-plan-node instrumentation snapshots (the EXPLAIN ANALYZE tree).
//
// A NodeProfile mirrors one operator of an engine's plan tree with its
// live counters: records in/out, input combinations tried, current
// buffer occupancy, and cumulative assembly time when the engine runs
// with EngineOptions::profile. Profiles from engines sharing one plan
// shape (the shard engines of the concurrent runtime) merge by
// structural position, so the rendered
// tree shows totals across the whole query regardless of how execution
// was split.
#ifndef ZSTREAM_EXEC_NODE_PROFILE_H_
#define ZSTREAM_EXEC_NODE_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace zstream {

/// \brief One operator's counters, with children in plan order.
struct NodeProfile {
  /// Operator rendering, e.g. "SEQ", "KSEQ", "LEAF IBM".
  std::string label;
  /// Records arriving from children since engine start (for a leaf:
  /// primitive events offered to it, before predicate admission).
  uint64_t events_in = 0;
  /// Records appended to this node's output buffer (for a leaf:
  /// admitted events; for the plan root: emitted matches).
  uint64_t records_out = 0;
  /// Input combinations tried (the empirical Ci of the cost model).
  uint64_t pairs_tried = 0;
  /// Records currently held in the output buffer.
  uint64_t buffer_records = 0;
  /// Cumulative wall time spent in Assemble (0 unless profiling).
  uint64_t eval_ns = 0;
  std::vector<NodeProfile> children;

  bool SameShape(const NodeProfile& other) const;
};

/// Sums `from` into `into`. The trees must have identical shape (same
/// labels, same child arity, recursively) — true for any two engines
/// instantiated from one PhysicalPlan; returns Internal otherwise.
Status MergeNodeProfile(NodeProfile* into, const NodeProfile& from);

/// Renders the profile tree, one node per line, two-space indented:
///   SEQ in=80 out=12 pairs=640 buf=0 time=1.24ms
///     LEAF IBM in=60000 out=20000 buf=31
/// `time=` is omitted for nodes that were never timed.
std::string RenderNodeProfile(const NodeProfile& root);

}  // namespace zstream

#endif  // ZSTREAM_EXEC_NODE_PROFILE_H_
