// Internal access to Query's engine objects. The public surface keeps
// Query opaque (no raw Engine* escapes api/); code
// that legitimately needs the executor — the runtime layer's
// diagnostics, white-box tests, ablation benchmarks — goes through this
// header instead, so every such use is greppable.
#ifndef ZSTREAM_API_INTERNAL_H_
#define ZSTREAM_API_INTERNAL_H_

#include "api/zstream.h"

namespace zstream::internal {

struct QueryAccess {
  /// The engine backing the query; the same as SingleEngine, kept under
  /// this name for the repo benchmark (zbench).
  static Engine* Core(Query& query) { return query.engine_.get(); }

  /// The engine backing the query, keyed or not.
  static Engine* SingleEngine(Query& query) { return query.engine_.get(); }

  /// The same engine when the query is keyed (hash-partitioned), null
  /// otherwise.
  static Engine* Partitioned(Query& query) {
    return query.partitioned() ? query.engine_.get() : nullptr;
  }
};

}  // namespace zstream::internal

#endif  // ZSTREAM_API_INTERNAL_H_
