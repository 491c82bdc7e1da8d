// Differential driver: one (pattern, trace) case through every
// execution path, asserting canonical match-set equality against the
// brute-force Oracle.
//
// Paths (each compares the sorted multiset of MatchSignature keys):
//   oracle            reference (testing/oracle.h)
//   tree:<strategy>   Engine (keyed or not) via ZStream::Compile under
//                     kOptimal (batch 64, batch 1, hash indexes off,
//                     partition detection off) plus kLeftDeep,
//                     kRightDeep and kNegationTop when applicable
//   nfa               SASE-style baseline (match counts only: the NFA
//                     reports counts, not match objects)
//   runtime:<N>       sharded StreamRuntime, 1 and 4 shards
//   net               loopback TCP server + client over the runtime
//
// Out-of-order traces run with reorder slack equal to the trace's
// measured disorder, so every path observes the same timestamp-ordered
// stream and the Oracle's order-independent semantics apply.
#ifndef ZSTREAM_TESTING_DIFFERENTIAL_H_
#define ZSTREAM_TESTING_DIFFERENTIAL_H_

#include <string>
#include <vector>

#include "exec/engine.h"
#include "testing/oracle.h"
#include "testing/pattern_gen.h"
#include "testing/trace_gen.h"

namespace zstream::testing {

struct DifferentialOptions {
  bool tree = true;
  bool nfa = true;
  bool runtime = true;
  bool net = true;
  /// Restrict to one named path (e.g. "tree:right-deep", "runtime:4");
  /// empty runs everything enabled above.
  std::string only_path;
};

/// One disagreement between a path and the oracle.
struct Divergence {
  std::string path;
  size_t expected = 0;  // oracle match count
  size_t got = 0;
  std::string detail;   // first differing canonical keys
};

struct CaseReport {
  /// False when any path diverged or an unexpected error occurred.
  bool ok = true;
  /// Paths actually executed (inapplicable strategies are skipped).
  int paths_run = 0;
  size_t oracle_matches = 0;
  std::vector<Divergence> divergences;
  /// Non-empty on infrastructure failure (analyze/compile/socket error).
  std::string error;
};

/// Canonical key for an engine-produced match: positive slots plus the
/// Kleene group, negator slots stripped (plans differ in recording them).
std::string EngineMatchKey(const Pattern& pattern, const Match& match);

/// CREATE STREAM statement for `name` with `schema`'s fields.
std::string CreateStreamDdl(const std::string& name, const Schema& schema);

class DifferentialDriver {
 public:
  explicit DifferentialDriver(DifferentialOptions options = {});

  CaseReport RunCase(const GeneratedPattern& pattern,
                     const GeneratedTrace& trace) const;

  /// Greedy event-drop minimization of a failing trace: returns the
  /// smallest subtrace (arrival order preserved) on which RunCase still
  /// reports the failure. `options_` should be narrowed to the diverging
  /// path first — minimization re-runs the case per candidate.
  std::vector<EventPtr> MinimizeTrace(const GeneratedPattern& pattern,
                                      std::vector<EventPtr> events) const;

 private:
  DifferentialOptions options_;
};

}  // namespace zstream::testing

#endif  // ZSTREAM_TESTING_DIFFERENTIAL_H_
