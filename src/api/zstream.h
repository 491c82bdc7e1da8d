// Public facade: a catalog of named streams + named queries, a DDL
// command layer, and opaque Query handles.
//
//   zstream::ZStream zs;
//   zs.Execute("CREATE STREAM stock "
//              "(id INT, name STRING, price DOUBLE, volume INT, ts INT)");
//   auto ddl = zs.Execute(
//       "CREATE QUERY rally ON stock AS "
//       "PATTERN IBM;Sun;Oracle WHERE IBM.price > Sun.price "
//       "WITHIN 200 RETURN IBM, Sun, Oracle");
//   zstream::Query* query = ddl->query;
//   query->SetMatchCallback([](zstream::Match&& m) { ... });
//     // `m` is lent for the call only: read it, or move from / copy it
//     // to keep it; do not call back into the query from here.
//   for (const auto& e : events) query->Push(e);
//   query->Finish();
//
// Ad-hoc compilation works against any catalog stream, from text or
// from a typed PatternBuilder (api/pattern_builder.h):
//
//   auto q1 = zs.Compile("stock", "PATTERN A;B WITHIN 10");
//   auto q2 = zs.Compile(PatternBuilder(Seq("A", "B")).On("stock")
//                            .Within(10));
//
// Compile() runs parse -> rewrite -> analyze -> optimize -> instantiate.
// Plans come from the cost-based planner by default; fixed shapes
// (left-deep, right-deep, or an explicit shape string) are available for
// experiments via CompileOptions. Query handles are opaque: no raw
// engine pointers (diagnostic internals live behind
// api/internal.h's QueryAccess).
#ifndef ZSTREAM_API_ZSTREAM_H_
#define ZSTREAM_API_ZSTREAM_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/catalog.h"
#include "api/pattern_builder.h"
#include "exec/engine.h"
#include "exec/reorder.h"
#include "opt/planner.h"
#include "query/analyzer.h"
#include "query/ddl.h"
#include "runtime/runtime_options.h"

namespace zstream {

namespace runtime {
class StreamRuntime;
}  // namespace runtime

namespace internal {
struct QueryAccess;
}  // namespace internal

enum class PlanStrategy : char {
  kOptimal,    // cost-based DP (Algorithm 5)
  kLeftDeep,
  kRightDeep,
  kShape,      // explicit shape string, see PlanFromShape()
  kNegationTop,  // negation as a top filter (Section 6.4's Plan 2)
};

struct CompileOptions {
  PlanStrategy strategy = PlanStrategy::kOptimal;
  std::string shape;  // for PlanStrategy::kShape
  EngineOptions engine;
  /// Bounded out-of-orderness absorbed by the Query's ingress reorder
  /// stage (Section 4.1) before its engine; 0 means input must arrive in
  /// timestamp order, and out-of-order events are dropped and counted.
  /// Session queries only: StreamRuntime::RegisterQuery rejects a
  /// nonzero value (its shards reorder with RuntimeOptions::reorder_slack).
  Duration reorder_slack = 0;
  AnalyzerOptions analyzer;
  /// Statistics for the cost-based planner; when absent, uniform
  /// defaults are used (rate 1, selectivity defaults).
  std::optional<StatsCatalog> stats;
  PlannerOptions planner;
};

/// \brief An opaque, runnable compiled query (partitioned automatically
/// when the analyzer found a full-coverage equality key: the one engine
/// then pairs records by key).
class Query {
 public:
  /// Streams one event in (through the reorder stage, when the query
  /// has a slack); may trigger assembly rounds.
  void Push(const EventPtr& event);
  /// Releases the reorder stage and flushes the engine.
  void Finish();
  void SetMatchCallback(MatchCallback cb);

  uint64_t num_matches() const;
  /// Events dropped as late: by the reorder stage (beyond the slack) or
  /// by the engine (below its timestamp frontier). EXPLAIN ANALYZE's
  /// `late=`.
  uint64_t late_events() const;
  const Pattern& pattern() const { return *pattern_; }
  const PhysicalPlan& plan() const { return plan_; }
  /// Catalog name ("" for ad-hoc Compile()d queries).
  const std::string& name() const { return name_; }
  /// Name of the stream this query was compiled against.
  const std::string& stream() const { return stream_; }

  /// One line: stream name, plan shape, estimated cost under the
  /// planning statistics, and whether those stats came from
  /// CompileOptions::stats or were uniform defaults, e.g.
  ///   "stream=stock plan=[[A ; B] ; C] cost=42.7 stats=provided"
  std::string Explain() const;

  /// The live plan shape (tracks adaptive plan switches, unlike plan()
  /// which is the compile-time choice) and the number of switches.
  std::string CurrentPlan() const;
  uint64_t plan_switches() const;

  /// The live plan tree annotated with per-node counters and timings
  /// (EXPLAIN ANALYZE; see exec/node_profile.h for the row format).
  std::string ExplainAnalyze() const;

  MemoryTracker& memory();
  bool partitioned() const { return pattern_->partition.has_value(); }

 private:
  friend class ZStream;
  friend struct internal::QueryAccess;

  Query() = default;

  std::string name_;
  std::string stream_;
  PatternPtr pattern_;
  PhysicalPlan plan_;
  bool stats_provided_ = false;
  /// Ingress reorder stage; null without CompileOptions::reorder_slack.
  std::unique_ptr<ReorderStage> reorder_;
  std::unique_ptr<Engine> engine_;
};

/// \brief Outcome of one ZStream::Execute statement.
struct DdlResult {
  DdlKind kind = DdlKind::kSelect;
  /// The stream/query name the statement acted on ("" for SHOW
  /// STREAMS/QUERIES). For kSelect this is the auto-generated query
  /// name.
  std::string name;
  /// kCreateQuery / kSelect / kShowPlan: the registered handle, owned
  /// by the ZStream session (valid until DROP QUERY / session
  /// destruction).
  Query* query = nullptr;
  /// Human-readable summary; SHOW statements put their listing here
  /// (SHOW PLAN: the query's Explain() text).
  std::string message;
  /// kShowQueries: one entry per catalog query.
  std::vector<QueryInfo> rows;
  /// kShowStreams: the catalog's stream names.
  std::vector<std::string> stream_names;
};

/// \brief A session: a catalog of named streams plus the compiled
/// queries registered against them.
class ZStream {
 public:
  /// Empty catalog; populate with Execute("CREATE STREAM ...") or
  /// catalog().CreateStream(...).
  ZStream() = default;

  /// Convenience: a catalog holding one stream named "default" — the
  /// single-schema sessions used throughout the paper reproduction.
  explicit ZStream(SchemaPtr input_schema);

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Executes one DDL statement (CREATE STREAM / CREATE QUERY / DROP
  /// QUERY / DROP STREAM / SHOW STREAMS / SHOW QUERIES / SHOW PLAN
  /// <query> / EXPLAIN [ANALYZE | TRACE] <query>). A bare
  /// `PATTERN ...` query text is also accepted: it compiles against
  /// stream "default" and registers under an auto-generated name.
  /// `options` applies to statements that compile a query.
  Result<DdlResult> Execute(const std::string& statement,
                            const CompileOptions& options = {});

  /// Handle of a query registered by CREATE QUERY (owned by this
  /// session).
  Result<Query*> query(const std::string& name);

  /// Parses, analyzes, plans and instantiates `text` against the named
  /// stream's schema.
  Result<std::unique_ptr<Query>> Compile(
      const std::string& stream_name, const std::string& text,
      const CompileOptions& options = {}) const;

  /// Same, against stream "default".
  Result<std::unique_ptr<Query>> Compile(
      const std::string& text, const CompileOptions& options = {}) const;

  /// Compiles a typed PatternBuilder query against its On() stream
  /// (default "default"). Equivalent to compiling
  /// builder.ToQueryString() — same analysis, plan and matches.
  Result<std::unique_ptr<Query>> Compile(
      const PatternBuilder& builder,
      const CompileOptions& options = {}) const;

  /// Analyze only (no engine); useful for planning experiments.
  Result<PatternPtr> Analyze(const std::string& text,
                             const AnalyzerOptions& options = {}) const;
  Result<PatternPtr> Analyze(const std::string& stream_name,
                             const std::string& text,
                             const AnalyzerOptions& options) const;

  /// Starts a concurrent sharded runtime (src/runtime/) with every
  /// catalog stream bound under its catalog name. Register queries with
  /// StreamRuntime::RegisterQuery; implemented in
  /// src/runtime/zstream_facade.cc so the api layer keeps no runtime
  /// link dependency.
  Result<std::unique_ptr<runtime::StreamRuntime>> StartRuntime(
      const runtime::RuntimeOptions& options = {}) const;

  /// Schema of stream "default" (legacy single-stream accessor; null
  /// when the catalog has no such stream).
  SchemaPtr schema() const { return catalog_.stream("default").ValueOr(nullptr); }

 private:
  Result<std::unique_ptr<Query>> CompileParsed(
      const std::string& stream_name, const ParsedQuery& parsed,
      const CompileOptions& options) const;

  Catalog catalog_;
  std::unordered_map<std::string, std::unique_ptr<Query>> queries_;
  int next_anon_query_ = 1;
};

/// Builds the physical plan for `pattern` under `options` (shared by
/// Compile and by benchmarks that instantiate engines directly). Always
/// fills PhysicalPlan::estimated_cost, costing fixed shapes with the
/// same statistics the optimal strategy would use.
Result<PhysicalPlan> BuildPlan(const PatternPtr& pattern,
                               const CompileOptions& options);

}  // namespace zstream

#endif  // ZSTREAM_API_ZSTREAM_H_
