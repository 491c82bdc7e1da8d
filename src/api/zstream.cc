#include "api/zstream.h"

#include <sstream>

#include "obs/trace.h"
#include "opt/cost_model.h"
#include "query/error_codes.h"
#include "query/parser.h"
#include "verify/plan_verifier.h"
#include "verify/typecheck.h"

namespace zstream {

Result<PhysicalPlan> BuildPlan(const PatternPtr& pattern,
                               const CompileOptions& options) {
  // Every compiled query flows through here, so this is where static
  // verification gates the pipeline: expressions first (ZS-T), then the
  // produced plan (ZS-V) — whichever strategy built it.
  ZS_RETURN_IF_ERROR(verify::TypecheckPattern(*pattern));
  const StatsCatalog defaults(pattern->num_classes(),
                              static_cast<double>(pattern->window));
  const StatsCatalog& stats =
      options.stats.has_value() ? *options.stats : defaults;
  PhysicalPlan plan;
  switch (options.strategy) {
    case PlanStrategy::kLeftDeep:
      plan = LeftDeepPlan(*pattern);
      break;
    case PlanStrategy::kRightDeep:
      plan = RightDeepPlan(*pattern);
      break;
    case PlanStrategy::kShape: {
      ZS_ASSIGN_OR_RETURN(plan, PlanFromShape(*pattern, options.shape));
      break;
    }
    case PlanStrategy::kNegationTop:
      plan = NegationTopPlan(*pattern);
      break;
    case PlanStrategy::kOptimal: {
      Planner planner(pattern, &stats, options.planner);
      // The planner verifies its own output; no second pass here.
      return planner.OptimalPlan();
    }
  }
  if (plan.root == nullptr) {
    return Status::Internal("unknown plan strategy");
  }
  ZS_RETURN_IF_ERROR(verify::VerifyPlan(*pattern, plan));
  // Fixed shapes: cost them under the same statistics the optimizer
  // would use, so Explain() always reports a comparable number.
  const CostModel model(pattern.get(), &stats,
                        options.planner.cost_params);
  plan.estimated_cost = model.PlanCost(plan);
  return plan;
}

// ---------------------------------------------------------------------
// Query
// ---------------------------------------------------------------------

void Query::Push(const EventPtr& event) {
  if (reorder_ == nullptr) {
    engine_->Push(event);
    return;
  }
  engine_->PushBatch(reorder_->Push(EventBatch{&event, 1}));
}

void Query::Finish() {
  if (reorder_ != nullptr) engine_->PushBatch(reorder_->Flush());
  engine_->Finish();
}

void Query::SetMatchCallback(MatchCallback cb) {
  engine_->SetMatchCallback(std::move(cb));
}

uint64_t Query::num_matches() const { return engine_->num_matches(); }

uint64_t Query::late_events() const {
  return engine_->late_events() +
         (reorder_ != nullptr ? reorder_->late_dropped() : 0);
}

std::string Query::Explain() const {
  std::ostringstream os;
  os << "stream=" << stream_ << " plan=" << plan_.Explain(*pattern_)
     << " cost=";
  os.precision(6);
  os << plan_.estimated_cost
     << " stats=" << (stats_provided_ ? "provided" : "uniform-defaults");
  if (partitioned()) {
    os << " [hash-partitioned on " << pattern_->partition->field_name
       << "]";
  }
  return os.str();
}

std::string Query::CurrentPlan() const { return engine_->ExplainPlan(); }

std::string Query::ExplainAnalyze() const {
  return engine_->ExplainAnalyze(
      reorder_ != nullptr ? reorder_->late_dropped() : 0);
}

uint64_t Query::plan_switches() const { return engine_->plan_switches(); }

MemoryTracker& Query::memory() { return engine_->memory(); }

// ---------------------------------------------------------------------
// ZStream
// ---------------------------------------------------------------------

ZStream::ZStream(SchemaPtr input_schema) {
  // A constructor-supplied schema is trusted the way the old
  // single-schema facade trusted it; Catalog rejects only null/empty.
  const Status st = catalog_.CreateStream("default", std::move(input_schema));
  (void)st;
}

Result<PatternPtr> ZStream::Analyze(const std::string& text,
                                    const AnalyzerOptions& options) const {
  return Analyze("default", text, options);
}

Result<PatternPtr> ZStream::Analyze(const std::string& stream_name,
                                    const std::string& text,
                                    const AnalyzerOptions& options) const {
  ZS_ASSIGN_OR_RETURN(SchemaPtr schema, catalog_.stream(stream_name));
  return AnalyzeQuery(text, schema, options);
}

Result<std::unique_ptr<Query>> ZStream::CompileParsed(
    const std::string& stream_name, const ParsedQuery& parsed,
    const CompileOptions& options) const {
  ZS_ASSIGN_OR_RETURN(SchemaPtr schema, catalog_.stream(stream_name));
  ZS_ASSIGN_OR_RETURN(PatternPtr pattern,
                      zstream::Analyze(parsed, schema, options.analyzer));
  ZS_ASSIGN_OR_RETURN(PhysicalPlan plan, BuildPlan(pattern, options));

  auto query = std::unique_ptr<Query>(new Query());
  query->stream_ = stream_name;
  query->pattern_ = pattern;
  query->plan_ = plan;
  query->stats_provided_ = options.stats.has_value();
  ZS_ASSIGN_OR_RETURN(query->engine_,
                      Engine::Create(pattern, plan, options.engine));
  if (options.reorder_slack > 0) {
    query->reorder_ = std::make_unique<ReorderStage>(options.reorder_slack);
  }
  return query;
}

Result<std::unique_ptr<Query>> ZStream::Compile(
    const std::string& stream_name, const std::string& text,
    const CompileOptions& options) const {
  ZS_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQuery(text));
  return CompileParsed(stream_name, parsed, options);
}

Result<std::unique_ptr<Query>> ZStream::Compile(
    const std::string& text, const CompileOptions& options) const {
  return Compile("default", text, options);
}

Result<std::unique_ptr<Query>> ZStream::Compile(
    const PatternBuilder& builder, const CompileOptions& options) const {
  ZS_ASSIGN_OR_RETURN(ParsedQuery parsed, builder.Build());
  return CompileParsed(builder.stream(), parsed, options);
}

Result<Query*> ZStream::query(const std::string& name) {
  auto it = queries_.find(name);
  if (it == queries_.end()) {
    return Status::NotFound("no query named '" + name + "'")
        .WithErrorCode(errc::kCatalogUnknownQuery);
  }
  return it->second.get();
}

Result<DdlResult> ZStream::Execute(const std::string& statement,
                                   const CompileOptions& options) {
  ZS_ASSIGN_OR_RETURN(DdlStatement stmt, ParseDdl(statement));
  DdlResult result;
  result.kind = stmt.kind;
  switch (stmt.kind) {
    case DdlKind::kCreateStream: {
      ZS_RETURN_IF_ERROR(
          catalog_.CreateStream(stmt.name, Schema::Make(stmt.fields)));
      result.name = stmt.name;
      result.message = "stream '" + stmt.name + "' created";
      return result;
    }
    case DdlKind::kCreateQuery:
    case DdlKind::kSelect: {
      std::string name = stmt.name;
      std::string stream = stmt.stream;
      if (stmt.kind == DdlKind::kSelect) {
        stream = "default";
        do {
          name = "q" + std::to_string(next_anon_query_++);
        } while (catalog_.HasQuery(name));
      } else if (catalog_.HasQuery(name)) {
        return Status::InvalidArgument("query '" + name +
                                       "' already exists")
            .WithErrorCode(errc::kCatalogDuplicateQuery);
      }
      ZS_ASSIGN_OR_RETURN(std::unique_ptr<Query> compiled,
                          CompileParsed(stream, *stmt.query, options));
      compiled->name_ = name;
      // Metric labels and slow-event logs identify the query by its
      // catalog name (unless the caller already chose a label).
      if (options.engine.label.empty()) compiled->engine_->SetLabel(name);
      ZS_RETURN_IF_ERROR(catalog_.AddQuery(QueryInfo{
          name, stream, stmt.query_text, compiled->pattern_}));
      result.name = name;
      result.query = compiled.get();
      queries_[name] = std::move(compiled);
      result.message = "query '" + name + "' registered on stream '" +
                       stream + "'";
      return result;
    }
    case DdlKind::kDropQuery: {
      ZS_RETURN_IF_ERROR(catalog_.DropQuery(stmt.name));
      queries_.erase(stmt.name);
      result.name = stmt.name;
      result.message = "query '" + stmt.name + "' dropped";
      return result;
    }
    case DdlKind::kDropStream: {
      ZS_RETURN_IF_ERROR(catalog_.DropStream(stmt.name));
      result.name = stmt.name;
      result.message = "stream '" + stmt.name + "' dropped";
      return result;
    }
    case DdlKind::kExplainTrace: {
      auto it = queries_.find(stmt.name);
      if (it == queries_.end()) {
        return Status::NotFound("no query named '" + stmt.name + "'")
            .WithErrorCode(errc::kCatalogUnknownQuery)
            .WithLocation(stmt.name_line, stmt.name_column);
      }
      result.name = stmt.name;
      result.query = it->second.get();
      // Provenance is keyed by the engine label, which defaults to the
      // catalog name (SetLabel above); the tracer is process-global, so
      // this sees served-runtime matches too.
      result.message =
          obs::Tracer::Global().RenderProvenance(stmt.name);
      return result;
    }
    case DdlKind::kShowPlan:
    case DdlKind::kExplainAnalyze: {
      auto it = queries_.find(stmt.name);
      if (it == queries_.end()) {
        return Status::NotFound("no query named '" + stmt.name + "'")
            .WithErrorCode(errc::kCatalogUnknownQuery)
            .WithLocation(stmt.name_line, stmt.name_column);
      }
      result.name = stmt.name;
      result.query = it->second.get();
      result.message = stmt.kind == DdlKind::kExplainAnalyze
                           ? it->second->ExplainAnalyze()
                           : it->second->Explain();
      return result;
    }
    case DdlKind::kShowStreams: {
      result.stream_names = catalog_.StreamNames();
      result.message = catalog_.DescribeStreams();
      return result;
    }
    case DdlKind::kShowQueries: {
      result.rows = catalog_.queries();
      result.message = catalog_.DescribeQueries();
      return result;
    }
  }
  return Status::Internal("unknown DDL statement kind");
}

}  // namespace zstream
