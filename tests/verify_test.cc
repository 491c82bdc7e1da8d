// Static verification layer (src/verify/): expression typechecker,
// plan-verifier pass framework, and query linter.
//
// Three sections:
//   1. Positives — the paper's corpus query shapes build and verify
//      clean under every planning strategy (false rejections at any
//      plan-producing seam would break compilation outright).
//   2. Negatives — one targeted test per named invariant, each
//      hand-building the smallest plan (or pattern edit) that violates
//      exactly that invariant and asserting the stable ZS-T/ZS-V/ZS-W
//      code plus, for typechecker/linter diagnostics, the 1-based
//      line/column the parser threaded through.
//   3. Regressions — PR 5's fuzz-found bugs reconstructed as the broken
//      plans/patterns they effectively installed, now rejected before
//      any event flows.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/zstream.h"
#include "exec/engine.h"
#include "plan/physical_plan.h"
#include "query/analyzer.h"
#include "query/error_codes.h"
#include "test_util.h"
#include "testing/plan_mutator.h"
#include "verify/lint.h"
#include "verify/plan_verifier.h"
#include "verify/typecheck.h"

namespace zstream {
namespace {

using zstream::testing::MustAnalyze;

PhysNodePtr L(int c) { return PhysNode::Leaf(c); }

// The strategies BuildPlan can realize for this pattern (mirrors the
// fuzzer's --verify-only sweep).
std::vector<std::pair<std::string, PlanStrategy>> AllStrategies(
    const Pattern& p) {
  std::vector<std::pair<std::string, PlanStrategy>> out = {
      {"optimal", PlanStrategy::kOptimal},
      {"left-deep", PlanStrategy::kLeftDeep},
      {"right-deep", PlanStrategy::kRightDeep},
  };
  if (!p.NegatedClasses().empty()) {
    out.emplace_back("negation-top", PlanStrategy::kNegationTop);
  }
  return out;
}

// Compiles `text` under every strategy and expects each produced plan
// to pass the full invariant report (NotSupported is a legitimate
// capability skip, same as the differential driver treats it).
void ExpectVerifiesEverywhere(const std::string& text) {
  const PatternPtr p = MustAnalyze(text);
  int produced = 0;
  for (const auto& [name, strategy] : AllStrategies(*p)) {
    CompileOptions options;
    options.strategy = strategy;
    auto plan = BuildPlan(p, options);
    if (!plan.ok() && plan.status().code() == StatusCode::kNotSupported) {
      continue;
    }
    ASSERT_TRUE(plan.ok()) << name << ": " << plan.status().ToString()
                           << "\n  query: " << text;
    const verify::VerifyReport report = verify::VerifyPlanReport(*p, *plan);
    for (const verify::Violation& v : report.violations) {
      ADD_FAILURE() << name << " plan violates [" << v.invariant
                    << "] " << v.code << ": " << v.message
                    << "\n  query: " << text
                    << "\n  plan: " << plan->Explain(*p);
    }
    ++produced;
  }
  EXPECT_GT(produced, 0) << "no strategy produced a plan for: " << text;
}

bool HasViolation(const verify::VerifyReport& report,
                  const std::string& invariant, const std::string& code) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&](const verify::Violation& v) {
                       return v.invariant == invariant && v.code == code;
                     });
}

std::string Dump(const verify::VerifyReport& report) {
  std::string out;
  for (const verify::Violation& v : report.violations) {
    out += "[" + v.invariant + "] " + v.code + ": " + v.message + "\n";
  }
  return out.empty() ? "(no violations)" : out;
}

// ---------------------------------------------------------------------
// 1. Positives: corpus query shapes verify under every strategy
// ---------------------------------------------------------------------

TEST(VerifyPositive, PaperQuery1RisingFallingSequence) {
  ExpectVerifiesEverywhere(
      "PATTERN T1;T2;T3 "
      "WHERE T1.name = T3.name AND T2.name = 'Google' "
      "AND T1.price > (1 + 20%) * T2.price "
      "AND T3.price < (1 - 20%) * T2.price "
      "WITHIN 10 RETURN T1, T2, T3");
}

TEST(VerifyPositive, PaperQuery2NegationWithPartitionableChain) {
  ExpectVerifiesEverywhere(
      "PATTERN T1;!T2;T3 "
      "WHERE T1.name = T2.name = T3.name "
      "AND T1.price > 50 AND T2.price < 50 "
      "AND T3.price > 50 * (1 + 20%) "
      "WITHIN 10 RETURN T1, T3");
}

TEST(VerifyPositive, PaperQuery3KleeneCountWithAggregate) {
  ExpectVerifiesEverywhere(
      "PATTERN T1;T2^2;T3 "
      "WHERE T1.name = T3.name AND T2.name = 'Google' "
      "AND sum(T2.volume) > 150 "
      "AND T3.price > (1 + 20%) * T1.price "
      "WITHIN 10 RETURN T1, sum(T2.volume), T3");
}

TEST(VerifyPositive, ConjunctionShape) {
  ExpectVerifiesEverywhere(
      "PATTERN (T1 & T2) "
      "WHERE T1.name = T2.name AND T1.price > T2.price "
      "WITHIN 10 RETURN T1, T2");
}

TEST(VerifyPositive, DisjunctionShape) {
  ExpectVerifiesEverywhere(
      "PATTERN (T1 | T2) "
      "WHERE T1.price > 100 AND T2.volume > 500 "
      "WITHIN 10 RETURN T1, T2");
}

TEST(VerifyPositive, SequenceOfConjunction) {
  ExpectVerifiesEverywhere(
      "PATTERN (T1 & T2);T3 "
      "WHERE T1.name = T2.name AND T2.name = T3.name "
      "WITHIN 10 RETURN T1, T2, T3");
}

TEST(VerifyPositive, MergedNegationDisjunction) {
  ExpectVerifiesEverywhere(
      "PATTERN T1;!(T2|T3);T4 "
      "WHERE T1.name = T4.name AND T2.price > 90 AND T3.price < 10 "
      "WITHIN 10 RETURN T1, T4");
}

TEST(VerifyPositive, KleeneStarUnanchored) {
  ExpectVerifiesEverywhere(
      "PATTERN T1;T2*;T3 "
      "WHERE T1.name = T3.name AND count(T2) >= 0 "
      "WITHIN 10 RETURN T1, T3");
}

// The registry itself: stable names and codes, no duplicates — the
// docs/diagnostics.md catalogue is generated from this exact list.
TEST(VerifyRegistry, InvariantNamesAndCodesAreUniqueAndStable) {
  const auto& invariants = verify::Invariants();
  EXPECT_EQ(invariants.size(), 18u);
  std::set<std::string> names;
  std::set<std::string> codes;
  for (const auto& inv : invariants) {
    EXPECT_TRUE(names.insert(inv.name).second) << inv.name;
    EXPECT_TRUE(codes.insert(inv.code).second) << inv.code;
    EXPECT_EQ(std::string(inv.code).substr(0, 4), "ZS-V") << inv.code;
    EXPECT_NE(std::string(inv.summary), "") << inv.name;
  }
  EXPECT_EQ(names.count("class-coverage"), 1u);
  EXPECT_EQ(names.count("structure-compat"), 1u);
  EXPECT_EQ(names.count("negation-handled"), 1u);
}

// ---------------------------------------------------------------------
// 2a. Negatives: one test per plan-verifier invariant
// ---------------------------------------------------------------------

TEST(VerifyNegative, V0001EmptyPlan) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;T2 WHERE T1.name = T2.name WITHIN 10");
  const Status st = verify::VerifyPlan(*p, PhysicalPlan{});
  EXPECT_EQ(st.code(), StatusCode::kSemanticError);
  EXPECT_EQ(st.error_code(), errc::kVerifyEmptyPlan);
}

TEST(VerifyNegative, V0002CoverageMissingClass) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;T2;T3 WHERE T1.name = T2.name AND T2.name = T3.name "
      "WITHIN 10");
  const PhysicalPlan plan{PhysNode::Seq(L(0), L(1)), 0.0};
  const auto report = verify::VerifyPlanReport(*p, plan);
  EXPECT_TRUE(HasViolation(report, "class-coverage", errc::kVerifyCoverage))
      << Dump(report);
}

TEST(VerifyNegative, V0002CoverageDuplicateLeaf) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;T2 WHERE T1.name = T2.name WITHIN 10");
  const PhysicalPlan plan{PhysNode::Seq(PhysNode::Seq(L(0), L(1)), L(1)),
                          0.0};
  const auto report = verify::VerifyPlanReport(*p, plan);
  EXPECT_TRUE(HasViolation(report, "class-coverage", errc::kVerifyCoverage))
      << Dump(report);
}

TEST(VerifyNegative, V0003NodeShapeLeafOutOfRange) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;T2 WHERE T1.name = T2.name WITHIN 10");
  const PhysicalPlan plan{PhysNode::Seq(L(0), L(7)), 0.0};
  const auto report = verify::VerifyPlanReport(*p, plan);
  EXPECT_TRUE(HasViolation(report, "node-shape", errc::kVerifyNodeShape))
      << Dump(report);
  EXPECT_EQ(verify::VerifyPlan(*p, plan).error_code(),
            errc::kVerifyNodeShape);
}

TEST(VerifyNegative, V0003NodeShapeWrongArity) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;T2 WHERE T1.name = T2.name WITHIN 10");
  auto seq = std::make_shared<PhysNode>();
  seq->op = PhysOp::kSeq;
  seq->children = {L(0)};  // SEQ with one operand
  const PhysicalPlan plan{seq, 0.0};
  const auto report = verify::VerifyPlanReport(*p, plan);
  EXPECT_TRUE(HasViolation(report, "node-shape", errc::kVerifyNodeShape))
      << Dump(report);
  // Arity violations gate the deeper tree passes: no pass may have
  // dereferenced the missing operand.
  for (const auto& v : report.violations) {
    EXPECT_TRUE(v.invariant == "node-shape" || v.invariant == "plan-nonempty")
        << v.invariant;
  }
}

TEST(VerifyNegative, V0004StructureSeqOrderFlipped) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;T2 WHERE T1.name = T2.name WITHIN 10");
  const PhysicalPlan plan{PhysNode::Seq(L(1), L(0)), 0.0};
  const auto report = verify::VerifyPlanReport(*p, plan);
  EXPECT_TRUE(HasViolation(report, "structure-compat", errc::kVerifyStructure))
      << Dump(report);
}

TEST(VerifyNegative, V0005NSeqOperandNotNegatedLeaf) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;!T2;T3 WHERE T1.name = T3.name AND T2.price > 90 "
      "WITHIN 10");
  // NSEQ whose "negated" operand is the positive class T1.
  const PhysicalPlan plan{PhysNode::NSeq(L(0), PhysNode::Seq(L(1), L(2)),
                                         /*neg_left=*/true),
                          0.0};
  const auto report = verify::VerifyPlanReport(*p, plan);
  EXPECT_TRUE(HasViolation(report, "nseq-negated-leaf", errc::kVerifyNseqLeaf))
      << Dump(report);
}

TEST(VerifyNegative, V0006NSeqNegatedClassNotAdjacent) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;!T2;T3;T4 "
      "WHERE T1.name = T3.name AND T3.name = T4.name AND T2.price > 90 "
      "WITHIN 10");
  // !T2 fused against T4 with T3 (its true right neighbor) elsewhere:
  // the NSEQ would test "no T2 between T1 and T4", admitting matches
  // where a T2 sits between T1 and T3.
  const PhysicalPlan plan{
      PhysNode::Seq(PhysNode::Seq(L(0), PhysNode::NSeq(L(1), L(3),
                                                       /*neg_left=*/true)),
                    L(2)),
      0.0};
  const auto report = verify::VerifyPlanReport(*p, plan);
  EXPECT_TRUE(
      HasViolation(report, "nseq-adjacency", errc::kVerifyNseqAdjacency))
      << Dump(report);
}

TEST(VerifyNegative, V0007NSeqPredicateSpansOutside) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;!T2;T3 "
      "WHERE T1.price = T2.price AND T1.name = T3.name WITHIN 10");
  // Structurally fine NSEQ, but T1.price = T2.price reaches above it:
  // a capability limit (Section 4.4.2), reported as NotSupported so
  // callers fall back to a NEG-filter shape.
  const PhysicalPlan plan{
      PhysNode::Seq(L(0), PhysNode::NSeq(L(1), L(2), /*neg_left=*/true)),
      0.0};
  const auto report = verify::VerifyPlanReport(*p, plan);
  ASSERT_TRUE(
      HasViolation(report, "nseq-pred-scope", errc::kVerifyNseqPredScope))
      << Dump(report);
  const Status st = report.ToStatus();
  EXPECT_EQ(st.code(), StatusCode::kNotSupported);
  EXPECT_EQ(st.error_code(), errc::kVerifyNseqPredScope);
}

TEST(VerifyNegative, V0008KSeqMiddleNotKleene) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;T2+;T3 WHERE T1.name = T3.name WITHIN 10");
  const PhysicalPlan plan{PhysNode::KSeq(L(0), L(2), L(1)), 0.0};
  const auto report = verify::VerifyPlanReport(*p, plan);
  EXPECT_TRUE(HasViolation(report, "kseq-shape", errc::kVerifyKseqShape))
      << Dump(report);
}

TEST(VerifyNegative, V0009KSeqStartNotAdjacent) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;T2;T3+;T4 "
      "WHERE T1.name = T2.name AND T2.name = T4.name WITHIN 10");
  // KSEQ anchored on T1 with T2 (the closure's true left neighbor)
  // missing: groups would extend left across T2 events.
  const PhysicalPlan plan{PhysNode::KSeq(L(0), L(2), L(3)), 0.0};
  const auto report = verify::VerifyPlanReport(*p, plan);
  EXPECT_TRUE(
      HasViolation(report, "kseq-adjacency", errc::kVerifyKseqAdjacency))
      << Dump(report);
}

TEST(VerifyNegative, V0010KSeqNonAggregatePredicateSpansOutside) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;T2+;T3;T4 "
      "WHERE T2.price < T4.price AND T1.name = T4.name WITHIN 10");
  // T2.price < T4.price must filter closure events while the group is
  // assembled, but T4 is outside the KSEQ: Algorithm 4 cannot attach
  // it. PR 5's bug #9 (silently dropped closure predicates) is now a
  // static NotSupported.
  const PhysicalPlan plan{
      PhysNode::Seq(PhysNode::KSeq(L(0), L(1), L(2)), L(3)), 0.0};
  const auto report = verify::VerifyPlanReport(*p, plan);
  ASSERT_TRUE(
      HasViolation(report, "kseq-pred-scope", errc::kVerifyKseqPredScope))
      << Dump(report);
  const Status st = report.ToStatus();
  EXPECT_EQ(st.code(), StatusCode::kNotSupported);
  EXPECT_EQ(st.error_code(), errc::kVerifyKseqPredScope);
}

TEST(VerifyNegative, V0011KleeneClassJoinedAsPlainLeaf) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;T2+;T3 WHERE T1.name = T3.name WITHIN 10");
  const PhysicalPlan plan{PhysNode::Seq(PhysNode::Seq(L(0), L(1)), L(2)),
                          0.0};
  const auto report = verify::VerifyPlanReport(*p, plan);
  EXPECT_TRUE(HasViolation(report, "kleene-legal", errc::kVerifyKleeneLegal))
      << Dump(report);
}

TEST(VerifyNegative, V0011KleeneCountMustBePositive) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;T2^2;T3 WHERE T1.name = T3.name WITHIN 10");
  auto plan = BuildPlan(p, CompileOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Pattern corrupted = *p;
  corrupted.classes[1].kleene_count = 0;
  const auto report = verify::VerifyPlanReport(corrupted, *plan);
  EXPECT_TRUE(HasViolation(report, "kleene-legal", errc::kVerifyKleeneLegal))
      << Dump(report);
}

TEST(VerifyNegative, V0012NegatedClassJoinedAsPlainLeaf) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;!T2;T3 WHERE T1.name = T3.name AND T2.price > 90 "
      "WITHIN 10");
  const PhysicalPlan plan{PhysNode::Seq(PhysNode::Seq(L(0), L(1)), L(2)),
                          0.0};
  const auto report = verify::VerifyPlanReport(*p, plan);
  EXPECT_TRUE(HasViolation(report, "negation-handled",
                           errc::kVerifyNegationHandled))
      << Dump(report);
}

TEST(VerifyNegative, V0013NegFilterOnPositiveClass) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;T2 WHERE T1.name = T2.name WITHIN 10");
  const PhysicalPlan plan{
      PhysNode::NegFilter(PhysNode::Seq(L(0), L(1)), /*neg_class=*/1), 0.0};
  const auto report = verify::VerifyPlanReport(*p, plan);
  EXPECT_TRUE(HasViolation(report, "negfilter-target",
                           errc::kVerifyNegFilterTarget))
      << Dump(report);
}

TEST(VerifyNegative, V0014WindowMustBePositive) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;T2 WHERE T1.name = T2.name WITHIN 10");
  auto plan = BuildPlan(p, CompileOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Pattern corrupted = *p;
  corrupted.window = 0;
  const auto report = verify::VerifyPlanReport(corrupted, *plan);
  EXPECT_TRUE(
      HasViolation(report, "within-positive", errc::kVerifyWindowPositive))
      << Dump(report);
}

TEST(VerifyNegative, V0015PartitionKeyIndexOutOfRange) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;!T2;T3 WHERE T1.name = T2.name = T3.name WITHIN 10");
  ASSERT_TRUE(p->partition.has_value())
      << "paper Query 2's equality chain should partition on name";
  auto plan = BuildPlan(p, CompileOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Pattern corrupted = *p;
  PartitionSpec spec = *corrupted.partition;
  spec.field_indices[0] = 99;
  corrupted.partition = spec;
  const auto report = verify::VerifyPlanReport(corrupted, *plan);
  EXPECT_TRUE(HasViolation(report, "partition-key", errc::kVerifyPartitionKey))
      << Dump(report);
}

TEST(VerifyNegative, V0015PartitionKeyNameMismatch) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;!T2;T3 WHERE T1.name = T2.name = T3.name WITHIN 10");
  ASSERT_TRUE(p->partition.has_value());
  auto plan = BuildPlan(p, CompileOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Pattern corrupted = *p;
  PartitionSpec spec = *corrupted.partition;
  spec.field_name = "price";  // indices still resolve to 'name'
  corrupted.partition = spec;
  const auto report = verify::VerifyPlanReport(corrupted, *plan);
  EXPECT_TRUE(HasViolation(report, "partition-key", errc::kVerifyPartitionKey))
      << Dump(report);
}

TEST(VerifyNegative, V0016LeafPredicateReferencingOtherClass) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;T2 WHERE T1.price > T2.price WITHIN 10");
  auto plan = BuildPlan(p, CompileOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Pattern corrupted = *p;
  ASSERT_FALSE(corrupted.multi_predicates.empty());
  corrupted.classes[0].leaf_predicates.push_back(
      corrupted.multi_predicates[0]);
  const auto report = verify::VerifyPlanReport(corrupted, *plan);
  EXPECT_TRUE(HasViolation(report, "predicate-scope",
                           errc::kVerifyPredicateScope))
      << Dump(report);
}

TEST(VerifyNegative, V0016AggregateInLeafPredicate) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;T2^2;T3 "
      "WHERE T1.name = T3.name AND sum(T2.volume) > 150 WITHIN 10");
  auto plan = BuildPlan(p, CompileOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Push the aggregate predicate down into T2's per-event filter: an
  // aggregate only has a value over an assembled group.
  Pattern corrupted = *p;
  ExprPtr agg;
  for (const ExprPtr& pred : corrupted.multi_predicates) {
    if (ContainsAggregate(pred)) agg = pred;
  }
  ASSERT_NE(agg, nullptr);
  corrupted.classes[1].leaf_predicates.push_back(agg);
  const auto report = verify::VerifyPlanReport(corrupted, *plan);
  EXPECT_TRUE(HasViolation(report, "predicate-scope",
                           errc::kVerifyPredicateScope))
      << Dump(report);
}

TEST(VerifyNegative, V0017ReturnItemOnNegatedClass) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;!T2;T3 "
      "WHERE T1.name = T3.name AND T2.price > 90 WITHIN 10 RETURN T1");
  auto plan = BuildPlan(p, CompileOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Pattern corrupted = *p;
  corrupted.return_items.push_back(ReturnItem{nullptr, 1, "T2"});
  const auto report = verify::VerifyPlanReport(corrupted, *plan);
  EXPECT_TRUE(HasViolation(report, "return-items", errc::kVerifyReturnItems))
      << Dump(report);

  Pattern out_of_range = *p;
  out_of_range.return_items.push_back(ReturnItem{nullptr, 9, "T9"});
  EXPECT_TRUE(HasViolation(verify::VerifyPlanReport(out_of_range, *plan),
                           "return-items", errc::kVerifyReturnItems));
}

TEST(VerifyNegative, V0018NegBranchReferencingForeignClass) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;!T2;T3 "
      "WHERE T1.price > 50 AND T1.name = T3.name AND T2.price > 90 "
      "WITHIN 10");
  auto plan = BuildPlan(p, CompileOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Pattern corrupted = *p;
  ASSERT_FALSE(corrupted.classes[0].leaf_predicates.empty());
  // A branch of the merged negation that admits negators based on T1's
  // attributes: branches may only look at their own merged class.
  NegBranch branch;
  branch.alias = "X";
  branch.predicates = {corrupted.classes[0].leaf_predicates[0]};
  corrupted.classes[1].neg_branches.push_back(branch);
  const auto report = verify::VerifyPlanReport(corrupted, *plan);
  EXPECT_TRUE(HasViolation(report, "neg-branch", errc::kVerifyNegBranch))
      << Dump(report);

  Pattern not_negated = *p;
  not_negated.classes[0].neg_branches.push_back(NegBranch{"Y", {}});
  EXPECT_TRUE(HasViolation(verify::VerifyPlanReport(not_negated, *plan),
                           "neg-branch", errc::kVerifyNegBranch));
}

// ---------------------------------------------------------------------
// 2b. Negatives: typechecker diagnostics with locations
// ---------------------------------------------------------------------

// Analyzer-reported name/aggregate errors (the ZS-T codes that fire
// during resolution, before the typechecker proper).
void ExpectAnalyzeError(const std::string& text, const char* code, int line,
                        int column) {
  const auto result = AnalyzeQuery(text, StockSchema());
  ASSERT_FALSE(result.ok()) << text;
  EXPECT_EQ(result.status().error_code(), code)
      << result.status().ToString();
  EXPECT_EQ(result.status().line(), line) << result.status().ToString();
  EXPECT_EQ(result.status().column(), column) << result.status().ToString();
}

// Typechecker-reported errors: the analyzer accepts the query (names
// resolve), TypecheckPattern rejects it with a located ZS-T code.
void ExpectTypecheckError(const std::string& text, const char* code,
                          int line, int column) {
  const PatternPtr p = MustAnalyze(text);
  const Status st = verify::TypecheckPattern(*p);
  ASSERT_FALSE(st.ok()) << text;
  EXPECT_EQ(st.error_code(), code) << st.ToString();
  EXPECT_EQ(st.line(), line) << st.ToString();
  EXPECT_EQ(st.column(), column) << st.ToString();

  // The compile seam rejects it with the same diagnostic.
  const auto plan = BuildPlan(p, CompileOptions{});
  ASSERT_FALSE(plan.ok()) << text;
  EXPECT_EQ(plan.status().error_code(), code);
}

TEST(TypecheckNegative, T0001UnknownAttribute) {
  ExpectAnalyzeError("PATTERN T1;T2 WHERE T1.bogus > 1 WITHIN 10",
                     errc::kTypeUnknownAttribute, 1, 21);
}

TEST(TypecheckNegative, T0002UnknownAlias) {
  ExpectAnalyzeError("PATTERN T1;T2 WHERE T9.price > 1 WITHIN 10",
                     errc::kTypeUnknownAlias, 1, 21);
}

TEST(TypecheckNegative, T0003IncomparableTypes) {
  ExpectTypecheckError("PATTERN T1;T2 WHERE T1.price > T2.name WITHIN 10",
                       errc::kTypeIncomparable, 1, 30);
}

TEST(TypecheckNegative, T0004NonNumericArithmetic) {
  ExpectTypecheckError("PATTERN T1;T2 WHERE T1.name + 1 > 0 WITHIN 10",
                       errc::kTypeNonNumericArith, 1, 29);
}

TEST(TypecheckNegative, T0005NonBooleanLogicOperand) {
  ExpectTypecheckError(
      "PATTERN T1;T2 WHERE (T1.name OR T1.price > 0) "
      "AND T1.name = T2.name WITHIN 10",
      errc::kTypeNonBoolLogic, 1, 30);
}

TEST(TypecheckNegative, T0006AggregateOverNonKleeneClass) {
  ExpectAnalyzeError("PATTERN T1;T2 WHERE sum(T1.volume) > 5 WITHIN 10",
                     errc::kTypeAggNonKleene, 1, 21);
}

TEST(TypecheckNegative, T0007AggregateOverNonNumericAttribute) {
  ExpectTypecheckError(
      "PATTERN T1;T2+;T3 WHERE sum(T2.name) > 10 "
      "AND T1.name = T3.name WITHIN 10",
      errc::kTypeAggNonNumeric, 1, 25);
}

TEST(TypecheckNegative, T0008NonBooleanPredicate) {
  ExpectTypecheckError("PATTERN T1;T2 WHERE T1.price + 1 WITHIN 10",
                       errc::kTypeNonBoolPredicate, 1, 30);
}

TEST(TypecheckNegative, T0009ClassIndexOutOfRange) {
  // A predicate lifted from a three-class pattern, checked against a
  // two-class one: only reachable through programmatic construction,
  // which is exactly what the code path guards.
  const PatternPtr three = MustAnalyze(
      "PATTERN T1;T2;T3 WHERE T3.price > 50 AND T1.name = T2.name "
      "WITHIN 10");
  const PatternPtr two =
      MustAnalyze("PATTERN T1;T2 WHERE T1.name = T2.name WITHIN 10");
  ASSERT_FALSE(three->classes[2].leaf_predicates.empty());
  const auto result = verify::InferExprType(
      three->classes[2].leaf_predicates[0], *two);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().error_code(), errc::kTypeBadClassIndex);
  EXPECT_EQ(result.status().line(), 1);
}

TEST(TypecheckNegative, T0010AggregateWithoutAttribute) {
  ExpectAnalyzeError("PATTERN T1;T2+ WHERE avg(T2) > 5 WITHIN 10",
                     errc::kTypeAggMissingField, 1, 22);
}

// ---------------------------------------------------------------------
// 2c. Linter warnings
// ---------------------------------------------------------------------

std::vector<verify::LintWarning> Lint(const std::string& text) {
  return verify::LintPattern(*MustAnalyze(text));
}

bool HasWarning(const std::vector<verify::LintWarning>& warnings,
                const char* code, int line = -1, int column = -1) {
  return std::any_of(warnings.begin(), warnings.end(),
                     [&](const verify::LintWarning& w) {
                       return w.code == code &&
                              (line < 0 || w.line == line) &&
                              (column < 0 || w.column == column);
                     });
}

TEST(LintWarning, W0001ContradictoryRangeConstraints) {
  const auto warnings = Lint(
      "PATTERN T1;T2 WHERE T1.price > 10 AND T1.price < 5 "
      "AND T1.name = T2.name WITHIN 10");
  EXPECT_TRUE(HasWarning(warnings, errc::kLintUnsatisfiable, 1, 48));
}

TEST(LintWarning, W0002UnreferencedAlias) {
  const auto warnings = Lint(
      "PATTERN T1;T2 WHERE T1.name = T2.name WITHIN 10 RETURN T1");
  ASSERT_TRUE(HasWarning(warnings, errc::kLintUnreferencedAlias));
  // No predicate and never returned: the warning names the alias.
  bool named = false;
  for (const auto& w : warnings) {
    if (w.code == errc::kLintUnreferencedAlias &&
        w.message.find("'T2'") != std::string::npos) {
      named = true;
    }
  }
  EXPECT_TRUE(named);
}

TEST(LintWarning, W0003CartesianPattern) {
  const auto warnings = Lint(
      "PATTERN T1;T2 WHERE T1.price > 0 AND T2.price > 0 WITHIN 10");
  EXPECT_TRUE(HasWarning(warnings, errc::kLintCartesian));
}

TEST(LintWarning, W0003NotRaisedForKleeneOrNegatedClasses) {
  // Paper Query 3: the closure class T2 carries only leaf + aggregate
  // predicates; its group is anchored by the sequence neighbors, so it
  // must NOT count as an uncorrelated component (regression for a lint
  // false-positive on the corpus).
  const auto warnings = Lint(
      "PATTERN T1;T2^2;T3 "
      "WHERE T1.name = T3.name AND T2.name = 'Google' "
      "AND sum(T2.volume) > 150 WITHIN 10 RETURN T1, sum(T2.volume), T3");
  EXPECT_FALSE(HasWarning(warnings, errc::kLintCartesian));
  // Same for the negated class in paper Query 2.
  const auto q2 = Lint(
      "PATTERN T1;!T2;T3 WHERE T1.name = T2.name = T3.name WITHIN 10");
  EXPECT_FALSE(HasWarning(q2, errc::kLintCartesian));
}

TEST(LintWarning, W0004TautologicalConjunct) {
  // A literal-literal conjunct only survives to the linter when built
  // programmatically (the analyzer rejects class-free conjuncts in
  // query text).
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;T2 WHERE T1.name = T2.name WITHIN 10");
  Pattern edited = *p;
  edited.classes[0].leaf_predicates.push_back(
      Expr::Binary(BinaryOp::kLt, Expr::Literal(Value(int64_t{1})),
                   Expr::Literal(Value(int64_t{2}))));
  const auto warnings = verify::LintPattern(edited);
  EXPECT_TRUE(HasWarning(warnings, errc::kLintTautology));
}

TEST(LintWarning, W0005DuplicateConjunct) {
  const auto warnings = Lint(
      "PATTERN T1;T2 WHERE T1.price > 5 AND T1.price > 5 "
      "AND T1.name = T2.name WITHIN 10");
  EXPECT_TRUE(HasWarning(warnings, errc::kLintDuplicateConjunct, 1, 47));
}

TEST(LintWarning, CorpusQueriesLintClean) {
  EXPECT_TRUE(Lint("PATTERN T1;T2;T3 "
                   "WHERE T1.name = T3.name AND T2.name = 'Google' "
                   "AND T1.price > (1 + 20%) * T2.price "
                   "AND T3.price < (1 - 20%) * T2.price "
                   "WITHIN 10 RETURN T1, T2, T3")
                  .empty());
  EXPECT_TRUE(Lint("PATTERN T1;!T2;T3 "
                   "WHERE T1.name = T2.name = T3.name "
                   "AND T1.price > 50 AND T2.price < 50 "
                   "WITHIN 10 RETURN T1, T3")
                  .empty());
}

// ---------------------------------------------------------------------
// 3. Regressions: PR 5's fuzz bugs as statically-rejected plans
// ---------------------------------------------------------------------

// Bug #4: NegationTopPlan flattened CONJ/DISJ structure into a SEQ
// chain, imposing a temporal order the pattern doesn't have. The exact
// broken shape it used to emit is now a structure-compat violation.
TEST(FuzzBugRegression, ConjunctionFlattenedIntoSeqChain) {
  const PatternPtr p = MustAnalyze(
      "PATTERN (T1 & T2);T3 "
      "WHERE T1.name = T2.name AND T2.name = T3.name WITHIN 10");
  const PhysicalPlan flattened{
      PhysNode::Seq(PhysNode::Seq(L(0), L(1)), L(2)), 0.0};
  const auto report = verify::VerifyPlanReport(*p, flattened);
  EXPECT_TRUE(HasViolation(report, "structure-compat", errc::kVerifyStructure))
      << Dump(report);
}

// Bug #7: hash-equality routing treated disjunction branches as jointly
// bound. A plan joining (T1 | T2) with a CONJ demands both branches in
// one match — the same class-relation confusion, caught structurally.
TEST(FuzzBugRegression, DisjunctionBranchesJoinedAsConjunction) {
  const PatternPtr p = MustAnalyze(
      "PATTERN (T1 | T2) WHERE T1.price > 100 AND T2.price > 100 "
      "WITHIN 10");
  const PhysicalPlan conj{PhysNode::Conj(L(0), L(1)), 0.0};
  const auto report = verify::VerifyPlanReport(*p, conj);
  EXPECT_TRUE(HasViolation(report, "structure-compat", errc::kVerifyStructure))
      << Dump(report);
}

// Bug #5: NegFilterNode applied a negation across the other disjunction
// branch's matches. The push-mask invariant: a negated class appears
// exactly once, as NSEQ operand or NEG filter — here it appears twice.
TEST(FuzzBugRegression, NegationConsumedTwice) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;!T2;T3 "
      "WHERE T1.name = T3.name AND T2.price > 90 WITHIN 10");
  const PhysicalPlan doubled{
      PhysNode::NegFilter(
          PhysNode::Seq(L(0), PhysNode::NSeq(L(1), L(2), /*neg_left=*/true)),
          /*neg_class=*/1),
      0.0};
  const auto report = verify::VerifyPlanReport(*p, doubled);
  EXPECT_TRUE(HasViolation(report, "negation-handled",
                           errc::kVerifyNegationHandled))
      << Dump(report);
}

// Bugs #6/#8: the NFA ignored stripped partition-key equalities and the
// analyzer materialized unsound transitive chains. What survives in the
// Pattern is now checked for structural coherence before the runtime
// routes events by raw field index.
TEST(FuzzBugRegression, PartitionSpecSizeMismatch) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;!T2;T3 WHERE T1.name = T2.name = T3.name WITHIN 10");
  ASSERT_TRUE(p->partition.has_value());
  auto plan = BuildPlan(p, CompileOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Pattern corrupted = *p;
  PartitionSpec spec = *corrupted.partition;
  spec.field_indices.pop_back();  // one index short of the class count
  corrupted.partition = spec;
  const auto report = verify::VerifyPlanReport(corrupted, *plan);
  EXPECT_TRUE(HasViolation(report, "partition-key", errc::kVerifyPartitionKey))
      << Dump(report);
}

// Bug #3: the former per-key engine's lazy instantiation swallowed
// Engine::Create errors, running partitions on unvalidated plans.
// Keyed queries now build one Engine up front, and Engine::Create runs
// the full verifier: a corrupt plan is an error at build time, never a
// silently wrong partition.
TEST(FuzzBugRegression, EngineCreateRejectsCorruptPlan) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;T2 WHERE T1.name = T2.name WITHIN 10");
  ASSERT_TRUE(p->partition.has_value());
  const PhysicalPlan corrupt{PhysNode::Seq(L(0), L(0)), 0.0};
  const auto engine = Engine::Create(p, corrupt);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kSemanticError);
  // The same through the public compile path a keyed query takes.
  CompileOptions options;
  options.strategy = PlanStrategy::kShape;
  options.shape = "T1 ; T1";
  ZStream zs(StockSchema());
  EXPECT_FALSE(
      zs.Compile("PATTERN T1;T2 WHERE T1.name = T2.name WITHIN 10", options)
          .ok());
}

// ---------------------------------------------------------------------
// Plan mutator: the fuzzer's --mutate-plans mode in miniature
// ---------------------------------------------------------------------

TEST(PlanMutator, DeterministicPerSeed) {
  const PatternPtr p = MustAnalyze(
      "PATTERN T1;!T2;T3 WHERE T1.name = T2.name = T3.name WITHIN 10");
  auto plan = BuildPlan(p, CompileOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const auto a = zstream::testing::MutatePlan(*p, *plan, 42);
  const auto b = zstream::testing::MutatePlan(*p, *plan, 42);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->description, b->description);
}

TEST(PlanMutator, EveryMutationIsRejectedByTheVerifier) {
  const std::vector<std::string> corpus = {
      "PATTERN T1;T2;T3 WHERE T1.name = T2.name AND T2.name = T3.name "
      "WITHIN 10",
      "PATTERN T1;!T2;T3 WHERE T1.name = T2.name = T3.name WITHIN 10",
      "PATTERN T1;T2^2;T3 WHERE T1.name = T3.name AND sum(T2.volume) > 150 "
      "WITHIN 10",
      "PATTERN (T1 & T2);T3 WHERE T1.name = T2.name AND T2.name = T3.name "
      "WITHIN 10",
  };
  for (const std::string& text : corpus) {
    const PatternPtr p = MustAnalyze(text);
    for (const auto& [name, strategy] : AllStrategies(*p)) {
      CompileOptions options;
      options.strategy = strategy;
      auto plan = BuildPlan(p, options);
      if (!plan.ok() && plan.status().code() == StatusCode::kNotSupported) {
        continue;
      }
      ASSERT_TRUE(plan.ok()) << name << ": " << plan.status().ToString();
      for (uint64_t seed = 1; seed <= 25; ++seed) {
        const auto mutation = zstream::testing::MutatePlan(*p, *plan, seed);
        if (!mutation.has_value()) continue;
        const Status verdict =
            verify::VerifyPlan(mutation->pattern, mutation->plan);
        EXPECT_FALSE(verdict.ok())
            << "surviving mutant [" << mutation->description << "] of "
            << name << " plan for: " << text;
      }
    }
  }
}

}  // namespace
}  // namespace zstream
