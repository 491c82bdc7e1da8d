// Compiled predicates: flat comparison programs for the hot eval paths.
//
// The tree walker in eval.cc is general but pays per node: virtual-free
// but recursive dispatch, and kAttrRef returns the attribute Value *by
// value* — a heap copy for every string comparison. The execution hot
// paths (leaf admission, join-pair predicates) overwhelmingly evaluate
// conjunctions of binary comparisons over attribute/timestamp/literal
// operands, so those shapes compile to a flat term vector evaluated
// with zero copies: operands resolve to `const Value*` into the event's
// value column (or the literal), and three-valued-logic truthiness is
// preserved exactly — a conjunction is truthy iff every comparison is
// truthy, and any null/unbound/incomparable operand fails the term.
//
// FilterBatch is the columnar flavour: one term at a time swept across
// an event batch, narrowing a selection mask (term-major evaluation over
// column slices instead of record-major tree walks).
//
// Unsupported shapes (OR, arithmetic, aggregates, IS NULL, NOT) return
// nullopt from Compile; callers keep the tree walker as the fallback,
// so compilation is a pure fast path with the oracle-checked
// interpreter defining semantics.
#ifndef ZSTREAM_EXPR_COMPILED_H_
#define ZSTREAM_EXPR_COMPILED_H_

#include <optional>
#include <vector>

#include "expr/expr.h"

namespace zstream {

/// \brief A conjunction of binary comparisons, compiled for copy-free
/// evaluation.
class CompiledPredicate {
 public:
  /// Compiles `expr` when it is an AND-tree of comparisons over
  /// attribute references, timestamp references and literals; nullopt
  /// otherwise.
  static std::optional<CompiledPredicate> Compile(const ExprPtr& expr);

  /// Exact-parity replacement for expr->EvalPredicate(in).
  bool Eval(const EvalInput& in) const;

  /// True when every operand references class `c` (or is a literal):
  /// the predicate can then run against a bare event of that class.
  bool SingleClass(int c) const;

  /// Columnar leaf admission: for each event with mask[j] != 0, clears
  /// mask[j] unless every term passes with the event bound to the
  /// predicate's (single) class. Requires SingleClass(c) for the class
  /// the events belong to.
  void FilterBatch(const EventPtr* events, int n, uint8_t* mask) const;

  size_t num_terms() const { return terms_.size(); }

 private:
  struct Operand {
    enum class Kind : char { kAttr, kTime, kLit };
    Kind kind = Kind::kLit;
    int class_idx = -1;
    int field_idx = -1;
    Value literal;
  };
  struct Term {
    BinaryOp op = BinaryOp::kEq;
    Operand lhs;
    Operand rhs;
  };

  static bool CompileInto(const Expr& e, std::vector<Term>* terms);
  // Returns false (leaving *out untouched) for operand shapes the
  // compiled path doesn't cover. Out-param rather than
  // std::optional<Operand> — see the note in compiled.cc.
  static bool CompileOperand(const ExprPtr& e, Operand* out);
  /// The one term evaluator. `event_of(class_idx)` finds an operand's
  /// event (null when unbound): a slot lookup for Eval, the bare event
  /// for FilterBatch.
  template <typename EventOf>
  static bool TermPasses(const Term& t, const EventOf& event_of);
  template <typename EventOf>
  static const Value* Resolve(const Operand& o, const EventOf& event_of,
                              Value* time);

  std::vector<Term> terms_;
};

}  // namespace zstream

#endif  // ZSTREAM_EXPR_COMPILED_H_
