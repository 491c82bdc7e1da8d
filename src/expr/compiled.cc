#include "expr/compiled.h"

#include "common/macros.h"

namespace zstream {

namespace {

inline bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

inline bool RelationHolds(BinaryOp op, int c) {
  switch (op) {
    case BinaryOp::kEq: return c == 0;
    case BinaryOp::kNe: return c != 0;
    case BinaryOp::kLt: return c < 0;
    case BinaryOp::kLe: return c <= 0;
    case BinaryOp::kGt: return c > 0;
    case BinaryOp::kGe: return c >= 0;
    default: return false;
  }
}

}  // namespace

// Writes into caller-owned storage rather than returning
// std::optional<Operand>: copying the Value variant out of a returned
// optional trips GCC 12's -Wmaybe-uninitialized false positive under
// -O2 + sanitizers (PR80635 family).
bool CompiledPredicate::CompileOperand(const ExprPtr& e, Operand* out) {
  switch (e->kind()) {
    case ExprKind::kLiteral:
      out->kind = Operand::Kind::kLit;
      out->literal = e->literal();
      return true;
    case ExprKind::kAttrRef:
      out->kind = Operand::Kind::kAttr;
      out->class_idx = e->class_idx();
      out->field_idx = e->field_idx();
      return true;
    case ExprKind::kTimeRef:
      out->kind = Operand::Kind::kTime;
      out->class_idx = e->class_idx();
      return true;
    default:
      return false;
  }
}

bool CompiledPredicate::CompileInto(const Expr& e, std::vector<Term>* terms) {
  if (e.kind() != ExprKind::kBinary) return false;
  if (e.binary_op() == BinaryOp::kAnd) {
    // Term order mirrors the interpreter's left-to-right evaluation;
    // with pure comparisons the outcome is order-independent, this just
    // keeps the common cheap-first authoring order intact.
    return CompileInto(*e.left(), terms) && CompileInto(*e.right(), terms);
  }
  if (!IsComparison(e.binary_op())) return false;
  Term t;
  t.op = e.binary_op();
  if (!CompileOperand(e.left(), &t.lhs)) return false;
  if (!CompileOperand(e.right(), &t.rhs)) return false;
  terms->push_back(std::move(t));
  return true;
}

std::optional<CompiledPredicate> CompiledPredicate::Compile(
    const ExprPtr& expr) {
  if (expr == nullptr) return std::nullopt;
  CompiledPredicate out;
  if (!CompileInto(*expr, &out.terms_)) return std::nullopt;
  if (out.terms_.empty()) return std::nullopt;
  return out;
}

bool CompiledPredicate::SingleClass(int c) const {
  for (const Term& t : terms_) {
    for (const Operand* o : {&t.lhs, &t.rhs}) {
      if (o->kind != Operand::Kind::kLit && o->class_idx != c) return false;
    }
  }
  return true;
}

// Operand resolution matching Expr::Eval: an unbound (or out-of-range)
// slot yields null, and a null on either side fails the comparison
// (EvalCompare returns null, which is not truthy).
template <typename EventOf>
ZS_HOT inline const Value* CompiledPredicate::Resolve(const Operand& o,
                                                      const EventOf& event_of,
                                                      Value* time) {
  if (o.kind == Operand::Kind::kLit) return &o.literal;
  const Event* ev = event_of(o.class_idx);
  if (ev == nullptr) return nullptr;
  if (o.kind == Operand::Kind::kAttr) return &ev->value(o.field_idx);
  *time = Value(static_cast<int64_t>(ev->timestamp()));
  return time;
}

template <typename EventOf>
ZS_HOT inline bool CompiledPredicate::TermPasses(const Term& t,
                                                 const EventOf& event_of) {
  Value time_l, time_r;
  const Value* a = Resolve(t.lhs, event_of, &time_l);
  if (a == nullptr || a->is_null()) return false;
  const Value* b = Resolve(t.rhs, event_of, &time_r);
  if (b == nullptr || b->is_null()) return false;
  const auto cmp = a->Compare(*b);
  if (!cmp.ok()) return false;
  return RelationHolds(t.op, *cmp);
}

ZS_HOT bool CompiledPredicate::Eval(const EvalInput& in) const {
  const auto slot = [&in](int c) -> const Event* {
    return c < in.num_slots ? in.slots[c].get() : nullptr;
  };
  for (const Term& t : terms_) {
    if (!TermPasses(t, slot)) return false;
  }
  return true;
}

ZS_HOT void CompiledPredicate::FilterBatch(const EventPtr* events, int n,
                                           uint8_t* mask) const {
  for (const Term& t : terms_) {
    for (int j = 0; j < n; ++j) {
      if (mask[j] == 0) continue;
      const Event* event = events[j].get();
      if (!TermPasses(t, [event](int) { return event; })) mask[j] = 0;
    }
  }
}

}  // namespace zstream
