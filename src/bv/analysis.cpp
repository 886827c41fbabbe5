#include "bv/analysis.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <unordered_set>

namespace vsd::bv {

ExprRef Substituter::operator()(const ExprRef& e) {
  if (sub_.empty()) return e;
  return rewrite(e);
}

ExprRef Substituter::rewrite(const ExprRef& e) {
  auto it = memo_.find(e.get());
  if (it != memo_.end()) return it->second;
  const ExprRef out = rewrite_uncached(e);
  memo_.emplace(e.get(), out);
  return out;
}

ExprRef Substituter::rewrite_uncached(const ExprRef& e) {
  switch (e->kind()) {
    case Kind::Const:
      return e;
    case Kind::Var: {
      auto it = sub_.find(e->var_id());
      if (it == sub_.end()) return e;
      assert(it->second->width() == e->width());
      return it->second;
    }
    default:
      break;
  }
  std::array<ExprRef, Expr::kMaxOperands> ops;
  bool changed = false;
  for (size_t i = 0; i < e->num_operands(); ++i) {
    ops[i] = rewrite(e->operand(i));
    changed = changed || ops[i] != e->operand(i);
  }
  if (!changed) return e;
  switch (e->kind()) {
    case Kind::Not: return mk_not(ops[0]);
    case Kind::Neg: return mk_neg(ops[0]);
    case Kind::Add: return mk_add(ops[0], ops[1]);
    case Kind::Sub: return mk_sub(ops[0], ops[1]);
    case Kind::Mul: return mk_mul(ops[0], ops[1]);
    case Kind::UDiv: return mk_udiv(ops[0], ops[1]);
    case Kind::URem: return mk_urem(ops[0], ops[1]);
    case Kind::And: return mk_and(ops[0], ops[1]);
    case Kind::Or: return mk_or(ops[0], ops[1]);
    case Kind::Xor: return mk_xor(ops[0], ops[1]);
    case Kind::Shl: return mk_shl(ops[0], ops[1]);
    case Kind::LShr: return mk_lshr(ops[0], ops[1]);
    case Kind::AShr: return mk_ashr(ops[0], ops[1]);
    case Kind::Eq: return mk_eq(ops[0], ops[1]);
    case Kind::Ult: return mk_ult(ops[0], ops[1]);
    case Kind::Ule: return mk_ule(ops[0], ops[1]);
    case Kind::Slt: return mk_slt(ops[0], ops[1]);
    case Kind::Sle: return mk_sle(ops[0], ops[1]);
    case Kind::ZExt: return mk_zext(ops[0], e->width());
    case Kind::SExt: return mk_sext(ops[0], e->width());
    case Kind::Extract:
      return mk_extract(ops[0], e->extract_lo(), e->width());
    case Kind::Concat: return mk_concat(ops[0], ops[1]);
    case Kind::Ite: return mk_ite(ops[0], ops[1], ops[2]);
    case Kind::Const:
    case Kind::Var:
      break;
  }
  return e;
}

namespace {

class Evaluator {
 public:
  explicit Evaluator(const Assignment& a) : assignment_(a) {}

  uint64_t eval(const ExprRef& e) {
    auto it = memo_.find(e->uid());
    if (it != memo_.end()) return it->second;
    const uint64_t v = truncate_to_width(eval_uncached(e), e->width());
    memo_.emplace(e->uid(), v);
    return v;
  }

 private:
  uint64_t eval_uncached(const ExprRef& e) {
    const unsigned w = e->width();
    switch (e->kind()) {
      case Kind::Const: return e->value();
      case Kind::Var: {
        auto it = assignment_.find(e->var_id());
        return it == assignment_.end() ? 0 : it->second;
      }
      case Kind::Not: return ~eval(e->operand(0));
      case Kind::Neg: return -eval(e->operand(0));
      case Kind::Add: return eval(e->operand(0)) + eval(e->operand(1));
      case Kind::Sub: return eval(e->operand(0)) - eval(e->operand(1));
      case Kind::Mul: return eval(e->operand(0)) * eval(e->operand(1));
      case Kind::UDiv: {
        const uint64_t b = eval(e->operand(1));
        // SMT-LIB: bvudiv by zero yields all ones.
        return b == 0 ? ~uint64_t{0} : eval(e->operand(0)) / b;
      }
      case Kind::URem: {
        const uint64_t b = eval(e->operand(1));
        return b == 0 ? eval(e->operand(0)) : eval(e->operand(0)) % b;
      }
      case Kind::And: return eval(e->operand(0)) & eval(e->operand(1));
      case Kind::Or: return eval(e->operand(0)) | eval(e->operand(1));
      case Kind::Xor: return eval(e->operand(0)) ^ eval(e->operand(1));
      case Kind::Shl: {
        const uint64_t s = eval(e->operand(1));
        return s >= w ? 0 : eval(e->operand(0)) << s;
      }
      case Kind::LShr: {
        const uint64_t s = eval(e->operand(1));
        return s >= w ? 0 : eval(e->operand(0)) >> s;
      }
      case Kind::AShr: {
        const uint64_t s = eval(e->operand(1));
        const int64_t a = sign_extend_64(eval(e->operand(0)), w);
        if (s >= w) return a < 0 ? ~uint64_t{0} : 0;
        return static_cast<uint64_t>(a >> static_cast<int64_t>(s));
      }
      case Kind::Eq:
        return eval(e->operand(0)) == eval(e->operand(1)) ? 1 : 0;
      case Kind::Ult:
        return eval(e->operand(0)) < eval(e->operand(1)) ? 1 : 0;
      case Kind::Ule:
        return eval(e->operand(0)) <= eval(e->operand(1)) ? 1 : 0;
      case Kind::Slt: {
        const unsigned ow = e->operand(0)->width();
        return sign_extend_64(eval(e->operand(0)), ow) <
                       sign_extend_64(eval(e->operand(1)), ow)
                   ? 1
                   : 0;
      }
      case Kind::Sle: {
        const unsigned ow = e->operand(0)->width();
        return sign_extend_64(eval(e->operand(0)), ow) <=
                       sign_extend_64(eval(e->operand(1)), ow)
                   ? 1
                   : 0;
      }
      case Kind::ZExt: return eval(e->operand(0));
      case Kind::SExt:
        return static_cast<uint64_t>(
            sign_extend_64(eval(e->operand(0)), e->operand(0)->width()));
      case Kind::Extract:
        return eval(e->operand(0)) >> e->extract_lo();
      case Kind::Concat:
        return (eval(e->operand(0)) << e->operand(1)->width()) |
               eval(e->operand(1));
      case Kind::Ite:
        return eval(e->operand(0)) != 0 ? eval(e->operand(1))
                                        : eval(e->operand(2));
    }
    return 0;
  }

  const Assignment& assignment_;
  std::unordered_map<uint64_t, uint64_t> memo_;
};

}  // namespace

uint64_t evaluate(const ExprRef& e, const Assignment& assignment) {
  Evaluator ev(assignment);
  return ev.eval(e);
}

std::optional<std::vector<ExprRef>> free_variables_within(const ExprRef& e,
                                                          uint64_t max_bits) {
  std::vector<ExprRef> out;
  uint64_t bits = 0;
  std::unordered_set<const Expr*> visited;
  std::vector<const Expr*> stack{e.get()};
  while (!stack.empty()) {
    const Expr* cur = stack.back();
    stack.pop_back();
    if (!visited.insert(cur).second) continue;
    if (cur->kind() == Kind::Var) {
      // mk_var mints one node per id, so distinct nodes are distinct vars.
      bits += cur->width();
      if (bits > max_bits) return std::nullopt;
      out.push_back(ExprRef(cur));
      continue;
    }
    for (const ExprRef& op : cur->operands()) stack.push_back(op.get());
  }
  // Ids are allocation-ordered, so sorting by id gives a deterministic
  // order independent of the walk.
  std::sort(out.begin(), out.end(), [](const ExprRef& a, const ExprRef& b) {
    return a->var_id() < b->var_id();
  });
  return out;
}

std::vector<ExprRef> free_variables(const ExprRef& e) {
  return *free_variables_within(e, ~uint64_t{0});
}

size_t dag_size(const ExprRef& e) {
  std::unordered_map<uint64_t, bool> visited;
  std::vector<const Expr*> stack{e.get()};
  size_t n = 0;
  while (!stack.empty()) {
    const Expr* cur = stack.back();
    stack.pop_back();
    if (visited.count(cur->uid()) != 0) continue;
    visited.emplace(cur->uid(), true);
    ++n;
    for (size_t i = 0; i < cur->num_operands(); ++i) {
      stack.push_back(cur->operand(i).get());
    }
  }
  return n;
}

namespace {

uint64_t width_max(unsigned w) { return truncate_to_width(~uint64_t{0}, w); }

class IntervalAnalysis {
 public:
  Interval run(const ExprRef& e) {
    auto it = memo_.find(e->uid());
    if (it != memo_.end()) return it->second;
    Interval v = compute(e);
    // Clamp defensively to the width's range.
    const uint64_t wm = width_max(e->width());
    v.lo = std::min(v.lo, wm);
    v.hi = std::min(v.hi, wm);
    if (v.lo > v.hi) v = Interval{0, wm};
    memo_.emplace(e->uid(), v);
    return v;
  }

 private:
  Interval compute(const ExprRef& e) {
    const unsigned w = e->width();
    const uint64_t wm = width_max(w);
    const Interval top{0, wm};
    switch (e->kind()) {
      case Kind::Const:
        return {e->value(), e->value()};
      case Kind::Var:
        return top;
      case Kind::ZExt:
        return run(e->operand(0));
      case Kind::And: {
        // Result can never exceed either operand's max.
        const Interval a = run(e->operand(0));
        const Interval b = run(e->operand(1));
        return {0, std::min(a.hi, b.hi)};
      }
      case Kind::Or: {
        const Interval a = run(e->operand(0));
        const Interval b = run(e->operand(1));
        // hi bound: next power-of-two envelope of max(a.hi, b.hi) joined.
        uint64_t m = a.hi | b.hi;
        uint64_t envelope = m;
        envelope |= envelope >> 1; envelope |= envelope >> 2;
        envelope |= envelope >> 4; envelope |= envelope >> 8;
        envelope |= envelope >> 16; envelope |= envelope >> 32;
        return {std::max(a.lo, b.lo), std::min(envelope, wm)};
      }
      case Kind::Add: {
        const Interval a = run(e->operand(0));
        const Interval b = run(e->operand(1));
        // Only precise when no wraparound is possible.
        if (a.hi <= wm - b.hi) return {a.lo + b.lo, a.hi + b.hi};
        return top;
      }
      case Kind::Sub: {
        const Interval a = run(e->operand(0));
        const Interval b = run(e->operand(1));
        if (a.lo >= b.hi) return {a.lo - b.hi, a.hi - b.lo};
        return top;
      }
      case Kind::Mul: {
        const Interval a = run(e->operand(0));
        const Interval b = run(e->operand(1));
        if (b.hi != 0 && a.hi <= wm / b.hi) return {a.lo * b.lo, a.hi * b.hi};
        if (b.hi == 0 || a.hi == 0) return {0, 0};
        return top;
      }
      case Kind::UDiv: {
        const Interval a = run(e->operand(0));
        const Interval b = run(e->operand(1));
        if (b.lo > 0) return {a.lo / b.hi, a.hi / b.lo};
        return top;
      }
      case Kind::URem: {
        const Interval b = run(e->operand(1));
        if (b.hi > 0) return {0, b.hi - 1};
        return top;
      }
      case Kind::LShr: {
        const Interval a = run(e->operand(0));
        const Interval s = run(e->operand(1));
        if (s.is_singleton() && s.lo < w) return {a.lo >> s.lo, a.hi >> s.lo};
        return {0, a.hi};
      }
      case Kind::Shl: {
        const Interval a = run(e->operand(0));
        const Interval s = run(e->operand(1));
        if (s.is_singleton() && s.lo < w && a.hi <= (wm >> s.lo)) {
          return {a.lo << s.lo, a.hi << s.lo};
        }
        return top;
      }
      case Kind::Extract: {
        const Interval a = run(e->operand(0));
        if (e->extract_lo() == 0 && a.hi <= wm) return {a.lo, a.hi};
        return top;
      }
      case Kind::Concat: {
        const Interval hi = run(e->operand(0));
        const Interval lo = run(e->operand(1));
        const unsigned lw = e->operand(1)->width();
        return {(hi.lo << lw) | lo.lo, (hi.hi << lw) | width_max(lw)};
      }
      case Kind::Ite: {
        const Interval a = run(e->operand(1));
        const Interval b = run(e->operand(2));
        return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
      }
      case Kind::Eq:
      case Kind::Ult:
      case Kind::Ule:
      case Kind::Slt:
      case Kind::Sle: {
        // Try to decide the comparison from operand intervals.
        const Interval a = run(e->operand(0));
        const Interval b = run(e->operand(1));
        switch (e->kind()) {
          case Kind::Eq:
            if (a.hi < b.lo || b.hi < a.lo) return {0, 0};
            if (a.is_singleton() && b.is_singleton() && a.lo == b.lo)
              return {1, 1};
            break;
          case Kind::Ult:
            if (a.hi < b.lo) return {1, 1};
            if (a.lo >= b.hi) return {0, 0};
            break;
          case Kind::Ule:
            if (a.hi <= b.lo) return {1, 1};
            if (a.lo > b.hi) return {0, 0};
            break;
          default:
            break;  // signed comparisons: skip (rare in dataplane code)
        }
        return {0, 1};
      }
      default:
        return top;
    }
  }

  std::unordered_map<uint64_t, Interval> memo_;
};

}  // namespace

Interval interval_of(const ExprRef& e) {
  IntervalAnalysis a;
  return a.run(e);
}

std::optional<bool> decide_by_interval(const ExprRef& e) {
  assert(e->width() == 1);
  if (e->kind() == Kind::Not) {
    const auto inner = decide_by_interval(e->operand(0));
    if (inner) return !*inner;
    return std::nullopt;
  }
  const Interval i = interval_of(e);
  if (i.is_singleton()) return i.lo != 0;
  return std::nullopt;
}

}  // namespace vsd::bv
