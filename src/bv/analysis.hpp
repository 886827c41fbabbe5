// Structural analyses over bv expressions: substitution, concrete
// evaluation, free-variable collection, and unsigned interval bounds.
//
// Substitution is the workhorse of pipeline composition (Step 2 of the
// paper's verification process): an element's segment constraint C(in) is
// rebased onto the previous element's symbolic output by substituting each
// input variable with the corresponding output expression.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bv/expr.hpp"

namespace vsd::bv {

// Maps variable ids to replacement expressions (must match widths).
using Substitution = std::unordered_map<uint64_t, ExprRef>;

// Applies one substitution to any number of expressions. Each call returns
// `e` with every Var whose id appears in `sub` replaced by the mapped
// expression; results are re-folded bottom-up so stitched constraints often
// collapse to constants without any solver involvement. The memo of
// rewritten nodes lasts across calls, so expressions that share subterms (a
// segment's constraint, its KV records and its exit bytes) rewrite each
// shared node once. `sub` must outlive the Substituter and stay unchanged
// while it is used.
class Substituter {
 public:
  explicit Substituter(const Substitution& sub) : sub_(sub) {}
  explicit Substituter(Substitution&&) = delete;  // would dangle

  ExprRef operator()(const ExprRef& e);

 private:
  ExprRef rewrite(const ExprRef& e);
  ExprRef rewrite_uncached(const ExprRef& e);

  const Substitution& sub_;
  std::unordered_map<const Expr*, ExprRef> memo_;
};

// Maps variable ids to concrete values for evaluation.
using Assignment = std::unordered_map<uint64_t, uint64_t>;

// Evaluates `e` under `assignment`. Unassigned variables evaluate to 0
// (matching the solver's model completion). Division by zero evaluates to
// all-ones / identity per SMT-LIB bv semantics.
uint64_t evaluate(const ExprRef& e, const Assignment& assignment);

// Collects the distinct free variables of `e`, sorted by id.
std::vector<ExprRef> free_variables(const ExprRef& e);

// As free_variables, but gives up with nullopt as soon as the widths of the
// variables found so far sum past `max_bits`, without walking the rest of
// the DAG.
std::optional<std::vector<ExprRef>> free_variables_within(const ExprRef& e,
                                                          uint64_t max_bits);

// Counts distinct DAG nodes reachable from `e` (diagnostic).
size_t dag_size(const ExprRef& e);

// Unsigned interval [lo, hi] over the expression's width.
struct Interval {
  uint64_t lo = 0;
  uint64_t hi = ~uint64_t{0};

  bool is_singleton() const { return lo == hi; }
  bool contains(uint64_t v) const { return v >= lo && v <= hi; }
};

// Cheap unsigned range analysis. Sound: the expression's value always lies
// in the returned interval. Used as a pre-pass so comparisons with provably
// disjoint ranges fold to constants before SAT is attempted.
Interval interval_of(const ExprRef& e);

// Attempts to decide a width-1 expression by interval reasoning alone.
// Returns nullopt when intervals are inconclusive.
std::optional<bool> decide_by_interval(const ExprRef& e);

}  // namespace vsd::bv
