// Tseitin bit-blasting of bv expressions to CNF over a SatSolver.
//
// Every bit-vector expression is lowered to a vector of SAT literals, LSB
// first. Word-level operators become standard circuits: ripple-carry adders,
// shift-add multipliers, barrel shifters, and mux trees. Division by a
// constant power of two 2^k (udiv/urem) is wiring: the quotient is the
// dividend's bits shifted down by k and the remainder its low k bits, both
// zero-filled, with no variable or clause. Every other divisor, including
// zero, other constants and symbolic ones, goes through the restoring
// divider. The translation is sound and complete for QF_BV, which is the
// full fragment the symbolic executor emits.
#pragma once

#include <unordered_map>
#include <vector>

#include "bv/analysis.hpp"
#include "bv/expr.hpp"
#include "solver/sat.hpp"

namespace vsd::solver {

class BitBlaster {
 public:
  explicit BitBlaster(sat::SatSolver& solver);

  // Asserts that the width-1 expression `e` is true.
  void assert_true(const bv::ExprRef& e);

  // Lowers `e` and returns its literals (LSB first). Cached per node.
  const std::vector<sat::Lit>& blast(const bv::ExprRef& e);

  // After a Sat result, reads back the concrete value of `e` from the model.
  uint64_t model_value(const bv::ExprRef& e);

  sat::Lit true_lit() const { return true_lit_; }
  sat::Lit false_lit() const { return ~true_lit_; }

  // Incremental-context introspection: whether `e` already has a cached
  // lowering (a prefix conjunct being reused), and how many expression
  // nodes this blaster has lowered so far.
  bool is_cached(const bv::ExprRef& e) const {
    return cache_.find(e->uid()) != cache_.end();
  }
  size_t cache_size() const { return cache_.size(); }

 private:
  using Bits = std::vector<sat::Lit>;

  sat::Lit fresh();
  sat::Lit const_lit(bool b) const { return b ? true_lit() : false_lit(); }

  // Gate constructors returning the output literal (with Tseitin clauses).
  sat::Lit gate_and(sat::Lit a, sat::Lit b);
  sat::Lit gate_or(sat::Lit a, sat::Lit b);
  sat::Lit gate_xor(sat::Lit a, sat::Lit b);
  sat::Lit gate_mux(sat::Lit sel, sat::Lit t, sat::Lit f);
  sat::Lit gate_and_all(const Bits& ls);
  sat::Lit gate_or_all(const Bits& ls);

  Bits blast_uncached(const bv::ExprRef& e);
  Bits ripple_add(const Bits& a, const Bits& b, sat::Lit carry_in);
  Bits negate(const Bits& a);
  Bits multiply(const Bits& a, const Bits& b);
  // Encodes q = a udiv b, r = a urem b with SMT-LIB zero-divisor semantics
  // as a w-step restoring divider. Used for every divisor that is not a
  // constant power of two; those are wired directly in blast_uncached.
  void divide(const Bits& a, const Bits& b, Bits& q, Bits& r);
  Bits shift(const bv::ExprRef& e, const Bits& a, const Bits& s);
  sat::Lit ult(const Bits& a, const Bits& b);
  sat::Lit ule(const Bits& a, const Bits& b);
  sat::Lit equal(const Bits& a, const Bits& b);
  Bits mux_word(sat::Lit sel, const Bits& t, const Bits& f);

  sat::SatSolver& solver_;
  sat::Lit true_lit_;
  std::unordered_map<uint64_t, Bits> cache_;  // expr uid -> literals
};

}  // namespace vsd::solver
