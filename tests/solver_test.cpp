// Tests for the CDCL SAT solver and the bit-vector decision procedure.
#include <gtest/gtest.h>

#include "bv/analysis.hpp"
#include "net/workload.hpp"
#include "solver/bitblast.hpp"
#include "solver/sat.hpp"
#include "solver/solver.hpp"

namespace vsd {
namespace {

using bv::ExprRef;

// --- raw SAT layer ---------------------------------------------------------

TEST(Sat, TrivialSatAndModel) {
  sat::SatSolver s;
  const sat::Var a = s.new_var();
  const sat::Var b = s.new_var();
  ASSERT_TRUE(s.add_clause({sat::Lit(a, false)}));
  ASSERT_TRUE(s.add_clause({sat::Lit(a, true), sat::Lit(b, false)}));
  ASSERT_EQ(s.solve(), sat::SatResult::Sat);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
}

TEST(Sat, TrivialUnsat) {
  sat::SatSolver s;
  const sat::Var a = s.new_var();
  s.add_clause({sat::Lit(a, false)});
  s.add_clause({sat::Lit(a, true)});
  EXPECT_EQ(s.solve(), sat::SatResult::Unsat);
}

TEST(Sat, EmptyClauseViaSimplification) {
  sat::SatSolver s;
  const sat::Var a = s.new_var();
  ASSERT_TRUE(s.add_clause({sat::Lit(a, false)}));
  EXPECT_FALSE(s.add_clause({sat::Lit(a, true)}));
  EXPECT_EQ(s.solve(), sat::SatResult::Unsat);
}

TEST(Sat, PigeonholeUnsat) {
  // 4 pigeons, 3 holes: classic small UNSAT requiring real search.
  sat::SatSolver s;
  constexpr int P = 4, H = 3;
  sat::Var v[P][H];
  for (int p = 0; p < P; ++p)
    for (int h = 0; h < H; ++h) v[p][h] = s.new_var();
  for (int p = 0; p < P; ++p) {
    std::vector<sat::Lit> c;
    for (int h = 0; h < H; ++h) c.push_back(sat::Lit(v[p][h], false));
    s.add_clause(c);
  }
  for (int h = 0; h < H; ++h)
    for (int p1 = 0; p1 < P; ++p1)
      for (int p2 = p1 + 1; p2 < P; ++p2)
        s.add_clause({sat::Lit(v[p1][h], true), sat::Lit(v[p2][h], true)});
  EXPECT_EQ(s.solve(), sat::SatResult::Unsat);
}

TEST(Sat, GraphColoringSat) {
  // 3-color a 5-cycle (needs 3 colors; satisfiable).
  sat::SatSolver s;
  constexpr int N = 5, C = 3;
  sat::Var col[N][C];
  for (int n = 0; n < N; ++n)
    for (int c = 0; c < C; ++c) col[n][c] = s.new_var();
  for (int n = 0; n < N; ++n) {
    std::vector<sat::Lit> at_least;
    for (int c = 0; c < C; ++c) at_least.push_back(sat::Lit(col[n][c], false));
    s.add_clause(at_least);
  }
  for (int n = 0; n < N; ++n) {
    const int m = (n + 1) % N;
    for (int c = 0; c < C; ++c) {
      s.add_clause({sat::Lit(col[n][c], true), sat::Lit(col[m][c], true)});
    }
  }
  ASSERT_EQ(s.solve(), sat::SatResult::Sat);
  // Verify the model is a proper coloring.
  for (int n = 0; n < N; ++n) {
    const int m = (n + 1) % N;
    for (int c = 0; c < C; ++c) {
      EXPECT_FALSE(s.model_value(col[n][c]) && s.model_value(col[m][c]));
    }
  }
}

TEST(Sat, ConflictBudgetReturnsUnknown) {
  // A small random-ish hard instance with a 1-conflict budget.
  sat::SatSolver s;
  std::vector<sat::Var> vs;
  for (int i = 0; i < 6; ++i) vs.push_back(s.new_var());
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) {
      s.add_clause({sat::Lit(vs[i], i % 2 == 0), sat::Lit(vs[j], j % 2 == 1),
                    sat::Lit(vs[(i + j) % 6], true)});
    }
  }
  const sat::SatResult r = s.solve(1);
  EXPECT_TRUE(r == sat::SatResult::Unknown || r == sat::SatResult::Sat ||
              r == sat::SatResult::Unsat);
}

// --- bit-vector layer --------------------------------------------------------

class SolverTest : public ::testing::Test {
 protected:
  solver::Solver s;
};

TEST_F(SolverTest, ConstantsDecideByFolding) {
  EXPECT_EQ(s.check(bv::mk_bool(true)).result, solver::Result::Sat);
  EXPECT_EQ(s.check(bv::mk_bool(false)).result, solver::Result::Unsat);
  EXPECT_GE(s.stats().decided_by_folding, 2u);
  EXPECT_EQ(s.stats().decided_by_sat, 0u);
}

TEST_F(SolverTest, IntervalLayerAvoidsSat) {
  const ExprRef x = bv::mk_var("x", 8);
  const ExprRef masked = bv::mk_and(x, bv::mk_const(0x0f, 8));
  EXPECT_TRUE(s.is_unsat(bv::mk_ult(bv::mk_const(100, 8), masked)));
  EXPECT_EQ(s.stats().decided_by_sat, 0u);
}

TEST_F(SolverTest, SatWithModel) {
  const ExprRef x = bv::mk_var("x", 16);
  const ExprRef y = bv::mk_var("y", 16);
  // x + y == 500 && x < 100 && y < 450
  const ExprRef f = bv::mk_land(
      bv::mk_eq(bv::mk_add(x, y), bv::mk_const(500, 16)),
      bv::mk_land(bv::mk_ult(x, bv::mk_const(100, 16)),
                  bv::mk_ult(y, bv::mk_const(450, 16))));
  const solver::CheckResult r = s.check(f);
  ASSERT_EQ(r.result, solver::Result::Sat);
  EXPECT_EQ(bv::evaluate(f, r.model), 1u);
  const uint64_t xv = r.model.at(x->var_id());
  const uint64_t yv = r.model.at(y->var_id());
  EXPECT_EQ((xv + yv) & 0xffff, 500u);
  EXPECT_LT(xv, 100u);
}

TEST_F(SolverTest, UnsatArithmetic) {
  const ExprRef x = bv::mk_var("x", 8);
  // x < 5 && x > 10 is unsat.
  const ExprRef f = bv::mk_land(bv::mk_ult(x, bv::mk_const(5, 8)),
                                bv::mk_ugt(x, bv::mk_const(10, 8)));
  EXPECT_TRUE(s.is_unsat(f));
}

TEST_F(SolverTest, MultiplicationSemantics) {
  const ExprRef x = bv::mk_var("x", 8);
  // x * 3 == 9 has solutions x=3 and x=... (wrap: 3+256k/3); check model.
  const ExprRef f =
      bv::mk_eq(bv::mk_mul(x, bv::mk_const(3, 8)), bv::mk_const(9, 8));
  const solver::CheckResult r = s.check(f);
  ASSERT_EQ(r.result, solver::Result::Sat);
  EXPECT_EQ((r.model.at(x->var_id()) * 3) & 0xff, 9u);
}

TEST_F(SolverTest, DivisionSemantics) {
  const ExprRef x = bv::mk_var("x", 8);
  // x / 4 == 7 && x % 4 == 2  ->  x == 30.
  const ExprRef f = bv::mk_land(
      bv::mk_eq(bv::mk_udiv(x, bv::mk_const(4, 8)), bv::mk_const(7, 8)),
      bv::mk_eq(bv::mk_urem(x, bv::mk_const(4, 8)), bv::mk_const(2, 8)));
  const solver::CheckResult r = s.check(f);
  ASSERT_EQ(r.result, solver::Result::Sat);
  EXPECT_EQ(r.model.at(x->var_id()), 30u);
}

TEST_F(SolverTest, DivisionByZeroSmtSemantics) {
  const ExprRef x = bv::mk_var("x", 8);
  // bvudiv by 0 = all-ones: (x udiv 0) == 0xff must be valid.
  const ExprRef f = bv::mk_ne(bv::mk_udiv(x, bv::mk_const(0, 8)),
                              bv::mk_const(0xff, 8));
  EXPECT_TRUE(s.is_unsat(f));
}

TEST_F(SolverTest, SignedComparison) {
  const ExprRef x = bv::mk_var("x", 8);
  // x <s 0 && x >u 200: negative byte values are exactly 128..255, sat.
  const ExprRef f = bv::mk_land(bv::mk_slt(x, bv::mk_const(0, 8)),
                                bv::mk_ugt(x, bv::mk_const(200, 8)));
  const solver::CheckResult r = s.check(f);
  ASSERT_EQ(r.result, solver::Result::Sat);
  EXPECT_GT(r.model.at(x->var_id()), 200u);
}

TEST_F(SolverTest, ShiftSemantics) {
  const ExprRef x = bv::mk_var("x", 8);
  const ExprRef sh = bv::mk_var("s", 8);
  // (x << s) == 0x80 && s == 7  ->  x odd.
  const ExprRef f =
      bv::mk_land(bv::mk_eq(bv::mk_shl(x, sh), bv::mk_const(0x80, 8)),
                  bv::mk_eq(sh, bv::mk_const(7, 8)));
  const solver::CheckResult r = s.check(f);
  ASSERT_EQ(r.result, solver::Result::Sat);
  EXPECT_EQ(r.model.at(x->var_id()) & 1, 1u);
}

TEST_F(SolverTest, OversizedShiftIsZero) {
  const ExprRef x = bv::mk_var("x", 8);
  const ExprRef f = bv::mk_ne(bv::mk_shl(x, bv::mk_const(8, 8)),
                              bv::mk_const(0, 8));
  EXPECT_TRUE(s.is_unsat(f));
}

TEST_F(SolverTest, ConcatExtractRoundTrip) {
  const ExprRef x = bv::mk_var("x", 16);
  const ExprRef hi = bv::mk_extract(x, 8, 8);
  const ExprRef lo = bv::mk_extract(x, 0, 8);
  EXPECT_TRUE(s.is_unsat(bv::mk_ne(bv::mk_concat(hi, lo), x)));
}

TEST_F(SolverTest, SextProperties) {
  const ExprRef x = bv::mk_var("x", 8);
  // sext(x,16) <s 0  <=>  x <s 0.
  const ExprRef lhs = bv::mk_slt(bv::mk_sext(x, 16), bv::mk_const(0, 16));
  const ExprRef rhs = bv::mk_slt(x, bv::mk_const(0, 8));
  EXPECT_TRUE(s.is_unsat(bv::mk_xor(lhs, rhs)));
}

TEST_F(SolverTest, IteSemantics) {
  const ExprRef c = bv::mk_var("c", 1);
  const ExprRef x = bv::mk_var("x", 8);
  const ExprRef e = bv::mk_ite(c, x, bv::mk_const(0, 8));
  // e != x && e != 0 is unsat.
  const ExprRef f = bv::mk_land(bv::mk_ne(e, x),
                                bv::mk_ne(e, bv::mk_const(0, 8)));
  EXPECT_TRUE(s.is_unsat(f));
}

TEST_F(SolverTest, CacheHitsOnRepeatedQueries) {
  const ExprRef x = bv::mk_var("x", 8);
  const ExprRef f = bv::mk_eq(bv::mk_mul(x, x), bv::mk_const(49, 8));
  (void)s.check(f);
  const uint64_t q1 = s.stats().cache_hits;
  (void)s.check(f);
  EXPECT_EQ(s.stats().cache_hits, q1 + 1);
}

TEST_F(SolverTest, WideWordArithmetic) {
  const ExprRef x = bv::mk_var("x", 32);
  // One's-complement checksum-style identity: ((x & 0xffff) + (x >> 16))
  // fits in 17 bits.
  const ExprRef folded =
      bv::mk_add(bv::mk_and(x, bv::mk_const(0xffff, 32)),
                 bv::mk_lshr(x, bv::mk_const(16, 32)));
  const ExprRef f = bv::mk_ugt(folded, bv::mk_const(0x1ffff, 32));
  EXPECT_TRUE(s.is_unsat(f));
}

TEST_F(SolverTest, ModelCoversAllFreeVariables) {
  const ExprRef a = bv::mk_var("a", 8);
  const ExprRef b = bv::mk_var("b", 8);
  const ExprRef c = bv::mk_var("c", 8);
  const ExprRef f = bv::mk_land(
      bv::mk_eq(bv::mk_add(a, b), bv::mk_const(10, 8)),
      bv::mk_eq(bv::mk_add(b, c), bv::mk_const(20, 8)));
  const solver::CheckResult r = s.check(f);
  ASSERT_EQ(r.result, solver::Result::Sat);
  EXPECT_TRUE(r.model.count(a->var_id()));
  EXPECT_TRUE(r.model.count(b->var_id()));
  EXPECT_TRUE(r.model.count(c->var_id()));
}

// Parameterized sweep: solver agrees with direct evaluation on random
// formula instances (a property-style check over widths).
class SolverWidthSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(SolverWidthSweep, AddCommutes) {
  const unsigned w = GetParam();
  solver::Solver s;
  const ExprRef x = bv::mk_var("x", w);
  const ExprRef y = bv::mk_var("y", w);
  EXPECT_TRUE(
      s.is_unsat(bv::mk_ne(bv::mk_add(x, y), bv::mk_add(y, x))));
}

TEST_P(SolverWidthSweep, SubIsAddNeg) {
  const unsigned w = GetParam();
  solver::Solver s;
  const ExprRef x = bv::mk_var("x", w);
  const ExprRef y = bv::mk_var("y", w);
  EXPECT_TRUE(s.is_unsat(
      bv::mk_ne(bv::mk_sub(x, y), bv::mk_add(x, bv::mk_neg(y)))));
}

TEST_P(SolverWidthSweep, UltTotalOrder) {
  const unsigned w = GetParam();
  solver::Solver s;
  const ExprRef x = bv::mk_var("x", w);
  const ExprRef y = bv::mk_var("y", w);
  // exactly one of x<y, y<x, x==y
  const ExprRef lt = bv::mk_ult(x, y);
  const ExprRef gt = bv::mk_ult(y, x);
  const ExprRef eq = bv::mk_eq(x, y);
  const ExprRef one = bv::mk_lor(bv::mk_lor(lt, gt), eq);
  EXPECT_TRUE(s.is_unsat(bv::mk_lnot(one)));
  EXPECT_TRUE(s.is_unsat(bv::mk_land(lt, gt)));
  EXPECT_TRUE(s.is_unsat(bv::mk_land(lt, eq)));
}

INSTANTIATE_TEST_SUITE_P(Widths, SolverWidthSweep,
                         ::testing::Values(1u, 3u, 8u, 13u, 16u, 24u, 32u));

// Property-based cross-check: the full decision stack (folding, intervals,
// bit-blasting, CDCL) agrees with brute-force enumeration on random
// formulas over three 4-bit variables. This fuzz caught a real conflict-
// analysis soundness bug during development; it stays as a regression net.
// Each formula goes to a fresh solver, to one long-lived solver (so its
// uid cache, unsat cores and cex models build up across formulas) through
// check_feasible() then check(), and to a long-lived solver with query
// avoidance off. Every verdict must match
// brute force, and every Sat model the avoidance-off one byte for byte.
TEST(SolverFuzz, AgreesWithBruteForceOnRandomFormulas) {
  net::Rng rng(0x5eed);
  std::vector<ExprRef> vars = {bv::mk_var("a", 4), bv::mk_var("b", 4),
                               bv::mk_var("c", 4)};
  solver::Solver shared;
  solver::Solver off;
  off.set_avoidance(false);
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<ExprRef> atoms;
    for (int i = 0; i < 6; ++i) {
      ExprRef x = vars[rng.next_below(3)];
      ExprRef y = rng.next_bool() ? vars[rng.next_below(3)]
                                  : bv::mk_const(rng.next_below(16), 4);
      switch (rng.next_below(6)) {
        case 0: x = bv::mk_add(x, y); y = bv::mk_const(rng.next_below(16), 4); break;
        case 1: x = bv::mk_mul(x, y); y = bv::mk_const(rng.next_below(16), 4); break;
        case 2: x = bv::mk_and(x, y); y = bv::mk_const(rng.next_below(16), 4); break;
        case 3: x = bv::mk_shl(x, y); y = bv::mk_const(rng.next_below(16), 4); break;
        default: break;
      }
      switch (rng.next_below(4)) {
        case 0: atoms.push_back(bv::mk_eq(x, y)); break;
        case 1: atoms.push_back(bv::mk_ult(x, y)); break;
        case 2: atoms.push_back(bv::mk_ule(x, y)); break;
        default: atoms.push_back(bv::mk_slt(x, y)); break;
      }
    }
    ExprRef f = atoms[0];
    for (size_t i = 1; i < atoms.size(); ++i) {
      switch (rng.next_below(3)) {
        case 0: f = bv::mk_land(f, atoms[i]); break;
        case 1: f = bv::mk_lor(f, atoms[i]); break;
        default: f = bv::mk_lnot(bv::mk_lor(f, atoms[i])); break;
      }
    }
    bool brute_sat = false;
    for (uint64_t m = 0; m < 16 * 16 * 16 && !brute_sat; ++m) {
      const bv::Assignment asn{{vars[0]->var_id(), m & 15},
                               {vars[1]->var_id(), (m >> 4) & 15},
                               {vars[2]->var_id(), (m >> 8) & 15}};
      if (bv::evaluate(f, asn) == 1) brute_sat = true;
    }
    const solver::Result want =
        brute_sat ? solver::Result::Sat : solver::Result::Unsat;
    solver::Solver s;
    const solver::CheckResult r = s.check(f);
    ASSERT_EQ(r.result, want)
        << "iter " << iter << " solver/brute-force disagreement";
    ASSERT_EQ(shared.check_feasible(f), want) << "iter " << iter;
    const solver::CheckResult rs = shared.check(f);
    const solver::CheckResult ro = off.check(f);
    ASSERT_EQ(rs.result, want) << "iter " << iter;
    ASSERT_EQ(ro.result, want) << "iter " << iter;
    if (r.result == solver::Result::Sat) {
      ASSERT_EQ(bv::evaluate(f, r.model), 1u)
          << "iter " << iter << " model does not satisfy the formula";
      ASSERT_EQ(r.model, ro.model) << "iter " << iter;
      ASSERT_EQ(rs.model, ro.model) << "iter " << iter;
    }
  }
  // The long-lived ladder really decided formulas on its avoidance rungs.
  const solver::CheckStats& st = shared.stats();
  EXPECT_GT(st.cache_hits, 0u);
  EXPECT_GT(st.exhaustion_decided, 0u);
  EXPECT_GT(st.cex_cache_hits, 0u);
  EXPECT_GT(st.slice_decided, 0u);
}

// The raw CDCL layer against brute force on random small CNFs.
TEST(SatFuzz, AgreesWithBruteForceOnRandomCnf) {
  net::Rng rng(7);
  for (int iter = 0; iter < 1500; ++iter) {
    const int nv = 8 + static_cast<int>(rng.next_below(5));
    const int nc = 20 + static_cast<int>(rng.next_below(40));
    std::vector<std::vector<int>> cls;
    for (int i = 0; i < nc; ++i) {
      std::vector<int> c;
      const int len = 1 + static_cast<int>(rng.next_below(3));
      for (int j = 0; j < len; ++j) {
        const int v = static_cast<int>(rng.next_below(nv));
        c.push_back(rng.next_bool() ? v + 1 : -(v + 1));
      }
      cls.push_back(c);
    }
    bool brute_sat = false;
    for (int m = 0; m < (1 << nv) && !brute_sat; ++m) {
      bool ok = true;
      for (const auto& c : cls) {
        bool clause_sat = false;
        for (const int l : c) {
          const bool val = (m >> (std::abs(l) - 1)) & 1;
          if ((l > 0) == val) { clause_sat = true; break; }
        }
        if (!clause_sat) { ok = false; break; }
      }
      brute_sat = ok;
    }
    sat::SatSolver s;
    for (int i = 0; i < nv; ++i) s.new_var();
    bool early_unsat = false;
    for (const auto& c : cls) {
      std::vector<sat::Lit> lits;
      for (const int l : c) lits.push_back(sat::Lit(std::abs(l) - 1, l < 0));
      if (!s.add_clause(lits)) { early_unsat = true; break; }
    }
    const sat::SatResult r = early_unsat ? sat::SatResult::Unsat : s.solve();
    ASSERT_EQ(r == sat::SatResult::Sat, brute_sat) << "iter " << iter;
  }
}

// --- Bit-blaster: division -------------------------------------------------
//
// These drive BitBlaster and SatSolver directly: the Solver's small-domain
// exhaustion rung decides queries of 10 bits or fewer without blasting.

// Blasts `e`, then solves with every bit of each variable in `fixed` pinned
// by an assumption and returns the value of `e` in the model.
uint64_t blasted_value(
    sat::SatSolver& sat, solver::BitBlaster& bb, const ExprRef& e,
    const std::vector<std::pair<ExprRef, uint64_t>>& fixed) {
  bb.blast(e);
  std::vector<sat::Lit> assumptions;
  for (const auto& [var, value] : fixed) {
    const std::vector<sat::Lit>& bits = bb.blast(var);
    for (size_t i = 0; i < bits.size(); ++i) {
      assumptions.push_back(((value >> i) & 1) != 0 ? bits[i] : ~bits[i]);
    }
  }
  EXPECT_EQ(sat.solve(assumptions), sat::SatResult::Sat);
  return bb.model_value(e);
}

TEST(BitBlastDivision, PowerOfTwoDivisorAddsNoVariableOrClause) {
  for (const unsigned w : {8u, 16u, 32u, 64u}) {
    for (unsigned k = 1; k < w; ++k) {
      sat::SatSolver sat;
      solver::BitBlaster bb(sat);
      const ExprRef x = bv::mk_var("x", w);
      const ExprRef d = bv::mk_const(uint64_t{1} << k, w);
      bb.blast(x);
      const int vars = sat.num_vars();
      const size_t clauses = sat.num_clauses();
      bb.blast(bv::mk_udiv(x, d));
      bb.blast(bv::mk_urem(x, d));
      EXPECT_EQ(sat.num_vars(), vars) << "w=" << w << " k=" << k;
      EXPECT_EQ(sat.num_clauses(), clauses) << "w=" << w << " k=" << k;
    }
  }
}

TEST(BitBlastDivision, PowerOfTwoDivisorAgreesWithEvaluate) {
  net::Rng rng(0xd1u);
  for (const unsigned w : {8u, 16u, 32u, 64u}) {
    const uint64_t mask = w == 64 ? ~uint64_t{0} : (uint64_t{1} << w) - 1;
    sat::SatSolver sat;
    solver::BitBlaster bb(sat);
    const ExprRef x = bv::mk_var("x", w);
    for (unsigned k = 1; k < w; ++k) {
      const uint64_t pow = uint64_t{1} << k;
      const ExprRef d = bv::mk_const(pow, w);
      const ExprRef q = bv::mk_udiv(x, d);
      const ExprRef r = bv::mk_urem(x, d);
      const uint64_t random = rng.next() & mask;
      for (const uint64_t xv : {random, uint64_t{0}, uint64_t{1}, pow - 1, pow,
                                mask}) {
        const bv::Assignment asn{{x->var_id(), xv}};
        EXPECT_EQ(blasted_value(sat, bb, q, {{x, xv}}), bv::evaluate(q, asn))
            << "w=" << w << " k=" << k << " x=" << xv;
        EXPECT_EQ(blasted_value(sat, bb, r, {{x, xv}}), bv::evaluate(r, asn))
            << "w=" << w << " k=" << k << " x=" << xv;
      }
    }
  }
}

TEST(BitBlastDivision, OtherDivisorsKeepTheDividerAndZeroSemantics) {
  // Divisor 0, a constant that is not a power of two, and a symbolic
  // divisor all go through the restoring divider at width 64, with SMT-LIB
  // semantics for a zero divisor: x udiv 0 = all-ones, x urem 0 = x.
  net::Rng rng(0xd2u);
  const uint64_t ones = ~uint64_t{0};
  const ExprRef x = bv::mk_var("x", 64);
  const ExprRef y = bv::mk_var("y", 64);
  for (const ExprRef& d : {bv::mk_const(0, 64), bv::mk_const(10, 64), y}) {
    sat::SatSolver sat;
    solver::BitBlaster bb(sat);
    bb.blast(x);
    bb.blast(d);
    const int vars = sat.num_vars();
    const ExprRef q = bv::mk_udiv(x, d);
    const ExprRef r = bv::mk_urem(x, d);
    bb.blast(q);
    bb.blast(r);
    // A zero divisor folds every gate of the divider to a constant.
    if (!d->is_const_value(0)) {
      EXPECT_GT(sat.num_vars(), vars)
          << "divisor " << (d->is_const() ? std::to_string(d->value()) : "y");
    }
    const std::vector<uint64_t> dvs =
        d->is_const() ? std::vector<uint64_t>{d->value()}
                      : std::vector<uint64_t>{0, 10, rng.next()};
    for (const uint64_t dv : dvs) {
      for (const uint64_t xv : {rng.next(), uint64_t{0}, uint64_t{1},
                                uint64_t{9}, uint64_t{10}, ones}) {
        std::vector<std::pair<ExprRef, uint64_t>> fixed{{x, xv}};
        bv::Assignment asn{{x->var_id(), xv}};
        if (!d->is_const()) {
          fixed.emplace_back(y, dv);
          asn[y->var_id()] = dv;
        }
        const uint64_t qv = blasted_value(sat, bb, q, fixed);
        const uint64_t rv = blasted_value(sat, bb, r, fixed);
        EXPECT_EQ(qv, bv::evaluate(q, asn)) << "x=" << xv << " d=" << dv;
        EXPECT_EQ(rv, bv::evaluate(r, asn)) << "x=" << xv << " d=" << dv;
        if (dv == 0) {
          EXPECT_EQ(qv, ones) << "x=" << xv;
          EXPECT_EQ(rv, xv) << "x=" << xv;
        }
      }
    }
  }
}

// --- Propagation completeness of every operator's lowering ------------------

namespace {

// The expressions of kind `k` over operands of width `w` the test lowers;
// empty where the kind takes no operand of that width.
std::vector<ExprRef> expressions_of_kind(bv::Kind k, unsigned w,
                                         net::Rng& rng) {
  using bv::Kind;
  const ExprRef x = bv::mk_var("x", w);
  const ExprRef y = bv::mk_var("y", w);
  const uint64_t mask = w == 64 ? ~uint64_t{0} : (uint64_t{1} << w) - 1;
  switch (k) {
    case Kind::Const: return {bv::mk_const(rng.next() & mask, w)};
    case Kind::Var: return {x};
    case Kind::Not: return {bv::mk_not(x)};
    case Kind::Neg: return {bv::mk_neg(x)};
    case Kind::Add: return {bv::mk_add(x, y)};
    case Kind::Sub: return {bv::mk_sub(x, y)};
    case Kind::Mul: return {bv::mk_mul(x, y)};
    case Kind::UDiv:
    case Kind::URem: {
      // A symbolic divisor, and at w >= 8 constants that are not powers of
      // two (those keep the restoring divider; powers of two are wiring).
      const auto op = k == Kind::UDiv ? bv::mk_udiv : bv::mk_urem;
      if (w == 1) return {op(x, y)};
      return {op(x, y), op(x, bv::mk_const(3, w)), op(x, bv::mk_const(10, w))};
    }
    case Kind::And: return {bv::mk_and(x, y)};
    case Kind::Or: return {bv::mk_or(x, y)};
    case Kind::Xor: return {bv::mk_xor(x, y)};
    case Kind::Shl: return {bv::mk_shl(x, y)};
    case Kind::LShr: return {bv::mk_lshr(x, y)};
    case Kind::AShr: return {bv::mk_ashr(x, y)};
    case Kind::Eq: return {bv::mk_eq(x, y)};
    case Kind::Ult: return {bv::mk_ult(x, y)};
    case Kind::Ule: return {bv::mk_ule(x, y)};
    case Kind::Slt: return {bv::mk_slt(x, y)};
    case Kind::Sle: return {bv::mk_sle(x, y)};
    case Kind::ZExt:
      return w < 64 ? std::vector<ExprRef>{bv::mk_zext(x, 2 * w)}
                    : std::vector<ExprRef>{};
    case Kind::SExt:
      return w < 64 ? std::vector<ExprRef>{bv::mk_sext(x, 2 * w)}
                    : std::vector<ExprRef>{};
    case Kind::Extract:
      return w > 1 ? std::vector<ExprRef>{bv::mk_extract(x, w / 4, w / 2)}
                   : std::vector<ExprRef>{};
    case Kind::Concat:
      return w < 64 ? std::vector<ExprRef>{bv::mk_concat(x, y)}
                    : std::vector<ExprRef>{};
    case Kind::Ite: return {bv::mk_ite(bv::mk_var("c", 1), x, y)};
  }
  return {};
}

}  // namespace

// Restricted branching (SatSolver::solve with a decision set) is sound only
// because every gate BitBlaster emits is propagation-complete: once its
// inputs are assigned, unit propagation assigns its output. So with every
// operand bit fixed by assumption and the lowering's own variable range as
// the decision set, every operator must come out Sat with no decision at
// all, and its value must equal bv::evaluate's.
TEST(BitBlastCompleteness, FixedOperandsPropagateEveryOperator) {
  using bv::Kind;
  net::Rng rng(0xc0u);
  int lowered = 0;
  for (int ki = 0; ki <= static_cast<int>(Kind::Ite); ++ki) {
    const Kind k = static_cast<Kind>(ki);
    for (const unsigned w : {1u, 8u, 16u, 32u, 64u}) {
      for (const ExprRef& e : expressions_of_kind(k, w, rng)) {
        ASSERT_EQ(e->kind(), k) << bv::kind_name(k) << " folded at w=" << w;
        sat::SatSolver sat;
        solver::BitBlaster bb(sat);
        bb.blast(e);
        const sat::VarRange* range = bb.lowered_range(e);
        ASSERT_NE(range, nullptr);
        const std::vector<sat::VarRange> decide_on{*range};
        const std::vector<ExprRef> operands = bv::free_variables(e);
        ++lowered;
        for (int sample = 0; sample < 8; ++sample) {
          bv::Assignment asn;
          std::vector<sat::Lit> assumptions;
          for (const ExprRef& v : operands) {
            const unsigned vw = v->width();
            const uint64_t vmask =
                vw == 64 ? ~uint64_t{0} : (uint64_t{1} << vw) - 1;
            const uint64_t value =
                sample == 0   ? 0
                : sample == 1 ? vmask
                : sample == 2 ? uint64_t{1} << (vw - 1)
                : sample == 3 ? 1
                : sample == 4 ? rng.next_below(vw + 1)  // in-range shifts
                              : rng.next() & vmask;
            asn[v->var_id()] = value;
            const std::vector<sat::Lit>& bits = bb.blast(v);
            for (size_t i = 0; i < bits.size(); ++i) {
              assumptions.push_back(((value >> i) & 1) != 0 ? bits[i]
                                                            : ~bits[i]);
            }
          }
          const uint64_t before = sat.stats().decisions;
          ASSERT_EQ(sat.solve(assumptions, UINT64_MAX, &decide_on),
                    sat::SatResult::Sat)
              << bv::kind_name(k) << " w=" << w << " sample " << sample;
          EXPECT_EQ(sat.stats().decisions, before)
              << bv::kind_name(k) << " w=" << w << " sample " << sample;
          EXPECT_EQ(bb.model_value(e), bv::evaluate(e, asn))
              << bv::kind_name(k) << " w=" << w << " sample " << sample;
        }
      }
    }
  }
  EXPECT_GT(lowered, 100);
}

// --- Query avoidance: independence slicing and model determinism ------------

TEST(QueryAvoidance, VariableDisjointConjunctionIsSliced) {
  solver::Solver sv;
  const ExprRef x = bv::mk_var("x", 16);
  const ExprRef y = bv::mk_var("y", 16);
  const ExprRef z = bv::mk_var("z", 16);
  // Component {x, y} is Sat; component {z} is contradictory on its own.
  // Slicing must refute the whole conjunction from the z-component alone.
  const ExprRef sat_part = bv::mk_eq(bv::mk_add(x, y), bv::mk_const(3, 16));
  const ExprRef z_low = bv::mk_ult(z, bv::mk_const(5, 16));
  const ExprRef z_high = bv::mk_ult(bv::mk_const(9, 16), z);
  const std::vector<ExprRef> conj{sat_part, z_low, z_high};

  EXPECT_EQ(sv.check_feasible(bv::mk_land_all(conj)), solver::Result::Unsat);
  EXPECT_GE(sv.stats().slice_components, 2u);
  EXPECT_EQ(sv.stats().slice_decided, 1u);
}

TEST(QueryAvoidance, SlicedSatConjunctionStillYieldsAWholeModel) {
  solver::Solver sv;
  const ExprRef x = bv::mk_var("x", 16);
  const ExprRef z = bv::mk_var("z", 16);
  const std::vector<ExprRef> conj{
      bv::mk_eq(bv::mk_add(x, bv::mk_const(1, 16)), bv::mk_const(7, 16)),
      bv::mk_eq(z, bv::mk_const(9, 16))};
  const ExprRef e = bv::mk_land_all(conj);
  const solver::CheckResult r = sv.check(e);
  ASSERT_EQ(r.result, solver::Result::Sat);
  // The model is derived one-shot from the original conjunction, never
  // stitched from per-component models: it must satisfy the whole query.
  EXPECT_EQ(bv::evaluate(e, r.model), 1u);
}

TEST(QueryAvoidance, ModelBytesIdenticalWithLayersOnAndOff) {
  // Sat witnesses come from a one-shot solve of the original expression in
  // both configurations, so enabling query avoidance may change only how
  // verdicts are reached — never the model bytes.
  solver::Solver on;
  solver::Solver off;
  off.set_avoidance(false);

  const ExprRef x = bv::mk_var("x", 32);
  const ExprRef y = bv::mk_var("y", 32);
  const ExprRef z = bv::mk_var("z", 16);
  const std::vector<ExprRef> mixed{
      bv::mk_ule(x, bv::mk_const(1000, 32)),            // non-strict bound
      bv::mk_eq(bv::mk_and(y, bv::mk_const(0xf0, 32)),  // bitwise const
                bv::mk_const(0x40, 32)),
      bv::mk_ult(bv::mk_const(2, 16), z)};              // disjoint component
  const std::vector<ExprRef> queries{
      mixed[0],
      bv::mk_land(mixed[0], mixed[1]),
      bv::mk_land_all(mixed),
      bv::mk_lnot(bv::mk_ult(x, bv::mk_add(x, bv::mk_const(0, 32))))};

  for (size_t i = 0; i < queries.size(); ++i) {
    const solver::CheckResult a = on.check(queries[i]);
    const solver::CheckResult b = off.check(queries[i]);
    ASSERT_EQ(a.result, b.result) << "query " << i;
    if (a.result == solver::Result::Sat)
      EXPECT_EQ(a.model, b.model) << "query " << i;
  }
}

}  // namespace
}  // namespace vsd
