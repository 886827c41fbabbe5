// Incremental assumption-based solving: SAT-level assumption semantics,
// SolverContext equivalence against one-shot decisions, and byte-identical
// determinism of the verification drivers at any job count with the
// incremental decision layer enabled (the default).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bv/analysis.hpp"
#include "bv/expr.hpp"
#include "elements/registry.hpp"
#include "net/headers.hpp"
#include "solver/bitblast.hpp"
#include "solver/sat.hpp"
#include "solver/solver.hpp"
#include "verify/decomposed.hpp"
#include "verify/predicates.hpp"

using namespace vsd;
using sat::Lit;
using sat::SatResult;
using sat::SatSolver;
using sat::Var;

// --- SAT-level assumption semantics -----------------------------------------

TEST(SatAssumptions, SatAndUnsatUnderAssumptions) {
  SatSolver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  ASSERT_TRUE(s.add_clause({Lit(a, false), Lit(b, false)}));  // a | b

  // Assume ~a: forced b.
  EXPECT_EQ(s.solve({Lit(a, true)}), SatResult::Sat);
  EXPECT_FALSE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));

  // Assume ~a and ~b: contradicts the clause, but only under assumptions.
  EXPECT_EQ(s.solve({Lit(a, true), Lit(b, true)}), SatResult::Unsat);
  EXPECT_TRUE(s.okay());

  // Assumptions were retracted: the instance is still satisfiable.
  EXPECT_EQ(s.solve(), SatResult::Sat);
}

TEST(SatAssumptions, FinalConflictNamesTheUsedAssumptions) {
  SatSolver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  ASSERT_TRUE(s.add_clause({Lit(a, true), Lit(c, true)}));  // ~a | ~c

  // {a, b, c} fails because of a and c; b is irrelevant.
  ASSERT_EQ(s.solve({Lit(a, false), Lit(b, false), Lit(c, false)}),
            SatResult::Unsat);
  EXPECT_TRUE(s.okay());
  const std::vector<Lit>& fc = s.final_conflict();
  ASSERT_FALSE(fc.empty());
  for (const Lit l : fc) {
    // Every literal is the negation of one of the failing assumptions.
    EXPECT_TRUE(l == Lit(a, true) || l == Lit(c, true))
        << "unexpected literal var=" << l.var() << " neg=" << l.negated();
  }
}

TEST(SatAssumptions, ClauseAdditionAfterSolveFlipsTheAnswer) {
  SatSolver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  ASSERT_TRUE(s.add_clause({Lit(a, false), Lit(b, false)}));
  ASSERT_EQ(s.solve({Lit(a, true)}), SatResult::Sat);

  // New clauses (and new variables) between solves.
  const Var d = s.new_var();
  ASSERT_TRUE(s.add_clause({Lit(b, true), Lit(d, false)}));  // ~b | d
  ASSERT_TRUE(s.add_clause({Lit(d, true)}));                 // ~d
  // Now ~a forces b forces d, contradiction with ~d.
  EXPECT_EQ(s.solve({Lit(a, true)}), SatResult::Unsat);
  EXPECT_TRUE(s.okay());
  // Without the assumption, a=true satisfies everything.
  ASSERT_EQ(s.solve(), SatResult::Sat);
  EXPECT_TRUE(s.model_value(a));
}

TEST(SatAssumptions, RetractionAcrossManySolves) {
  SatSolver s;
  const Var x = s.new_var();
  const Var y = s.new_var();
  ASSERT_TRUE(s.add_clause({Lit(x, false), Lit(y, false)}));
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(s.solve({Lit(x, i % 2 == 0)}), SatResult::Sat) << i;
    EXPECT_EQ(s.model_value(x), i % 2 != 0) << i;
  }
  // Contradictory assumption pair: the second assumption is already false.
  EXPECT_EQ(s.solve({Lit(x, false), Lit(x, true)}), SatResult::Unsat);
  EXPECT_TRUE(s.okay());
  EXPECT_EQ(s.solve(), SatResult::Sat);
}

TEST(SatAssumptions, DecisionSetLeavesOtherVariablesUndecided) {
  // Two independent clauses; only the first one's variables are decidable.
  // (Plain clauses break solve()'s contract for a decision set, which is
  // what makes the undecided half visible in the model.)
  SatSolver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  const Var d = s.new_var();
  ASSERT_TRUE(s.add_clause({Lit(a, false), Lit(b, false)}));  // a | b
  ASSERT_TRUE(s.add_clause({Lit(c, false), Lit(d, false)}));  // c | d
  const std::vector<sat::VarRange> first{{a, b + 1}};
  ASSERT_EQ(s.solve({}, UINT64_MAX, &first), SatResult::Sat);
  EXPECT_TRUE(s.model_value(a) || s.model_value(b));
  EXPECT_FALSE(s.model_value(c) || s.model_value(d));
  EXPECT_LE(s.stats().decisions, 2u);
  // Without a set every variable is decidable again.
  ASSERT_EQ(s.solve(), SatResult::Sat);
  EXPECT_TRUE(s.model_value(a) || s.model_value(b));
  EXPECT_TRUE(s.model_value(c) || s.model_value(d));
}

TEST(SatAssumptions, ModelSatisfiesClausesAndAssumptions) {
  // Pigeonhole-ish set with a satisfying region: exercise real search.
  SatSolver s;
  std::vector<Var> v;
  for (int i = 0; i < 12; ++i) v.push_back(s.new_var());
  std::vector<std::vector<Lit>> clauses;
  for (int i = 0; i + 2 < 12; i += 3) {
    clauses.push_back({Lit(v[i], false), Lit(v[i + 1], false),
                       Lit(v[i + 2], false)});
    clauses.push_back({Lit(v[i], true), Lit(v[i + 1], true)});
  }
  for (const auto& c : clauses) ASSERT_TRUE(s.add_clause(c));
  const std::vector<Lit> assumptions = {Lit(v[0], true), Lit(v[3], false)};
  ASSERT_EQ(s.solve(assumptions), SatResult::Sat);
  for (const auto& c : clauses) {
    bool sat = false;
    for (const Lit l : c) sat = sat || s.model_value(l.var()) != l.negated();
    EXPECT_TRUE(sat);
  }
  for (const Lit l : assumptions) {
    EXPECT_EQ(s.model_value(l.var()), !l.negated());
  }
}

// --- SolverContext vs one-shot ----------------------------------------------

namespace {

// Deterministic PRNG (xorshift) — no global state, reproducible failures.
struct Rng {
  uint64_t s = 0x9e3779b97f4a7c15ull;
  uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  uint64_t below(uint64_t n) { return next() % n; }
};

// A random word of width `w` over the pool's variables of that width, or
// a resized one of the other width.
bv::ExprRef random_word(Rng& rng, const std::vector<bv::ExprRef>& vars,
                        unsigned w, int depth) {
  if (depth == 0 || rng.below(4) == 0) {
    if (rng.below(4) == 0) return bv::mk_const(rng.below(uint64_t{1} << w), w);
    const bv::ExprRef v = vars[rng.below(vars.size())];
    if (v->width() == w) return v;
    return v->width() < w ? bv::mk_zext(v, w) : bv::mk_extract(v, 0, w);
  }
  const bv::ExprRef a = random_word(rng, vars, w, depth - 1);
  const bv::ExprRef b = random_word(rng, vars, w, depth - 1);
  switch (rng.below(6)) {
    case 0: return bv::mk_add(a, b);
    case 1: return bv::mk_sub(a, b);
    case 2: return bv::mk_and(a, b);
    case 3: return bv::mk_or(a, b);
    case 4: return bv::mk_xor(a, b);
    default: return bv::mk_mul(a, b);
  }
}

bv::ExprRef random_pred(Rng& rng, const std::vector<bv::ExprRef>& vars,
                        int depth) {
  if (depth == 0 || rng.below(3) == 0) {
    const unsigned w = rng.below(2) == 0 ? 8 : 16;
    const bv::ExprRef a = random_word(rng, vars, w, 2);
    const bv::ExprRef b = random_word(rng, vars, w, 2);
    switch (rng.below(3)) {
      case 0: return bv::mk_eq(a, b);
      case 1: return bv::mk_ult(a, b);
      default: return bv::mk_ule(a, b);
    }
  }
  const bv::ExprRef p = random_pred(rng, vars, depth - 1);
  const bv::ExprRef q = random_pred(rng, vars, depth - 1);
  switch (rng.below(3)) {
    case 0: return bv::mk_land(p, q);
    case 1: return bv::mk_lor(p, q);
    default: return bv::mk_lnot(p);
  }
}

}  // namespace

// One live context against one-shot solving, on queries that conjoin
// earlier queries with a fresh predicate over a pool of 8- and 16-bit
// variables: the retired circuits share source bits (and whole
// sub-circuits) with the live ones, which is where branching on the live
// cone alone has to stay exact.
TEST(SolverContextTest, EquivalentToOneShotOnRandomizedExprs) {
  Rng rng;
  std::vector<bv::ExprRef> vars;
  for (int i = 0; i < 3; ++i) {
    vars.push_back(bv::mk_var("v" + std::to_string(i), 8));
    vars.push_back(bv::mk_var("w" + std::to_string(i), 16));
  }
  solver::Solver one_shot;
  one_shot.set_incremental(false);
  solver::Solver owner;
  solver::SolverContext ctx(owner);
  std::vector<bv::ExprRef> earlier;
  int sat = 0;
  for (int i = 0; i < 150; ++i) {
    bv::ExprRef e = random_pred(rng, vars, 3);
    const uint64_t reused = earlier.empty() ? 0 : rng.below(3);
    for (uint64_t k = 0; k < reused; ++k) {
      e = bv::mk_land(earlier[rng.below(earlier.size())], e);
    }
    earlier.push_back(e);
    const solver::CheckResult ref = one_shot.check(e);
    const solver::CheckResult inc = ctx.check_assuming(e);
    ASSERT_EQ(inc.result, ref.result) << "query " << i;
    if (inc.result == solver::Result::Sat) {
      ++sat;
      EXPECT_EQ(bv::evaluate(e, inc.model), 1u) << "query " << i;
    }
  }
  // Both verdicts occur, and most queries reached the context's solver.
  EXPECT_GT(sat, 20);
  EXPECT_LT(sat, 130);
  EXPECT_GT(owner.stats().incremental_queries, 100u);
}

// Retired queries leave high-activity variables behind; a Sat query over
// fresh variables must still decide only inside its own cone, so it takes
// no more decisions than its cone has variables (the same query lowered in
// a fresh solver).
TEST(SolverContextTest, DecisionsStayInTheQueryCone) {
  solver::Solver owner;
  solver::SolverContext ctx(owner);
  for (int i = 0; i < 16; ++i) {
    // x*y == odd constant: Sat (x = 1 works) but it needs real search.
    const bv::ExprRef x = bv::mk_var("rx" + std::to_string(i), 16);
    const bv::ExprRef y = bv::mk_var("ry" + std::to_string(i), 16);
    const bv::ExprRef q =
        bv::mk_eq(bv::mk_mul(x, y), bv::mk_const(0x1001u + 2u * i, 16));
    ASSERT_EQ(ctx.check_assuming(q, /*need_model=*/false).result,
              solver::Result::Sat);
  }
  ASSERT_GT(owner.stats().sat_conflicts, 0u);

  const bv::ExprRef a = bv::mk_var("a", 16);
  const bv::ExprRef b = bv::mk_var("b", 16);
  const bv::ExprRef fresh =
      bv::mk_eq(bv::mk_add(a, b), bv::mk_const(0x1234, 16));
  const uint64_t before = owner.stats().sat_decisions;
  const solver::CheckResult r = ctx.check_assuming(fresh);
  ASSERT_EQ(r.result, solver::Result::Sat);
  EXPECT_EQ(bv::evaluate(fresh, r.model), 1u);
  const uint64_t decisions = owner.stats().sat_decisions - before;

  SatSolver lone;
  solver::BitBlaster blaster(lone);
  blaster.assert_true(fresh);
  EXPECT_LE(decisions, static_cast<uint64_t>(lone.num_vars()));
}

TEST(SolverContextTest, PrefixReuseIsCountedAndClausesRetained) {
  solver::Solver owner;
  solver::SolverContext ctx(owner);
  const bv::ExprRef x = bv::mk_var("x", 16);
  const bv::ExprRef y = bv::mk_var("y", 16);
  // A fixed arithmetic prefix conjoined with a varying suffix — the Step-2
  // stitched-query shape.
  const bv::ExprRef prefix =
      bv::mk_eq(bv::mk_mul(x, bv::mk_const(3, 16)),
                bv::mk_add(y, bv::mk_const(7, 16)));
  for (uint64_t k = 0; k < 8; ++k) {
    const bv::ExprRef q =
        bv::mk_land(prefix, bv::mk_eq(bv::mk_and(y, bv::mk_const(0xff, 16)),
                                      bv::mk_const(k, 16)));
    const solver::CheckResult r = ctx.check_assuming(q);
    ASSERT_NE(r.result, solver::Result::Unknown);
  }
  EXPECT_GE(owner.stats().assumption_reuses, 7u);  // prefix blasted once
  EXPECT_GE(owner.stats().incremental_queries, 8u);
  EXPECT_EQ(owner.stats().contexts_opened, 1u);
}

TEST(SolverTest, ResultCacheIsCappedWithFifoEviction) {
  solver::Solver s;
  s.set_cache_capacity(2);
  const bv::ExprRef x = bv::mk_var("xc", 8);
  std::vector<bv::ExprRef> queries;
  for (uint64_t k = 0; k < 5; ++k) {
    queries.push_back(bv::mk_eq(bv::mk_add(x, bv::mk_const(k, 8)),
                                bv::mk_const(2 * k + 1, 8)));
  }
  for (const auto& q : queries) {
    EXPECT_EQ(s.check(q).result, solver::Result::Sat);
  }
  EXPECT_GE(s.stats().cache_evictions, 3u);
  // Evicted queries are still answered correctly (recomputed).
  for (const auto& q : queries) {
    const solver::CheckResult r = s.check(q);
    ASSERT_EQ(r.result, solver::Result::Sat);
    EXPECT_EQ(bv::evaluate(q, r.model), 1u);
  }
}

TEST(SolverTest, FeasibleThenModelUpgradesTheCacheEntry) {
  solver::Solver s;
  const bv::ExprRef x = bv::mk_var("xm", 8);
  const bv::ExprRef q = bv::mk_eq(bv::mk_add(x, bv::mk_const(1, 8)),
                                  bv::mk_const(7, 8));
  EXPECT_EQ(s.check_feasible(q), solver::Result::Sat);  // no model derived
  const solver::CheckResult r = s.check(q);             // must supply one
  ASSERT_EQ(r.result, solver::Result::Sat);
  EXPECT_EQ(r.model.at(x->var_id()), 6u);
}

// --- Driver determinism at any job count (incremental on: the default) ------

namespace {

std::vector<std::string> packet_hexes(const std::vector<net::Packet>& ps) {
  std::vector<std::string> out;
  for (const net::Packet& p : ps) out.push_back(p.hex(96));
  return out;
}

}  // namespace

TEST(IncrementalDeterminism, CrashCounterexampleBytesAcrossJobs) {
  const char* config = "UnsafeStrip(14) -> CheckIPHeader -> Discard";
  verify::CrashFreedomReport r1;
  for (const size_t jobs : {size_t{1}, size_t{8}}) {
    pipeline::Pipeline pl = elements::parse_pipeline(config);
    verify::DecomposedConfig cfg;
    cfg.packet_len = 8;
    cfg.jobs = jobs;
    ASSERT_TRUE(cfg.incremental);  // the default under test
    verify::DecomposedVerifier v(cfg);
    const verify::CrashFreedomReport rn = v.verify_crash_freedom(pl);
    if (jobs == 1) {
      r1 = rn;
      EXPECT_EQ(rn.verdict, verify::Verdict::Violated);
      continue;
    }
    EXPECT_EQ(rn.verdict, r1.verdict);
    ASSERT_EQ(rn.counterexamples.size(), r1.counterexamples.size());
    for (size_t i = 0; i < rn.counterexamples.size(); ++i) {
      EXPECT_EQ(rn.counterexamples[i].packet.hex(96),
                r1.counterexamples[i].packet.hex(96))
          << "jobs=8 counterexample " << i;
    }
  }
}

TEST(IncrementalDeterminism, ReachCounterexampleBytesAcrossJobs) {
  verify::ReachabilityReport r1;
  for (const size_t jobs : {size_t{1}, size_t{8}}) {
    pipeline::Pipeline pl = elements::make_ip_router_pipeline();
    verify::DecomposedConfig cfg;
    cfg.packet_len = 64;
    cfg.jobs = jobs;
    verify::DecomposedVerifier v(cfg);
    const verify::ReachabilityReport rn = v.verify_never_dropped(
        pl, [&](const symbex::SymPacket& p) {
          return verify::both(
              verify::wellformed_ipv4_checksummed(p),
              verify::dst_ip_is(p, net::parse_ipv4("8.8.8.8"),
                                net::kEtherHeaderSize));
        });
    if (jobs == 1) {
      r1 = rn;
      EXPECT_EQ(rn.verdict, verify::Verdict::Violated);
      continue;
    }
    EXPECT_EQ(rn.verdict, r1.verdict);
    ASSERT_EQ(rn.counterexamples.size(), r1.counterexamples.size());
    for (size_t i = 0; i < rn.counterexamples.size(); ++i) {
      EXPECT_EQ(rn.counterexamples[i].packet.hex(96),
                r1.counterexamples[i].packet.hex(96))
          << "jobs=8 counterexample " << i;
      EXPECT_EQ(rn.counterexamples[i].element_path,
                r1.counterexamples[i].element_path);
    }
  }
}

TEST(IncrementalDeterminism, StateSequenceBytesAcrossJobs) {
  verify::StateBoundReport r1;
  for (const size_t jobs : {size_t{1}, size_t{8}}) {
    pipeline::Pipeline pl = elements::parse_pipeline("NetFlow");
    verify::DecomposedConfig cfg;
    cfg.packet_len = 40;
    cfg.jobs = jobs;
    verify::DecomposedVerifier v(cfg);
    verify::StateBoundSpec spec;
    spec.bound = 2;
    const verify::StateBoundReport rn = v.verify_bounded_state(
        pl, [](const symbex::SymPacket&) { return bv::mk_bool(true); }, spec);
    if (jobs == 1) {
      r1 = rn;
      EXPECT_EQ(rn.verdict, verify::Verdict::Violated);
      continue;
    }
    EXPECT_EQ(rn.verdict, r1.verdict);
    EXPECT_EQ(packet_hexes(rn.packet_sequence),
              packet_hexes(r1.packet_sequence));
  }
}

TEST(IncrementalDeterminism, IncrementalMatchesOneShotVerdicts) {
  // Same workloads, incremental on vs off: verdicts and counts must agree
  // (witness bytes may differ only where models come from a live context —
  // the bounded-state sequence — and must agree everywhere else).
  const char* config =
      "Classifier -> EthDecap -> CheckIPHeader -> IPLookup(10.0.0.0/8 0)";
  for (const bool incremental : {false, true}) {
    pipeline::Pipeline pl = elements::parse_pipeline(config);
    verify::DecomposedConfig cfg;
    cfg.packet_len = 46;
    cfg.incremental = incremental;
    verify::DecomposedVerifier v(cfg);
    const verify::CrashFreedomReport cr = v.verify_crash_freedom(pl);
    EXPECT_EQ(cr.verdict, verify::Verdict::Proven) << incremental;
    const verify::InstructionBoundReport ir = v.verify_instruction_bound(pl);
    EXPECT_EQ(ir.verdict, verify::Verdict::Proven) << incremental;
    EXPECT_GT(ir.max_instructions, 0u);
  }
}

TEST(IncrementalDeterminism, VerifyStatsReportIncrementalReuse) {
  pipeline::Pipeline pl = elements::make_ip_router_pipeline();
  verify::DecomposedConfig cfg;
  cfg.packet_len = 64;
  verify::DecomposedVerifier v(cfg);
  const verify::ReachabilityReport r = v.verify_never_dropped(
      pl, [&](const symbex::SymPacket& p) {
        return verify::both(
            verify::wellformed_ipv4_checksummed(p),
            verify::dst_ip_is(p, net::parse_ipv4("10.1.2.3"),
                              net::kEtherHeaderSize));
      });
  EXPECT_GT(r.stats.contexts_opened, 0u);
  EXPECT_GT(r.stats.incremental_queries, 0u);
  EXPECT_GT(r.stats.assumption_reuses, 0u);
  EXPECT_GT(r.stats.sat_conflicts + r.stats.sat_decisions, 0u);
}

// --- analyze_final: minimal cores on a crafted instance ---------------------

TEST(SatFinalConflict, MinimalCoreOnCraftedThreeAssumptionInstance) {
  // (~a | x) and (~b | ~x): assuming a forces x, assuming b forces ~x, and
  // c touches nothing. Under {a, b, c} the final conflict must name exactly
  // a and b — a superset would be sound but useless for suspect grouping.
  SatSolver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  const Var x = s.new_var();
  ASSERT_TRUE(s.add_clause({Lit(a, true), Lit(x, false)}));
  ASSERT_TRUE(s.add_clause({Lit(b, true), Lit(x, true)}));

  ASSERT_EQ(s.solve({Lit(a, false), Lit(b, false), Lit(c, false)}),
            SatResult::Unsat);
  EXPECT_TRUE(s.okay());
  const std::vector<Lit> fc = s.final_conflict();
  ASSERT_EQ(fc.size(), 2u);
  bool saw_a = false;
  bool saw_b = false;
  for (const Lit l : fc) {
    EXPECT_TRUE(l.negated());  // core literals negate the failed assumptions
    EXPECT_NE(l.var(), c);
    saw_a = saw_a || l.var() == a;
    saw_b = saw_b || l.var() == b;
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);

  // Minimality, checked semantically: dropping either member of the core
  // restores satisfiability.
  EXPECT_EQ(s.solve({Lit(a, false), Lit(c, false)}), SatResult::Sat);
  EXPECT_EQ(s.solve({Lit(b, false), Lit(c, false)}), SatResult::Sat);
}

TEST(SatFinalConflict, CoreReassertedAsUnitClausesIsUnsat) {
  // The core is a proof about the clause database alone: re-asserting the
  // failed assumptions as unit clauses in a fresh solver over the same
  // problem must be Unsat with no assumptions at all.
  SatSolver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  const Var x = s.new_var();
  ASSERT_TRUE(s.add_clause({Lit(a, true), Lit(x, false)}));
  ASSERT_TRUE(s.add_clause({Lit(b, true), Lit(x, true)}));
  ASSERT_EQ(s.solve({Lit(a, false), Lit(b, false), Lit(c, false)}),
            SatResult::Unsat);
  const std::vector<Lit> fc = s.final_conflict();
  ASSERT_FALSE(fc.empty());

  SatSolver replay;  // same construction order => same variable numbering
  const Var ra = replay.new_var();
  const Var rb = replay.new_var();
  (void)replay.new_var();  // c
  const Var rx = replay.new_var();
  ASSERT_TRUE(replay.add_clause({Lit(ra, true), Lit(rx, false)}));
  ASSERT_TRUE(replay.add_clause({Lit(rb, true), Lit(rx, true)}));
  bool ok = true;
  for (const Lit l : fc) ok = ok && replay.add_clause({~l});
  // Unit propagation may already expose the contradiction at add time.
  if (ok) EXPECT_EQ(replay.solve(), SatResult::Unsat);
}

// --- Cross-call learnt-clause GC --------------------------------------------

TEST(SatClauseGC, ReduceLearntsPreservesAnswers) {
  // Pigeonhole (5 pigeons, 4 holes) gated behind an activation literal g:
  // assuming g is Unsat and leaves a pile of learnt clauses behind; without
  // g the instance is trivially Sat (all placement vars false). GC between
  // calls must change neither answer.
  SatSolver s;
  const Var g = s.new_var();
  Var p[5][4];
  for (auto& row : p)
    for (Var& v : row) v = s.new_var();
  for (const auto& row : p) {  // ~g | pigeon sits somewhere
    std::vector<Lit> cl{Lit(g, true)};
    for (const Var v : row) cl.push_back(Lit(v, false));
    ASSERT_TRUE(s.add_clause(cl));
  }
  for (int h = 0; h < 4; ++h)  // no two pigeons share a hole
    for (int i = 0; i < 5; ++i)
      for (int j = i + 1; j < 5; ++j)
        ASSERT_TRUE(s.add_clause({Lit(p[i][h], true), Lit(p[j][h], true)}));

  ASSERT_EQ(s.solve({Lit(g, false)}), SatResult::Unsat);
  const size_t before = s.num_learnts();
  ASSERT_GT(before, 0u);

  const size_t removed = s.reduce_learnts();
  EXPECT_GT(removed, 0u);
  EXPECT_EQ(s.num_learnts() + removed, before);

  // Still correct both under the assumption and without it.
  EXPECT_EQ(s.solve({Lit(g, false)}), SatResult::Unsat);
  EXPECT_EQ(s.solve(), SatResult::Sat);
}

// --- Solver-level query avoidance -------------------------------------------

TEST(SolverCoreGrouping, StoredCoreDischargesSupersetQueries) {
  // The default ladder: 16-bit vars keep small-domain exhaustion out, and
  // `c` shares x with the core so slicing cannot split it off.
  solver::Solver sv;
  const bv::ExprRef x = bv::mk_var("x", 16);
  const bv::ExprRef y = bv::mk_var("y", 16);
  const bv::ExprRef a =
      bv::mk_eq(bv::mk_add(x, y), bv::mk_const(3, 16));
  const bv::ExprRef b =
      bv::mk_eq(bv::mk_add(x, y), bv::mk_const(5, 16));
  const bv::ExprRef c = bv::mk_eq(x, bv::mk_const(7, 16));

  ASSERT_EQ(sv.check_feasible(bv::mk_land(a, b)), solver::Result::Unsat);
  EXPECT_GT(sv.stats().cores_recorded, 0u);
  EXPECT_FALSE(sv.last_unsat_core().empty());

  // A superset conjunction is refuted by subsumption: no new SAT work.
  const uint64_t solves_before =
      sv.stats().decided_by_sat + sv.stats().incremental_queries;
  const std::vector<bv::ExprRef> conj{a, c, b};
  EXPECT_EQ(sv.check_feasible(bv::mk_land_all(conj)), solver::Result::Unsat);
  EXPECT_GT(sv.stats().core_discharges, 0u);
  EXPECT_EQ(sv.stats().decided_by_sat + sv.stats().incremental_queries,
            solves_before);
  EXPECT_TRUE(sv.discharge_by_core(bv::mk_land(b, a)));
}

TEST(SolverCexCache, ReplayedModelDecidesWithoutSolving) {
  solver::Solver sv;
  const bv::ExprRef x = bv::mk_var("x", 32);
  const solver::CheckResult r1 =
      sv.check(bv::mk_ult(x, bv::mk_const(100, 32)));
  ASSERT_EQ(r1.result, solver::Result::Sat);
  ASSERT_FALSE(r1.model.empty());

  // A weaker constraint over the same variable is satisfied by the cached
  // model; deciding it must not reach the CDCL core again.
  const uint64_t solves_before =
      sv.stats().decided_by_sat + sv.stats().incremental_queries;
  EXPECT_EQ(sv.check_feasible(bv::mk_ult(x, bv::mk_const(200, 32))),
            solver::Result::Sat);
  EXPECT_GT(sv.stats().cex_cache_hits, 0u);
  EXPECT_EQ(sv.stats().decided_by_sat + sv.stats().incremental_queries,
            solves_before);
}

TEST(SolverCacheGuard, ModeledEntrySurvivesFeasibilityTraffic) {
  // Regression for the cache_store downgrade: a Sat entry that carries a
  // model must keep it across later verdict-only stores for the same uid.
  solver::Solver sv;
  const bv::ExprRef x = bv::mk_var("x", 32);
  const bv::ExprRef e = bv::mk_eq(
      bv::mk_and(x, bv::mk_const(0xff, 32)), bv::mk_const(0x2a, 32));
  const solver::CheckResult r1 = sv.check(e);
  ASSERT_EQ(r1.result, solver::Result::Sat);
  ASSERT_FALSE(r1.model.empty());

  const uint64_t solves_before = sv.stats().decided_by_sat;
  EXPECT_EQ(sv.check_feasible(e), solver::Result::Sat);
  const solver::CheckResult r2 = sv.check(e);
  EXPECT_EQ(r2.result, solver::Result::Sat);
  EXPECT_EQ(r2.model, r1.model);
  // Both repeats were cache hits: no fresh one-shot model derivation.
  EXPECT_EQ(sv.stats().decided_by_sat, solves_before);
}

TEST(SolverClauseGC, TinyBudgetTriggersCrossQueryGc) {
  // With a zero learnt budget every incremental query that leaves learnt
  // clauses behind triggers the cross-query GC; answers must not change.
  solver::Solver sv;
  sv.set_avoidance(false);
  sv.set_learnt_budget(0);
  solver::Solver ref;  // default budget: GC effectively idle
  ref.set_avoidance(false);

  const bv::ExprRef x = bv::mk_var("x", 16);
  const bv::ExprRef y = bv::mk_var("y", 16);
  for (int k = 0; k < 12; ++k) {
    // x*y == odd constant: always Sat (x=1 works) but needs real search.
    const bv::ExprRef q = bv::mk_eq(bv::mk_mul(x, y),
                                    bv::mk_const(0x1001u + 2u * k, 16));
    EXPECT_EQ(sv.check_feasible(q), solver::Result::Sat) << k;
    EXPECT_EQ(ref.check_feasible(q), solver::Result::Sat) << k;
  }
  EXPECT_GT(sv.stats().learnt_gc_runs, 0u);
  EXPECT_EQ(ref.stats().learnt_gc_runs, 0u);
}
