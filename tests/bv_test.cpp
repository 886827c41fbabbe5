// Unit tests for the bit-vector expression layer: construction, folding,
// interning, substitution, evaluation, intervals, printing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <thread>
#include <type_traits>

#include "bv/analysis.hpp"
#include "bv/expr.hpp"
#include "bv/printer.hpp"

// Counts heap allocations made through operator new, so a test can pin
// that an interner hit allocates nothing.
namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace vsd::bv {
namespace {

TEST(BvConst, TruncatesToWidth) {
  EXPECT_EQ(mk_const(0x1ff, 8)->value(), 0xffu);
  EXPECT_EQ(mk_const(0x100, 8)->value(), 0u);
  EXPECT_EQ(mk_const(~uint64_t{0}, 64)->value(), ~uint64_t{0});
}

TEST(BvConst, Interning) {
  EXPECT_EQ(mk_const(42, 16).get(), mk_const(42, 16).get());
  EXPECT_NE(mk_const(42, 16).get(), mk_const(42, 32).get());
}

TEST(BvInterner, HandleIsAPlainPointer) {
  static_assert(std::is_trivially_copyable_v<ExprRef>);
  static_assert(sizeof(ExprRef) == sizeof(const Expr*));
  const ExprRef none;
  EXPECT_FALSE(none);
  EXPECT_EQ(none, nullptr);
  const ExprRef x = mk_var("x", 8);
  EXPECT_TRUE(x);
  EXPECT_NE(x, nullptr);
  EXPECT_EQ(ExprRef(x.get()), x);
  EXPECT_EQ(&*x, x.get());
}

TEST(BvInterner, IdentitySurvivesTableGrowth) {
  // Far more nodes than the table's initial capacity, so it doubles many
  // times; rebuilding every node afterwards must find the original.
  constexpr uint64_t kNodes = 100000;
  const ExprRef x = mk_var("x", 32);
  const size_t before = interned_node_count();
  std::vector<ExprRef> built;
  built.reserve(kNodes);
  for (uint64_t i = 0; i < kNodes; ++i) {
    built.push_back(mk_xor(x, mk_const(i + 1, 32)));
  }
  EXPECT_GE(interned_node_count() - before, kNodes);
  size_t mismatches = 0;
  for (uint64_t i = 0; i < kNodes; ++i) {
    if (mk_xor(x, mk_const(i + 1, 32)) != built[i]) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(BvInterner, CountsEachNewDistinctNodeOnce) {
  const ExprRef x = mk_var("x", 16);
  size_t n = interned_node_count();
  const ExprRef nx = mk_not(x);
  EXPECT_EQ(interned_node_count(), n + 1);
  EXPECT_EQ(mk_not(x), nx);  // hit
  EXPECT_EQ(interned_node_count(), n + 1);
  const ExprRef y = mk_var("y", 16);  // variables are never interned
  EXPECT_EQ(interned_node_count(), n + 1);
  const ExprRef sum = mk_add(x, y);
  EXPECT_EQ(interned_node_count(), n + 2);
  EXPECT_EQ(mk_add(x, y), sum);
  EXPECT_NE(mk_add(y, x), sum);  // operand order is structure
  EXPECT_EQ(interned_node_count(), n + 3);
  n = interned_node_count();
  EXPECT_EQ(mk_extract(sum, 3, 5), mk_extract(sum, 3, 5));
  EXPECT_NE(mk_extract(sum, 3, 5), mk_extract(sum, 4, 5));
  EXPECT_EQ(interned_node_count(), n + 2);
}

TEST(BvInterner, UidsFollowCreationOrderAcrossNodesAndVars) {
  const ExprRef a = mk_var("a", 8);
  const ExprRef na = mk_not(a);
  const ExprRef b = mk_var("b", 8);
  const ExprRef ab = mk_add(a, b);
  const ExprRef c = mk_var("c", 8);
  EXPECT_LT(a->uid(), na->uid());
  EXPECT_LT(na->uid(), b->uid());
  EXPECT_LT(b->uid(), ab->uid());
  EXPECT_LT(ab->uid(), c->uid());
  EXPECT_EQ(mk_not(a)->uid(), na->uid());  // a hit keeps its uid
  EXPECT_LT(a->var_id(), b->var_id());
}

TEST(BvInterner, HitAllocatesNothing) {
  const ExprRef x = mk_var("x", 32);
  const ExprRef k = mk_const(7, 32);
  const auto build = [&] {
    return mk_ite(mk_ult(x, k), mk_add(x, k), mk_concat(mk_extract(x, 8, 8),
                                                         mk_extract(x, 0, 24)));
  };
  const ExprRef e = build();
  const size_t before = g_allocations.load();
  const ExprRef again = build();
  const size_t allocated = g_allocations.load() - before;
  EXPECT_EQ(again, e);
  EXPECT_EQ(allocated, 0u);
}

TEST(BvInterner, ConcurrentInterningAgreesOnIdentity) {
  // Eight threads build the same expressions, each starting at a different
  // offset so first builds race with hits; every thread must get the same
  // handle for each expression.
  constexpr size_t kThreads = 8;
  constexpr uint64_t kExprs = 4000;
  const ExprRef x = mk_var("x", 32);
  const ExprRef y = mk_var("y", 32);
  std::vector<std::vector<ExprRef>> got(kThreads,
                                        std::vector<ExprRef>(kExprs));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t j = 0; j < kExprs; ++j) {
        const uint64_t i = (j + t * kExprs / kThreads) % kExprs;
        got[t][i] = mk_eq(mk_add(mk_mul(x, mk_const(i + 2, 32)), y),
                          mk_const(i, 32));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  size_t mismatches = 0;
  for (size_t t = 1; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kExprs; ++i) {
      if (got[t][i] != got[0][i]) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(mk_eq(mk_add(mk_mul(x, mk_const(9, 32)), y), mk_const(7, 32)),
            got[3][7]);
}

TEST(BvInterner, ConcurrentBuildersCountEachDistinctNodeOnce) {
  // Eight threads intern one shared set of nodes (each in a rotated order,
  // so first builds race with hits across every shard), intern a set of
  // their own over variables they mint concurrently, and then the count
  // must have grown by exactly the distinct nodes, with no uid or variable
  // id handed out twice.
  constexpr size_t kThreads = 8;
  constexpr size_t kShared = 64;  // shared nodes: and(a_i, a_j), i != j
  constexpr size_t kOwn = 256;    // per thread: mul(w_k, a_(k mod kShared))
  std::vector<ExprRef> a;
  for (size_t i = 0; i < kShared; ++i) a.push_back(mk_var("a", 32));
  const size_t before = interned_node_count();
  std::vector<std::vector<ExprRef>> shared(kThreads);
  std::vector<std::vector<ExprRef>> own(kThreads);
  std::vector<std::vector<ExprRef>> vars(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t n = 0; n < kShared * kShared; ++n) {
        const size_t k = (n + t * kShared * kShared / kThreads) %
                         (kShared * kShared);
        const size_t i = k / kShared;
        const size_t j = k % kShared;
        if (i != j) shared[t].push_back(mk_and(a[i], a[j]));
        if (n < kOwn) {
          vars[t].push_back(mk_var("w", 32));
          own[t].push_back(mk_mul(vars[t].back(), a[n % kShared]));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(interned_node_count() - before,
            kShared * (kShared - 1) + kThreads * kOwn);
  std::set<const Expr*> shared_nodes;
  std::set<uint64_t> uids;
  std::set<uint64_t> var_ids;
  for (const ExprRef& v : a) {
    uids.insert(v->uid());
    var_ids.insert(v->var_id());
  }
  for (size_t t = 0; t < kThreads; ++t) {
    for (const ExprRef& e : shared[t]) shared_nodes.insert(e.get());
    for (const ExprRef& e : own[t]) uids.insert(e->uid());
    for (const ExprRef& v : vars[t]) {
      uids.insert(v->uid());
      var_ids.insert(v->var_id());
    }
  }
  EXPECT_EQ(shared_nodes.size(), kShared * (kShared - 1));
  for (const Expr* e : shared_nodes) uids.insert(e->uid());
  EXPECT_EQ(uids.size(), kShared + shared_nodes.size() + 2 * kThreads * kOwn);
  EXPECT_EQ(var_ids.size(), kShared + kThreads * kOwn);
}

TEST(BvVar, FreshVariablesAreDistinct) {
  const ExprRef a = mk_var("x", 8);
  const ExprRef b = mk_var("x", 8);
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a->var_id(), b->var_id());
}

TEST(BvFold, AddIdentities) {
  const ExprRef x = mk_var("x", 32);
  EXPECT_EQ(mk_add(x, mk_const(0, 32)).get(), x.get());
  EXPECT_EQ(mk_add(mk_const(0, 32), x).get(), x.get());
  EXPECT_EQ(mk_add(mk_const(3, 32), mk_const(4, 32))->value(), 7u);
}

TEST(BvFold, AddConstantChainsCollapse) {
  const ExprRef x = mk_var("x", 32);
  const ExprRef e = mk_add(mk_add(x, mk_const(5, 32)), mk_const(7, 32));
  ASSERT_EQ(e->kind(), Kind::Add);
  EXPECT_EQ(e->operand(1)->value(), 12u);
}

TEST(BvFold, SubSelfIsZero) {
  const ExprRef x = mk_var("x", 16);
  EXPECT_TRUE(mk_sub(x, x)->is_const_value(0));
}

TEST(BvFold, MulIdentities) {
  const ExprRef x = mk_var("x", 8);
  EXPECT_EQ(mk_mul(x, mk_const(1, 8)).get(), x.get());
  EXPECT_TRUE(mk_mul(x, mk_const(0, 8))->is_const_value(0));
}

TEST(BvFold, AndOrIdentities) {
  const ExprRef x = mk_var("x", 8);
  EXPECT_TRUE(mk_and(x, mk_const(0, 8))->is_const_value(0));
  EXPECT_EQ(mk_and(x, mk_const(0xff, 8)).get(), x.get());
  EXPECT_EQ(mk_or(x, mk_const(0, 8)).get(), x.get());
  EXPECT_TRUE(mk_or(x, mk_const(0xff, 8))->is_const_value(0xff));
  EXPECT_EQ(mk_and(x, x).get(), x.get());
}

TEST(BvFold, XorSelfIsZero) {
  const ExprRef x = mk_var("x", 8);
  EXPECT_TRUE(mk_xor(x, x)->is_const_value(0));
}

TEST(BvFold, NotNot) {
  const ExprRef x = mk_var("x", 8);
  EXPECT_EQ(mk_not(mk_not(x)).get(), x.get());
}

TEST(BvFold, ShiftByZeroAndOversized) {
  const ExprRef x = mk_var("x", 8);
  EXPECT_EQ(mk_shl(x, mk_const(0, 8)).get(), x.get());
  EXPECT_TRUE(mk_shl(x, mk_const(9, 8))->is_const_value(0));
  EXPECT_TRUE(mk_lshr(x, mk_const(8, 8))->is_const_value(0));
}

TEST(BvFold, ShiftConstants) {
  EXPECT_EQ(mk_shl(mk_const(1, 8), mk_const(3, 8))->value(), 8u);
  EXPECT_EQ(mk_lshr(mk_const(0x80, 8), mk_const(7, 8))->value(), 1u);
  // Arithmetic shift preserves sign.
  EXPECT_EQ(mk_ashr(mk_const(0x80, 8), mk_const(7, 8))->value(), 0xffu);
}

TEST(BvFold, CompareConstants) {
  EXPECT_TRUE(mk_ult(mk_const(3, 8), mk_const(4, 8))->is_true());
  EXPECT_TRUE(mk_ult(mk_const(4, 8), mk_const(4, 8))->is_false());
  EXPECT_TRUE(mk_ule(mk_const(4, 8), mk_const(4, 8))->is_true());
  // Signed: 0xff is -1 at width 8.
  EXPECT_TRUE(mk_slt(mk_const(0xff, 8), mk_const(0, 8))->is_true());
  EXPECT_TRUE(mk_sle(mk_const(0, 8), mk_const(0x7f, 8))->is_true());
}

TEST(BvFold, UltAgainstZeroAndOne) {
  const ExprRef x = mk_var("x", 8);
  EXPECT_TRUE(mk_ult(x, mk_const(0, 8))->is_false());
  // x < 1 (unsigned) is x == 0.
  const ExprRef e = mk_ult(x, mk_const(1, 8));
  EXPECT_EQ(e->kind(), Kind::Eq);
}

TEST(BvFold, EqSelf) {
  const ExprRef x = mk_var("x", 8);
  EXPECT_TRUE(mk_eq(x, x)->is_true());
  EXPECT_TRUE(mk_ule(x, x)->is_true());
  EXPECT_TRUE(mk_ult(x, x)->is_false());
}

TEST(BvFold, EqThroughIte) {
  const ExprRef c = mk_var("c", 1);
  const ExprRef e = mk_ite(c, mk_const(3, 8), mk_const(7, 8));
  // eq(ite(c,3,7), 3) == c ; eq(.., 7) == !c ; eq(.., 9) == false.
  EXPECT_EQ(mk_eq(e, mk_const(3, 8)).get(), c.get());
  EXPECT_EQ(mk_eq(e, mk_const(7, 8))->kind(), Kind::Not);
  EXPECT_TRUE(mk_eq(e, mk_const(9, 8))->is_false());
}

TEST(BvFold, IteCollapses) {
  const ExprRef x = mk_var("x", 8);
  const ExprRef y = mk_var("y", 8);
  EXPECT_EQ(mk_ite(mk_bool(true), x, y).get(), x.get());
  EXPECT_EQ(mk_ite(mk_bool(false), x, y).get(), y.get());
  EXPECT_EQ(mk_ite(mk_var("c", 1), x, x).get(), x.get());
}

TEST(BvFold, BooleanContradiction) {
  const ExprRef c = mk_var("c", 1);
  EXPECT_TRUE(mk_land(c, mk_lnot(c))->is_false());
  EXPECT_TRUE(mk_lor(c, mk_lnot(c))->is_true());
}

TEST(BvFold, ZextOfZextCollapses) {
  const ExprRef x = mk_var("x", 8);
  const ExprRef e = mk_zext(mk_zext(x, 16), 32);
  EXPECT_EQ(e->kind(), Kind::ZExt);
  EXPECT_EQ(e->operand(0).get(), x.get());
}

TEST(BvFold, ExtractOfConcat) {
  const ExprRef hi = mk_var("hi", 8);
  const ExprRef lo = mk_var("lo", 8);
  const ExprRef cc = mk_concat(hi, lo);
  EXPECT_EQ(mk_extract(cc, 0, 8).get(), lo.get());
  EXPECT_EQ(mk_extract(cc, 8, 8).get(), hi.get());
}

TEST(BvFold, ExtractOfExtract) {
  const ExprRef x = mk_var("x", 32);
  const ExprRef e = mk_extract(mk_extract(x, 8, 16), 4, 8);
  EXPECT_EQ(e->kind(), Kind::Extract);
  EXPECT_EQ(e->extract_lo(), 12u);
  EXPECT_EQ(e->operand(0).get(), x.get());
}

TEST(BvFold, ConcatOfAdjacentExtracts) {
  const ExprRef x = mk_var("x", 32);
  const ExprRef e = mk_concat(mk_extract(x, 8, 8), mk_extract(x, 0, 8));
  EXPECT_EQ(e->kind(), Kind::Extract);
  EXPECT_EQ(e->extract_lo(), 0u);
  EXPECT_EQ(e->width(), 16u);
}

TEST(BvFold, SextConstant) {
  EXPECT_EQ(mk_sext(mk_const(0x80, 8), 16)->value(), 0xff80u);
  EXPECT_EQ(mk_sext(mk_const(0x7f, 8), 16)->value(), 0x7fu);
}

TEST(BvFold, UdivByConstant) {
  EXPECT_EQ(mk_udiv(mk_const(10, 8), mk_const(3, 8))->value(), 3u);
  EXPECT_EQ(mk_urem(mk_const(10, 8), mk_const(3, 8))->value(), 1u);
  const ExprRef x = mk_var("x", 8);
  EXPECT_EQ(mk_udiv(x, mk_const(1, 8)).get(), x.get());
}

TEST(BvSubstitute, ReplacesVariables) {
  const ExprRef x = mk_var("x", 32);
  const ExprRef y = mk_var("y", 32);
  const ExprRef e = mk_add(x, mk_mul(y, mk_const(2, 32)));
  Substitution sub;
  sub.emplace(x->var_id(), mk_const(5, 32));
  sub.emplace(y->var_id(), mk_const(3, 32));
  EXPECT_TRUE(Substituter(sub)(e)->is_const_value(11));
}

TEST(BvSubstitute, FoldsAfterSubstitution) {
  // The Fig. 2 stitching example: C1(in)=(in<0), C3(x)=(x<0) with x:=0
  // must collapse to false syntactically.
  const ExprRef in = mk_var("in", 32);
  const ExprRef x = mk_var("x", 32);
  const ExprRef c3 = mk_slt(x, mk_const(0, 32));
  Substitution sub;
  sub.emplace(x->var_id(), mk_const(0, 32));
  const ExprRef stitched =
      mk_land(mk_slt(in, mk_const(0, 32)), Substituter(sub)(c3));
  EXPECT_TRUE(stitched->is_false());
}

TEST(BvSubstitute, UntouchedVarsRemain) {
  const ExprRef x = mk_var("x", 8);
  const ExprRef y = mk_var("y", 8);
  const ExprRef e = mk_add(x, y);
  Substitution sub;
  sub.emplace(x->var_id(), mk_const(1, 8));
  const ExprRef out = Substituter(sub)(e);
  const auto vars = free_variables(out);
  ASSERT_EQ(vars.size(), 1u);
  EXPECT_EQ(vars[0]->var_id(), y->var_id());
}

TEST(BvSubstitute, SubstituterSharesItsMemoAcrossCalls) {
  const ExprRef x = mk_var("x", 8);
  const ExprRef y = mk_var("y", 8);
  const ExprRef z = mk_var("z", 8);
  const ExprRef shared = mk_mul(mk_add(x, y), mk_xor(x, mk_const(3, 8)));
  const ExprRef c = mk_ult(shared, y);
  const ExprRef b = mk_sub(shared, mk_const(1, 8));
  Substitution sub;
  sub.emplace(x->var_id(), z);
  sub.emplace(y->var_id(), mk_const(5, 8));
  const ExprRef c1 = Substituter(sub)(c);
  const ExprRef b1 = Substituter(sub)(b);
  const size_t n = interned_node_count();
  Substituter rebase(sub);
  EXPECT_EQ(rebase(c), c1);
  EXPECT_EQ(rebase(b), b1);
  EXPECT_EQ(rebase(x), z);
  EXPECT_EQ(interned_node_count(), n);
  const Substitution empty;
  Substituter none(empty);
  EXPECT_EQ(none(c), c);
}

TEST(BvAnalysis, FreeVariablesWithinStopsPastTheBitLimit) {
  const ExprRef a = mk_var("a", 4);
  const ExprRef b = mk_var("b", 4);
  const ExprRef c = mk_var("c", 8);
  const ExprRef small = mk_eq(mk_add(b, a), mk_add(a, mk_const(1, 4)));
  const auto within = free_variables_within(small, 10);
  ASSERT_TRUE(within.has_value());
  ASSERT_EQ(within->size(), 2u);  // a counted once, sorted by id
  EXPECT_EQ((*within)[0], a);
  EXPECT_EQ((*within)[1], b);
  EXPECT_EQ(*within, free_variables(small));
  const ExprRef big = mk_land(small, mk_eq(mk_zext(a, 8), c));
  EXPECT_FALSE(free_variables_within(big, 10).has_value());
  EXPECT_TRUE(free_variables_within(big, 16).has_value());
  EXPECT_EQ(free_variables(big).size(), 3u);
}

TEST(BvEvaluate, MatchesSemantics) {
  const ExprRef x = mk_var("x", 8);
  const ExprRef y = mk_var("y", 8);
  Assignment a{{x->var_id(), 200}, {y->var_id(), 100}};
  EXPECT_EQ(evaluate(mk_add(x, y), a), (200 + 100) & 0xffu);
  EXPECT_EQ(evaluate(mk_ult(y, x), a), 1u);
  EXPECT_EQ(evaluate(mk_slt(x, y), a), 1u);  // 200 is negative at w8
  EXPECT_EQ(evaluate(mk_concat(x, y), a), 200u * 256 + 100);
  EXPECT_EQ(evaluate(mk_lshr(x, mk_const(3, 8)), a), 200u >> 3);
}

TEST(BvEvaluate, UnassignedVarsAreZero) {
  const ExprRef x = mk_var("x", 8);
  EXPECT_EQ(evaluate(mk_add(x, mk_const(7, 8)), {}), 7u);
}

TEST(BvInterval, ConstAndVar) {
  EXPECT_EQ(interval_of(mk_const(42, 8)).lo, 42u);
  EXPECT_EQ(interval_of(mk_const(42, 8)).hi, 42u);
  EXPECT_EQ(interval_of(mk_var("x", 8)).lo, 0u);
  EXPECT_EQ(interval_of(mk_var("x", 8)).hi, 255u);
}

TEST(BvInterval, MaskBoundsAnd) {
  const ExprRef x = mk_var("x", 8);
  const Interval iv = interval_of(mk_and(x, mk_const(0x0f, 8)));
  EXPECT_EQ(iv.lo, 0u);
  EXPECT_EQ(iv.hi, 0x0fu);
}

TEST(BvInterval, ZextAndShiftPropagate) {
  const ExprRef x = mk_var("x", 8);
  const ExprRef ihl = mk_and(x, mk_const(0x0f, 8));
  const ExprRef hlen = mk_shl(mk_zext(ihl, 32), mk_const(2, 32));
  const Interval iv = interval_of(hlen);
  EXPECT_EQ(iv.lo, 0u);
  EXPECT_EQ(iv.hi, 60u);  // 15 * 4: the IP header length bound
}

TEST(BvInterval, DecidesComparisons) {
  const ExprRef x = mk_var("x", 8);
  const ExprRef small = mk_and(x, mk_const(0x0f, 8));
  EXPECT_EQ(decide_by_interval(mk_ult(small, mk_const(16, 8))),
            std::optional<bool>(true));
  EXPECT_EQ(decide_by_interval(mk_ult(mk_const(20, 8), small)),
            std::optional<bool>(false));
  EXPECT_EQ(decide_by_interval(mk_eq(small, mk_const(200, 8))),
            std::optional<bool>(false));
  // Undecidable stays nullopt.
  EXPECT_FALSE(decide_by_interval(mk_eq(small, mk_const(3, 8))).has_value());
}

TEST(BvPrinter, RendersPrefixForm) {
  const ExprRef x = mk_var("x", 8);
  const std::string s = to_string(mk_add(x, mk_const(1, 8)));
  EXPECT_NE(s.find("add"), std::string::npos);
  EXPECT_NE(s.find("x@"), std::string::npos);
}

TEST(BvAnalysis, DagSizeCountsSharing) {
  const ExprRef x = mk_var("x", 8);
  const ExprRef sum = mk_add(x, x);
  EXPECT_EQ(dag_size(sum), 2u);  // x shared
}

// ---------------------------------------------------------------------------
// Property-based fuzzing: random expression trees, checked against direct
// semantics. These guard the two soundness-critical contracts of the layer:
// folding must preserve value, and interval_of must always contain it.

namespace fuzz {

// Small deterministic PRNG (xorshift) to avoid the net dependency.
struct Rng {
  uint64_t s = 0x853c49e6748fea9bULL;
  uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  uint64_t below(uint64_t n) { return next() % n; }
};

ExprRef random_expr(Rng& rng, const std::vector<ExprRef>& vars, int depth) {
  const unsigned w = vars[0]->width();
  if (depth == 0 || rng.below(4) == 0) {
    return rng.below(2) == 0 ? vars[rng.below(vars.size())]
                             : mk_const(rng.next(), w);
  }
  const ExprRef a = random_expr(rng, vars, depth - 1);
  const ExprRef b = random_expr(rng, vars, depth - 1);
  switch (rng.below(12)) {
    case 0: return mk_add(a, b);
    case 1: return mk_sub(a, b);
    case 2: return mk_mul(a, b);
    case 3: return mk_and(a, b);
    case 4: return mk_or(a, b);
    case 5: return mk_xor(a, b);
    case 6: return mk_shl(a, b);
    case 7: return mk_lshr(a, b);
    case 8: return mk_not(a);
    case 9: return mk_neg(a);
    case 10: return mk_ite(mk_ult(a, b), a, b);
    default: return mk_extract(mk_concat(mk_extract(a, 0, w / 2),
                                         mk_extract(b, 0, w - w / 2)),
                               0, w);
  }
}

}  // namespace fuzz

class BvFuzzWidth : public ::testing::TestWithParam<unsigned> {};

TEST_P(BvFuzzWidth, IntervalAlwaysContainsValue) {
  const unsigned w = GetParam();
  fuzz::Rng rng;
  rng.s += w;
  std::vector<ExprRef> vars = {mk_var("x", w), mk_var("y", w)};
  for (int iter = 0; iter < 300; ++iter) {
    const ExprRef e = fuzz::random_expr(rng, vars, 4);
    const Interval iv = interval_of(e);
    for (int trial = 0; trial < 16; ++trial) {
      Assignment a{{vars[0]->var_id(), rng.next()},
                   {vars[1]->var_id(), rng.next()}};
      const uint64_t v = evaluate(e, a);
      ASSERT_TRUE(iv.contains(v))
          << "width " << w << " iter " << iter << ": value " << v
          << " escapes interval [" << iv.lo << "," << iv.hi << "]";
    }
  }
}

TEST_P(BvFuzzWidth, SubstituteConstantsEqualsEvaluate) {
  // Substituting concrete constants must fold to exactly the evaluated
  // value: the factories' folding rules are semantics-preserving.
  const unsigned w = GetParam();
  fuzz::Rng rng;
  rng.s += 17 * w;
  std::vector<ExprRef> vars = {mk_var("x", w), mk_var("y", w)};
  for (int iter = 0; iter < 300; ++iter) {
    const ExprRef e = fuzz::random_expr(rng, vars, 4);
    const uint64_t xv = rng.next();
    const uint64_t yv = rng.next();
    Substitution sub;
    sub.emplace(vars[0]->var_id(), mk_const(xv, w));
    sub.emplace(vars[1]->var_id(), mk_const(yv, w));
    const ExprRef folded = Substituter(sub)(e);
    ASSERT_TRUE(folded->is_const())
        << "width " << w << " iter " << iter
        << ": constant substitution did not fold";
    Assignment a{{vars[0]->var_id(), xv}, {vars[1]->var_id(), yv}};
    ASSERT_EQ(folded->value(), evaluate(e, a))
        << "width " << w << " iter " << iter << ": folding changed semantics";
  }
}

TEST_P(BvFuzzWidth, InterningIsStructural) {
  // Building the same random tree twice yields the same node.
  const unsigned w = GetParam();
  std::vector<ExprRef> vars = {mk_var("x", w), mk_var("y", w)};
  fuzz::Rng r1, r2;
  r1.s = r2.s = 99 + w;
  for (int iter = 0; iter < 100; ++iter) {
    const ExprRef a = fuzz::random_expr(r1, vars, 4);
    const ExprRef b = fuzz::random_expr(r2, vars, 4);
    ASSERT_EQ(a.get(), b.get());
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BvFuzzWidth,
                         ::testing::Values(4u, 8u, 16u, 32u, 64u));

}  // namespace
}  // namespace vsd::bv
