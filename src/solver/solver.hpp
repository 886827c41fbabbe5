// Top-level decision procedure for bv constraints.
//
// Every query runs down one verdict ladder, cheapest rung first, and the
// first rung that decides answers (most stitched path constraints collapse
// syntactically, as the paper observes, so the early rungs carry most of
// the load):
//   1. cheap: the expression factories already folded constants, so a
//      constraint that simplified to true/false is decided for free, and an
//      unsigned-interval pass decides most remaining comparisons;
//   2. the per-uid result cache, then (check_feasible only) the persistent
//      cross-run feasibility memo;
//   3. query avoidance (one switch, set_avoidance): small-domain
//      exhaustion, unsat-core subsumption, counterexample replay and
//      independence slicing;
//   4. the live incremental context (SolverContext below);
//   5. a one-shot bit-blast + CDCL solve, which also produces a model.
// check() is the same ladder plus a one-shot model derivation on Sat, so
// witness bytes depend only on the expression, never on which rung decided.
//
// Rung 4 is incremental: a Solver keeps a live SolverContext — one
// persistent SatSolver + BitBlaster whose expr→literal cache survives
// across queries — and decides each query under assumptions instead of
// re-Tseitin-blasting the whole constraint from scratch. Step-2 stitched
// queries, key enumeration, and unroll refinement issue long runs of
// queries sharing a path-constraint prefix; the shared conjuncts blast
// once and every learnt clause keeps pruning later queries.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bv/analysis.hpp"
#include "bv/expr.hpp"
#include "solver/bitblast.hpp"
#include "solver/sat.hpp"

namespace vsd::solver {

enum class Result { Sat, Unsat, Unknown };

const char* result_name(Result r);

struct CheckStats {
  uint64_t queries = 0;
  uint64_t decided_by_folding = 0;
  uint64_t decided_by_interval = 0;
  uint64_t decided_by_sat = 0;  // one-shot SAT solves (model derivation)
  uint64_t cache_hits = 0;
  uint64_t cache_evictions = 0;
  uint64_t sat_conflicts = 0;  // across one-shot AND incremental solves
  uint64_t sat_decisions = 0;
  uint64_t blast_nodes = 0;  // expressions Tseitin-blasted (re-blasts count)
  // Incremental (assumption-based) layer:
  uint64_t contexts_opened = 0;      // live SolverContexts created
  uint64_t incremental_queries = 0;  // check_assuming() solves
  uint64_t assumption_reuses = 0;    // conjuncts served from a live blast cache
  uint64_t learnt_retained = 0;      // learnt clauses alive at query start
  // Query-avoidance rungs (one switch, Solver::set_avoidance). A query
  // "reaches the CDCL core" when it costs a SatSolver::solve() call:
  // decided_by_sat + incremental_queries counts exactly those — the number
  // tab10 A/Bs.
  uint64_t exhaustion_decided = 0;  // decided by small-domain exhaustion
  uint64_t slice_components = 0;    // component subqueries issued by slicing
  uint64_t slice_decided = 0;       // queries decided component-wise
  uint64_t cex_cache_tries = 0;     // cached models replayed against queries
  uint64_t cex_cache_hits = 0;      // Sat decided by a replayed model
  uint64_t core_discharges = 0;     // Unsat decided by stored-core subsumption
  uint64_t cores_recorded = 0;      // assumption cores harvested
  // Clause GC (always on): bounds a live context's learnt clauses.
  uint64_t learnt_gc_runs = 0;      // cross-query clause-DB GC invocations
  uint64_t learnt_gc_removed = 0;   // learnt clauses dropped by that GC
  // Persistent-memo rung (set_feasibility_memo, check_feasible only):
  // verdicts served from a cross-run store.
  uint64_t memo_hits = 0;
  uint64_t memo_stores = 0;
};

struct CheckResult {
  Result result = Result::Unknown;
  // Populated on Sat: concrete value per free-variable id of the query.
  bv::Assignment model;
};

// Seam for a persistent (cross-run) feasibility memo. check_feasible() keys
// each query by a 128-bit content fingerprint of the expression alone —
// expression satisfiability is context-free, so a verdict recorded by any
// run is valid in every run — and consults the memo before paying the
// avoidance ladder. Only decided verdicts (Sat/Unsat) are ever stored;
// models are never memoized (check() always re-derives witnesses one-shot,
// so counterexample bytes cannot depend on memo state). Implementations
// must be thread-safe. verify::PathDecisionCache extends this interface,
// which is how `--cache-dir` reaches the summarization-time fork checks
// that dominate a cold run's solver work.
class FeasibilityMemo {
 public:
  virtual ~FeasibilityMemo() = default;
  virtual bool lookup_decision(uint64_t hi, uint64_t lo, bool* sat) = 0;
  virtual void store_decision(uint64_t hi, uint64_t lo, bool sat) = 0;
};

class Solver;

// A live incremental solving scope: one SatSolver plus one BitBlaster whose
// expr→literal cache persists across queries. Every check_assuming() query
// is decided under assumptions only — the blasted root literal of every
// top-level conjunct acts as that conjunct's activation literal (the
// Tseitin definitions are full equivalences, so the circuit is inert until
// its root is assumed, and retraction is just not assuming it again).
// Learnt clauses never depend on assumption "facts" (assumptions enter as
// decisions), so everything learnt under one query soundly prunes the next.
//
// The solver branches only on the live query's cone: the variables of
// every circuit its conjuncts' expression DAGs lowered to (cached per
// conjunct for the context's lifetime). The circuits of retired queries
// stay in the database, keep their learnt clauses and are assigned by
// propagation, but are never decided (see SatSolver::solve).
//
// Sat models are read from the live solver state and therefore depend on
// the query history: callers needing history-independent (deterministic
// across schedules) witnesses must re-derive the model one-shot — that is
// what Solver::check() does. A context fed a deterministic query sequence
// (e.g. the sequential key enumeration) yields deterministic models.
class SolverContext {
 public:
  // Stats and the conflict budget are the owning Solver's.
  explicit SolverContext(Solver& owner);

  // Decides e without retaining it. On Sat with need_model, the model
  // covers every free variable this context has seen; only e's variables
  // carry meaning (the others read as whatever propagation left, 0 when
  // unassigned).
  CheckResult check_assuming(const bv::ExprRef& e, bool need_model = true);

  size_t num_learnts() const { return sat_.num_learnts(); }
  size_t blast_cache_size() const { return blaster_.cache_size(); }

  // After check_assuming returned Unsat (with the database still okay):
  // the subset of the query's top-level conjuncts the refutation actually
  // used (mapped back from SatSolver::final_conflict()). The conjunction of
  // these expressions is unsatisfiable on its own.
  const std::vector<bv::ExprRef>& last_core() const { return last_core_; }

 private:
  // Splits the And-spine of a width-1 expression and blasts each conjunct
  // to its root literal, recording the conjunct expression per literal.
  // Returns false when a conjunct folds to false.
  bool collect_conjuncts(const bv::ExprRef& e, std::vector<sat::Lit>* lits,
                         std::vector<bv::ExprRef>* exprs);
  // The coalesced variable ranges of a blasted conjunct's cone, computed on
  // first use from the lowering ranges of every node of its DAG (which also
  // records its free variables for model extraction).
  const std::vector<sat::VarRange>& cone(const bv::ExprRef& conjunct);

  Solver& owner_;
  sat::SatSolver sat_;
  BitBlaster blaster_;
  // Every free variable assumed so far, for model extraction.
  std::unordered_map<uint64_t, bv::ExprRef> vars_;
  std::unordered_map<uint64_t, std::vector<sat::VarRange>> cones_;
  std::vector<sat::VarRange> decide_on_;  // the live query's merged cone
  std::vector<bv::ExprRef> last_core_;
};

// Which ladder rung decided a query, for tracing (span arg "rung" and the
// solver.rung.* counters; solver.cpp holds the one name table).
enum class Rung : uint8_t {
  Cheap,
  Cache,
  Memo,
  Exhaustion,
  CoreGrouping,
  CexCache,
  Slicing,
  Incremental,
  Cdcl,
};

class Solver {
 public:
  Solver();
  ~Solver();
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  // Decides satisfiability of a width-1 expression. The model covers every
  // free variable of `e` (variables not mentioned are unconstrained). Sat
  // models are always derived by a deterministic one-shot solve, so the
  // witness bytes depend only on `e` — never on what this solver decided
  // before (required for jobs-count-independent counterexamples). The
  // verdict ladder still front-runs the query: an Unsat answer (the common
  // case for stitched suspects) never pays a one-shot blast.
  CheckResult check(const bv::ExprRef& e);

  // Decides satisfiability without deriving a model — the fast path for
  // feasibility pruning (symbolic-execution fork checks, speculative
  // instruction-bound decisions). The only entry point that consults the
  // persistent feasibility memo.
  Result check_feasible(const bv::ExprRef& e);

  // Convenience: true iff `e` is satisfiable. Treats Unknown as satisfiable
  // (conservative for proof soundness: we never prune a maybe-feasible path).
  bool maybe_sat(const bv::ExprRef& e);

  // Convenience: true iff `e` is provably unsatisfiable.
  bool is_unsat(const bv::ExprRef& e);

  // Budget for the SAT backend, to keep monolithic-baseline benches bounded.
  void set_max_conflicts(uint64_t m) { max_conflicts_ = m; }

  // Incremental assumption-based solving (default on). When off, every
  // query re-blasts from scratch — the pre-incremental behavior, kept for
  // A/B measurement (bench/tab9_incremental.cpp).
  void set_incremental(bool on) { incremental_ = on; }
  bool incremental() const { return incremental_; }

  // Query avoidance (default on): small-domain exhaustion, unsat-core
  // subsumption (with core harvesting), counterexample replay (with model
  // harvesting) and independence slicing, as one switch. Off, a query the
  // cheap rungs and the caches cannot decide goes straight to the
  // incremental context or the one-shot solve — the baseline tab10 A/Bs
  // against. Verdicts are identical either way (within conflict budgets)
  // and counterexample bytes always come from a one-shot solve of the
  // original expression.
  void set_avoidance(bool on) { avoidance_ = on; }
  // Live-context learnt-clause cap: exceeding it after a query triggers
  // SatSolver::reduce_learnts(). Always on — it bounds a long-lived
  // context's memory and avoids no query; the default is generous, and
  // tests shrink it to make the GC fire.
  void set_learnt_budget(size_t n) { learnt_budget_ = n; }

  // Unsat-core grouping surface for drivers (verify/decomposed.cpp): true
  // iff `e`'s top-level conjunct set is a superset of a recorded core, i.e.
  // `e` is unsatisfiable without any solver query (counted as a core
  // discharge). Always false with avoidance off. Cores are harvested
  // automatically from incremental Unsat answers; last_unsat_core()
  // exposes the most recent one.
  bool discharge_by_core(const bv::ExprRef& e);
  const std::vector<bv::ExprRef>& last_unsat_core() const { return last_core_; }

  // The live internal context (created lazily on first use).
  SolverContext& context();
  // Drops the live context. Verification drivers call this per top-level
  // property call: reuse within a call, bounded memory across a batch.
  void reset_context() { ctx_.reset(); }

  // Persistent cross-run feasibility memo (default none). Verdict-only:
  // see the FeasibilityMemo contract. Pass nullptr to detach.
  void set_feasibility_memo(FeasibilityMemo* m) { memo_ = m; }
  FeasibilityMemo* feasibility_memo() const { return memo_; }

  // Per-uid result cache cap (entries; 0 = unbounded). FIFO eviction.
  void set_cache_capacity(size_t cap);

  const CheckStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  friend class SolverContext;

  struct CacheEntry {
    CheckResult r;
    // False for a Sat decided without model derivation (any rung but the
    // one-shot): a later check() upgrades the entry with a one-shot model.
    bool has_model = true;
  };

  // check()'s body; the public wrapper adds the tracing span.
  CheckResult check_inner(const bv::ExprRef& e);
  // The verdict ladder: cheap -> uid cache -> memo (use_memo only) -> the
  // paying rungs of decide_uncached(). Components recurse with allow_slice
  // off (a variable-connected component cannot split further). Sets
  // last_rung_.
  Result decide(const bv::ExprRef& e, bool allow_slice, bool use_memo = false);
  // The rungs that cost work: exhaustion -> core subsumption -> cex replay
  // -> slicing -> incremental context -> one-shot. Caches every decided
  // verdict under e's uid; the one-shot rung caches its model too.
  Result decide_uncached(const bv::ExprRef& e, bool allow_slice);
  // One-shot bit-blast + CDCL, deterministic in `e` alone.
  CheckResult solve_one_shot(const bv::ExprRef& e);
  // Folding and intervals. Returns true when decided.
  bool check_cheap(const bv::ExprRef& e, CheckResult* out);
  const CacheEntry* cache_find(uint64_t uid);
  void cache_store(uint64_t uid, CheckResult r, bool has_model);
  // Caches a verdict decided without model derivation.
  void cache_verdict(uint64_t uid, Result res);
  // Exhaustive evaluation over every assignment of a tiny-domain
  // constraint (total free-variable bits <= kSmallDomainBits): complete,
  // so it decides Sat AND Unsat exactly with zero SAT work.
  bool try_exhaustive(const bv::ExprRef& e, Result* out);
  bool try_cex_cache(const bv::ExprRef& e);
  // Feeds a solver-derived model into the counterexample cache.
  void remember_model(const bv::Assignment& m);
  void record_core(const std::vector<bv::ExprRef>& core);
  // Variable-connected components of e's And-spine; empty when e does not
  // split (fewer than two components).
  std::vector<bv::ExprRef> split_components(const bv::ExprRef& e);
  const std::vector<uint64_t>& conjunct_var_ids(const bv::ExprRef& e);
  // check_assuming on the live context + unsat-core harvesting.
  Result context_check(const bv::ExprRef& e);

  uint64_t max_conflicts_ = UINT64_MAX;
  // Which rung decided the most recent query (plain stores at the return
  // sites, so maintaining it costs nothing when tracing is off). Read only
  // by the tracing wrappers and check_inner.
  Rung last_rung_ = Rung::Cheap;
  bool incremental_ = true;
  bool avoidance_ = true;
  size_t learnt_budget_ = size_t{1} << 14;
  FeasibilityMemo* memo_ = nullptr;
  CheckStats stats_;
  std::unique_ptr<SolverContext> ctx_;
  // Counterexample cache: recently-derived models, most recent first. A new
  // query is first evaluated under each — any satisfying assignment proves
  // Sat without touching the CDCL core (klee CexCachingSolver shape).
  std::deque<bv::Assignment> cex_models_;
  static constexpr size_t kCexCacheModels = 8;
  // <= 1024 evaluations of a (typically tiny) DAG — cheaper than one blast.
  static constexpr unsigned kSmallDomainBits = 10;
  // Recorded unsat cores as sorted conjunct-uid sets: any query whose
  // conjunct set subsumes one is Unsat for free.
  std::vector<std::vector<uint64_t>> cores_;
  static constexpr size_t kMaxCores = 64;
  static constexpr size_t kMaxCoreSize = 8;
  std::vector<bv::ExprRef> last_core_;
  // Per-conjunct free-variable-id memo for independence slicing.
  std::unordered_map<uint64_t, std::vector<uint64_t>> conjunct_vars_;
  // Result cache keyed by node identity; models are cached too because the
  // Step-2 composition frequently re-queries identical stitched constraints.
  // Capped (FIFO) so a long `vsd check` batch cannot grow it unboundedly.
  std::unordered_map<uint64_t, CacheEntry> cache_;
  std::deque<uint64_t> cache_fifo_;
  size_t cache_capacity_ = size_t{1} << 16;
};

}  // namespace vsd::solver
