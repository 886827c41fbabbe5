#include "solver/solver.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <unordered_set>

#include "cache/fingerprint.hpp"
#include "obs/trace.hpp"

namespace vsd::solver {

const char* result_name(Result r) {
  switch (r) {
    case Result::Sat: return "sat";
    case Result::Unsat: return "unsat";
    case Result::Unknown: return "unknown";
  }
  return "?";
}

// --- SolverContext ----------------------------------------------------------

SolverContext::SolverContext(Solver& owner)
    : owner_(owner), blaster_(sat_) {
  ++owner_.stats_.contexts_opened;
}

namespace {

// Sorts ranges by start and merges the overlapping and adjacent ones.
void coalesce(std::vector<sat::VarRange>* ranges) {
  std::sort(ranges->begin(), ranges->end(),
            [](const sat::VarRange& a, const sat::VarRange& b) {
              return a.lo < b.lo;
            });
  size_t keep = 0;
  for (const sat::VarRange& r : *ranges) {
    if (keep != 0 && r.lo <= (*ranges)[keep - 1].hi) {
      (*ranges)[keep - 1].hi = std::max((*ranges)[keep - 1].hi, r.hi);
    } else {
      (*ranges)[keep++] = r;
    }
  }
  ranges->resize(keep);
}

}  // namespace

const std::vector<sat::VarRange>& SolverContext::cone(
    const bv::ExprRef& conjunct) {
  const auto hit = cones_.find(conjunct->uid());
  if (hit != cones_.end()) return hit->second;
  std::vector<sat::VarRange> ranges;
  std::unordered_set<uint64_t> seen;
  std::vector<bv::ExprRef> stack{conjunct};
  while (!stack.empty()) {
    const bv::ExprRef n = stack.back();
    stack.pop_back();
    if (!seen.insert(n->uid()).second) continue;
    const sat::VarRange* r = blaster_.lowered_range(n);
    if (r == nullptr) continue;  // a constant divisor wired as a shift
    if (r->hi > r->lo) ranges.push_back(*r);
    if (n->kind() == bv::Kind::Var) vars_.emplace(n->var_id(), n);
    for (size_t i = 0; i < n->num_operands(); ++i) {
      stack.push_back(n->operand(i));
    }
  }
  coalesce(&ranges);
  return cones_.emplace(conjunct->uid(), std::move(ranges)).first->second;
}

bool SolverContext::collect_conjuncts(const bv::ExprRef& e,
                                      std::vector<sat::Lit>* lits,
                                      std::vector<bv::ExprRef>* exprs) {
  if (e->is_true()) return true;
  if (e->is_false()) return false;
  // Stitched constraints are left-leaning And-spines: splitting them means
  // the shared path prefix is blasted exactly once across a query group
  // and each conjunct's root literal doubles as its activation literal.
  if (e->kind() == bv::Kind::And && e->width() == 1) {
    return collect_conjuncts(e->operand(0), lits, exprs) &&
           collect_conjuncts(e->operand(1), lits, exprs);
  }
  const bool reused = blaster_.is_cached(e);
  const size_t before = blaster_.cache_size();
  const sat::Lit l = blaster_.blast(e)[0];
  if (reused) {
    ++owner_.stats_.assumption_reuses;
  } else {
    owner_.stats_.blast_nodes += blaster_.cache_size() - before;
  }
  lits->push_back(l);
  exprs->push_back(e);
  return true;
}

CheckResult SolverContext::check_assuming(const bv::ExprRef& e,
                                          bool need_model) {
  assert(e->width() == 1);
  CheckResult out;
  last_core_.clear();
  if (!sat_.okay()) {
    out.result = Result::Unsat;
    return out;
  }
  std::vector<sat::Lit> assumptions;
  std::vector<bv::ExprRef> conjuncts;
  if (!collect_conjuncts(e, &assumptions, &conjuncts)) {
    out.result = Result::Unsat;
    return out;
  }
  // The decision set: the union of the conjuncts' cones. It is closed under
  // gate inputs and holds every assumption, as SatSolver::solve requires.
  decide_on_.clear();
  for (const bv::ExprRef& c : conjuncts) {
    const std::vector<sat::VarRange>& r = cone(c);
    decide_on_.insert(decide_on_.end(), r.begin(), r.end());
  }
  coalesce(&decide_on_);

  CheckStats& cs = owner_.stats_;
  ++cs.incremental_queries;
  cs.learnt_retained += sat_.num_learnts();
  const sat::SolverStats before = sat_.stats();
  const sat::SatResult r =
      sat_.solve(assumptions, owner_.max_conflicts_, &decide_on_);
  cs.sat_conflicts += sat_.stats().conflicts - before.conflicts;
  cs.sat_decisions += sat_.stats().decisions - before.decisions;

  // Cross-query learnt-DB GC. solve()'s internal reduction limit resets
  // per call and scales with the accumulated database, so a long-lived
  // context grows without bound without this hook.
  if (sat_.num_learnts() > owner_.learnt_budget_) {
    ++cs.learnt_gc_runs;
    cs.learnt_gc_removed += sat_.reduce_learnts();
  }

  switch (r) {
    case sat::SatResult::Unsat:
      out.result = Result::Unsat;
      // Map the final conflict (negated assumption literals) back to the
      // conjunct expressions the refutation used — the core-grouping rung
      // groups later queries under it. Skip when the database itself went
      // unsat (no assumption core exists then).
      if (sat_.okay() && !sat_.final_conflict().empty()) {
        std::unordered_map<int, const bv::ExprRef*> by_code;
        for (size_t i = 0; i < assumptions.size(); ++i) {
          by_code.emplace(assumptions[i].code(), &conjuncts[i]);
        }
        for (const sat::Lit l : sat_.final_conflict()) {
          const auto it = by_code.find((~l).code());
          if (it != by_code.end()) last_core_.push_back(*it->second);
        }
      }
      return out;
    case sat::SatResult::Unknown:
      out.result = Result::Unknown;
      return out;
    case sat::SatResult::Sat:
      break;
  }
  out.result = Result::Sat;
  if (need_model) {
    for (const auto& [id, v] : vars_) {
      out.model.emplace(id, blaster_.model_value(v));
    }
    owner_.remember_model(out.model);
  } else if (owner_.avoidance_) {
    // The SAT core just produced a satisfying assignment anyway — harvest
    // it for the cex cache even though the caller only wanted the verdict.
    // Cached models are used as Sat *proofs* only (via concrete
    // evaluation), never handed out, so feeding history-dependent context
    // models here cannot perturb any reported byte.
    bv::Assignment m;
    for (const auto& [id, v] : vars_) m.emplace(id, blaster_.model_value(v));
    owner_.remember_model(m);
  }
  return out;
}

// --- Solver -----------------------------------------------------------------

Solver::Solver() = default;
Solver::~Solver() = default;

SolverContext& Solver::context() {
  if (!ctx_) ctx_ = std::make_unique<SolverContext>(*this);
  return *ctx_;
}

void Solver::set_cache_capacity(size_t cap) {
  cache_capacity_ = cap;
  while (cache_capacity_ != 0 && cache_.size() > cache_capacity_) {
    cache_.erase(cache_fifo_.front());
    cache_fifo_.pop_front();
    ++stats_.cache_evictions;
  }
}

const Solver::CacheEntry* Solver::cache_find(uint64_t uid) {
  const auto it = cache_.find(uid);
  return it == cache_.end() ? nullptr : &it->second;
}

void Solver::cache_store(uint64_t uid, CheckResult r, bool has_model) {
  const auto it = cache_.find(uid);
  if (it != cache_.end()) {
    // Upgrade in place only (model-less Sat -> Sat with model); FIFO
    // position is unchanged so a uid is never queued twice. Guard the
    // downgrade directions: a Sat entry holding a model must never be
    // replaced by a model-less one (a later check() would silently pay a
    // one-shot re-derivation), and an Unknown must never clobber a
    // definite verdict.
    const CacheEntry& cur = it->second;
    const bool model_downgrade = cur.has_model && cur.r.result == Result::Sat &&
                                 r.result == Result::Sat && !has_model;
    const bool verdict_downgrade = r.result == Result::Unknown &&
                                   cur.r.result != Result::Unknown;
    if (model_downgrade || verdict_downgrade) return;
    it->second = CacheEntry{std::move(r), has_model};
    return;
  }
  cache_.emplace(uid, CacheEntry{std::move(r), has_model});
  cache_fifo_.push_back(uid);
  while (cache_capacity_ != 0 && cache_.size() > cache_capacity_) {
    cache_.erase(cache_fifo_.front());
    cache_fifo_.pop_front();
    ++stats_.cache_evictions;
  }
}

// --- query-avoidance helpers ------------------------------------------------

void Solver::cache_verdict(uint64_t uid, Result res) {
  CheckResult r;
  r.result = res;
  cache_store(uid, std::move(r), /*has_model=*/res != Result::Sat);
}

bool Solver::try_exhaustive(const bv::ExprRef& e, Result* out) {
  const auto small = bv::free_variables_within(e, kSmallDomainBits);
  if (!small) return false;
  const std::vector<bv::ExprRef>& vars = *small;
  unsigned bits = 0;
  for (const bv::ExprRef& v : vars) bits += v->width();
  ++stats_.exhaustion_decided;
  const uint64_t total = uint64_t{1} << bits;
  bv::Assignment asg;
  for (uint64_t enc = 0; enc < total; ++enc) {
    uint64_t rest = enc;
    for (const bv::ExprRef& v : vars) {
      asg[v->var_id()] = bv::truncate_to_width(rest, v->width());
      rest >>= v->width();
    }
    if (bv::evaluate(e, asg) == 1) {
      *out = Result::Sat;
      return true;
    }
  }
  *out = Result::Unsat;
  return true;
}

void Solver::remember_model(const bv::Assignment& m) {
  if (!avoidance_ || m.empty()) return;
  cex_models_.push_front(m);
  if (cex_models_.size() > kCexCacheModels) cex_models_.pop_back();
}

bool Solver::try_cex_cache(const bv::ExprRef& e) {
  for (size_t i = 0; i < cex_models_.size(); ++i) {
    ++stats_.cex_cache_tries;
    // A concrete evaluation to 1 is a satisfiability proof: variables the
    // model misses read as 0, matching downstream model-completion
    // semantics, so the extended assignment is total and satisfying.
    if (bv::evaluate(e, cex_models_[i]) == 1) {
      ++stats_.cex_cache_hits;
      if (i != 0) {  // most-recently-useful first
        bv::Assignment hit = std::move(cex_models_[i]);
        cex_models_.erase(cex_models_.begin() + static_cast<long>(i));
        cex_models_.push_front(std::move(hit));
      }
      return true;
    }
  }
  return false;
}

namespace {
void split_spine(const bv::ExprRef& e, std::vector<bv::ExprRef>* out) {
  if (e->kind() == bv::Kind::And && e->width() == 1) {
    split_spine(e->operand(0), out);
    split_spine(e->operand(1), out);
    return;
  }
  out->push_back(e);
}
}  // namespace

void Solver::record_core(const std::vector<bv::ExprRef>& core) {
  if (core.empty() || core.size() > kMaxCoreSize) return;
  std::vector<uint64_t> uids;
  uids.reserve(core.size());
  for (const bv::ExprRef& c : core) uids.push_back(c->uid());
  std::sort(uids.begin(), uids.end());
  uids.erase(std::unique(uids.begin(), uids.end()), uids.end());
  for (const auto& have : cores_) {
    if (have == uids) return;
  }
  ++stats_.cores_recorded;
  cores_.push_back(std::move(uids));
  if (cores_.size() > kMaxCores) cores_.erase(cores_.begin());
}

bool Solver::discharge_by_core(const bv::ExprRef& e) {
  if (!avoidance_ || cores_.empty()) return false;
  // Cores are recorded on the conjuncts as built, so a stitched constraint
  // that repeats a refuted conjunct set matches by uid.
  std::vector<bv::ExprRef> conj;
  split_spine(e, &conj);
  std::unordered_set<uint64_t> uids;
  uids.reserve(conj.size());
  for (const bv::ExprRef& c : conj) uids.insert(c->uid());
  for (const auto& core : cores_) {
    bool subsumed = true;
    for (const uint64_t u : core) {
      if (uids.count(u) == 0) {
        subsumed = false;
        break;
      }
    }
    if (subsumed) {
      ++stats_.core_discharges;
      return true;
    }
  }
  return false;
}

Result Solver::context_check(const bv::ExprRef& e) {
  SolverContext& ctx = context();
  const Result pre = ctx.check_assuming(e, /*need_model=*/false).result;
  if (pre == Result::Unsat && avoidance_) {
    last_core_ = ctx.last_core();
    record_core(last_core_);
  }
  return pre;
}

// --- decision entry points --------------------------------------------------

namespace {

// The one name table: span-arg label and obs counter per rung (obs::count
// stores the pointer, so both are string literals). No default case, so a
// rung added without a name is a -Wswitch warning.
struct RungNames {
  const char* label;
  const char* counter;
};

RungNames rung_names(Rung r) {
  switch (r) {
    case Rung::Cheap: return {"cheap", "solver.rung.cheap"};
    case Rung::Cache: return {"cache", "solver.rung.cache"};
    case Rung::Memo: return {"memo", "solver.rung.memo"};
    case Rung::Exhaustion: return {"exhaustion", "solver.rung.exhaustion"};
    case Rung::CoreGrouping:
      return {"core-grouping", "solver.rung.core_grouping"};
    case Rung::CexCache: return {"cex-cache", "solver.rung.cex_cache"};
    case Rung::Incremental: return {"incremental", "solver.rung.incremental"};
    case Rung::Cdcl: return {"cdcl", "solver.rung.cdcl"};
  }
  return {"?", "solver.rung.unnamed"};
}

// Domain tag for persistent feasibility-memo keys, distinct from the
// verifier's refine tag (cache/fingerprint users).
constexpr uint64_t kFpSolverFeasible = 0x50feab1e50b7c15ull;

// The memo key of `e`: its content, never its uid.
cache::Fingerprint memo_key(const bv::ExprRef& e) {
  cache::Fingerprint fp;
  fp.mix(kFpSolverFeasible);
  fp.mix_expr(e);
  return fp;
}

std::string uid_fingerprint(const bv::ExprRef& e) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(e->uid()));
  return buf;
}

// Span args and counters shared by check() and check_feasible().
void trace_query(obs::ScopedSpan& sp, Rung rung, Result r,
                 const bv::ExprRef& e) {
  const RungNames names = rung_names(rung);
  sp.arg("rung", names.label);
  sp.arg("result", result_name(r));
  sp.arg("query", uid_fingerprint(e));
  obs::count("solver.queries");
  obs::count(names.counter);
}

}  // namespace

CheckResult Solver::check(const bv::ExprRef& e) {
  ++stats_.queries;
  if (!obs::enabled()) return check_inner(e);
  obs::ScopedSpan sp(obs::Cat::Solve, "check");
  CheckResult r = check_inner(e);
  trace_query(sp, last_rung_, r.result, e);
  return r;
}

CheckResult Solver::check_inner(const bv::ExprRef& e) {
  CheckResult out;
  out.result = decide(e);
  // Unsat needs no witness, and a cheap Sat holds under every assignment,
  // so the empty model is one.
  if (out.result == Result::Unsat || last_rung_ == Rung::Cheap) return out;
  // A model cached by an earlier check(), or by the one-shot rung just now
  // (which caches its Unknown the same way).
  if (const CacheEntry* hit = cache_find(e->uid());
      hit != nullptr && hit->has_model) {
    return hit->r;
  }
  // Sat from a verdict-only rung (the memo included): derive the witness
  // one-shot from `e`, so its bytes cannot depend on which rung decided.
  // If that derivation blows its conflict budget the answer is Unknown,
  // while the cached verdict stays Sat so feasibility answers never
  // regress.
  CheckResult r = solve_one_shot(e);
  if (r.result != Result::Unknown) cache_store(e->uid(), r, true);
  return r;
}

Result Solver::check_feasible(const bv::ExprRef& e) {
  ++stats_.queries;
  if (!obs::enabled()) return decide(e);
  obs::ScopedSpan sp(obs::Cat::Solve, "check_feasible");
  const Result r = decide(e);
  trace_query(sp, last_rung_, r, e);
  return r;
}

Result Solver::decide(const bv::ExprRef& e) {
  // The expression factories already folded constants. A true constraint
  // holds under every assignment: the empty model is a witness.
  if (e->is_true() || e->is_false()) {
    ++stats_.decided_by_folding;
    last_rung_ = Rung::Cheap;
    return e->is_true() ? Result::Sat : Result::Unsat;
  }
  // A recorded core refutes every query stitched over the same infeasible
  // conjuncts, ahead of the rungs that walk `e`. The verdict is memoized
  // like a paid one: a later run, whose context sees memo hits where this
  // run solved, may never record the core.
  if (discharge_by_core(e)) {
    last_rung_ = Rung::CoreGrouping;
    if (memo_ != nullptr) {
      const cache::Fingerprint fp = memo_key(e);
      bool sat = false;
      if (!memo_->lookup_decision(fp.hi(), fp.lo(), &sat)) {
        memo_store(fp.hi(), fp.lo(), Result::Unsat);
      }
    }
    return Result::Unsat;
  }
  // Sat by interval means every assignment satisfies `e`.
  if (const auto decided = bv::decide_by_interval(e)) {
    ++stats_.decided_by_interval;
    last_rung_ = Rung::Cheap;
    return *decided ? Result::Sat : Result::Unsat;
  }
  if (const CacheEntry* hit = cache_find(e->uid())) {
    ++stats_.cache_hits;
    last_rung_ = Rung::Cache;
    return hit->r.result;
  }
  if (memo_ == nullptr) return decide_uncached(e);
  // The memo sits behind the free rungs: those hits must not pay
  // fingerprint hashing.
  const cache::Fingerprint fp = memo_key(e);
  bool sat = false;
  if (memo_->lookup_decision(fp.hi(), fp.lo(), &sat)) {
    ++stats_.memo_hits;
    last_rung_ = Rung::Memo;
    // Seed the uid cache so same-run repeats stay in-process. Sat entries
    // carry no model: check() still derives its witness one-shot.
    cache_verdict(e->uid(), sat ? Result::Sat : Result::Unsat);
    return sat ? Result::Sat : Result::Unsat;
  }
  const Result r = decide_uncached(e);
  if (r != Result::Unknown) memo_store(fp.hi(), fp.lo(), r);
  return r;
}

void Solver::memo_store(uint64_t key_hi, uint64_t key_lo, Result r) {
  ++stats_.memo_stores;
  memo_->store_decision(key_hi, key_lo, r == Result::Sat);
}

Result Solver::decide_uncached(const bv::ExprRef& e) {
  if (avoidance_) {
    // Tiny-domain constraints are decided exactly by trying every
    // assignment — complete in both directions, zero SAT work.
    Result ex;
    if (try_exhaustive(e, &ex)) {
      last_rung_ = Rung::Exhaustion;
      cache_verdict(e->uid(), ex);
      return ex;
    }
    // Replay recent models — a hit proves Sat with zero solving.
    if (try_cex_cache(e)) {
      last_rung_ = Rung::CexCache;
      cache_verdict(e->uid(), Result::Sat);
      return Result::Sat;
    }
  }
  // An Unknown from a polluted context falls through to the one-shot solve,
  // so the context can never make a decidable query undecidable.
  if (incremental_) {
    const Result pre = context_check(e);
    if (pre != Result::Unknown) {
      last_rung_ = Rung::Incremental;
      cache_verdict(e->uid(), pre);
      return pre;
    }
  }
  last_rung_ = Rung::Cdcl;
  CheckResult r = solve_one_shot(e);
  const Result res = r.result;
  cache_store(e->uid(), std::move(r), true);
  return res;
}

CheckResult Solver::solve_one_shot(const bv::ExprRef& e) {
  CheckResult out;
  // Deterministic in `e` alone, which is what makes check() models
  // schedule- and history-independent.
  sat::SatSolver sat_solver;
  BitBlaster blaster(sat_solver);
  blaster.assert_true(e);
  stats_.blast_nodes += blaster.cache_size();
  const sat::SatResult r = sat_solver.solve(max_conflicts_);
  ++stats_.decided_by_sat;
  stats_.sat_conflicts += sat_solver.stats().conflicts;
  stats_.sat_decisions += sat_solver.stats().decisions;
  switch (r) {
    case sat::SatResult::Unsat:
      out.result = Result::Unsat;
      return out;
    case sat::SatResult::Unknown:
      out.result = Result::Unknown;
      return out;
    case sat::SatResult::Sat:
      break;
  }
  out.result = Result::Sat;
  for (const bv::ExprRef& v : bv::free_variables(e)) {
    out.model.emplace(v->var_id(), blaster.model_value(v));
  }
  remember_model(out.model);
  return out;
}

bool Solver::maybe_sat(const bv::ExprRef& e) {
  return check_feasible(e) != Result::Unsat;
}

bool Solver::is_unsat(const bv::ExprRef& e) {
  return check_feasible(e) == Result::Unsat;
}

}  // namespace vsd::solver
