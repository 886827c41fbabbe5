#include "solver/sat.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace vsd::sat {

namespace {

// Luby restart sequence (unit = base conflicts).
uint64_t luby(uint64_t i) {
  // Find the finite subsequence containing index i, then the value.
  uint64_t k = 1;
  while ((uint64_t{1} << k) - 1 < i + 1) ++k;
  while ((uint64_t{1} << k) - 1 != i + 1) {
    i -= (uint64_t{1} << (k - 1)) - 1;
    k = 1;
    while ((uint64_t{1} << k) - 1 < i + 1) ++k;
  }
  return uint64_t{1} << (k - 1);
}

constexpr double kVarDecay = 0.95;
constexpr double kClauseDecay = 0.999;
constexpr double kRescaleLimit = 1e100;
constexpr uint64_t kRestartBase = 100;

}  // namespace

SatSolver::SatSolver() = default;
SatSolver::~SatSolver() = default;

Var SatSolver::new_var() {
  const Var v = num_vars();
  assigns_.push_back(LBool::Undef);
  phase_.push_back(false);
  level_.push_back(0);
  reason_.push_back(-1);
  activity_.push_back(0.0);
  heap_index_.push_back(-1);
  seen_.push_back(0);
  decide_gen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_insert(v);
  return v;
}

bool SatSolver::add_clause(std::vector<Lit> lits) {
  if (!ok_) return false;
  assert(trail_lim_.empty() && "clauses must be added at decision level 0");

  std::sort(lits.begin(), lits.end(),
            [](Lit a, Lit b) { return a.code() < b.code(); });
  std::vector<Lit> out;
  out.reserve(lits.size());
  for (const Lit l : lits) {
    if (!out.empty() && l == out.back()) continue;       // duplicate
    if (!out.empty() && l == ~out.back()) return true;   // tautology
    if (value(l) == LBool::True) return true;            // already satisfied
    if (value(l) == LBool::False) continue;              // falsified literal
    out.push_back(l);
  }
  if (out.empty()) {
    ok_ = false;
    return false;
  }
  if (out.size() == 1) {
    if (!enqueue(out[0], -1)) {
      ok_ = false;
      return false;
    }
    ok_ = propagate() == -1;
    return ok_;
  }
  clauses_.push_back(Clause{std::move(out), 0.0, false});
  attach_clause(static_cast<int>(clauses_.size()) - 1);
  return true;
}

void SatSolver::attach_clause(int idx) {
  const Clause& c = clauses_[idx];
  assert(c.lits.size() >= 2);
  watches_[(~c.lits[0]).code()].push_back({idx, c.lits[1]});
  watches_[(~c.lits[1]).code()].push_back({idx, c.lits[0]});
}

bool SatSolver::enqueue(Lit l, int reason_idx) {
  if (value(l) == LBool::False) return false;
  if (value(l) == LBool::True) return true;
  assigns_[l.var()] = lbool_from(!l.negated());
  phase_[l.var()] = !l.negated();
  level_[l.var()] = static_cast<int>(trail_lim_.size());
  reason_[l.var()] = reason_idx;
  trail_.push_back(l);
  return true;
}

int SatSolver::propagate() {
  while (propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];
    ++stats_.propagations;
    std::vector<Watcher>& ws = watches_[p.code()];
    size_t keep = 0;
    for (size_t i = 0; i < ws.size(); ++i) {
      const Watcher w = ws[i];
      if (value(w.blocker) == LBool::True) {
        ws[keep++] = w;
        continue;
      }
      Clause& c = clauses_[w.clause_idx];
      // Normalize: the falsified literal goes to position 1.
      const Lit false_lit = ~p;
      if (c.lits[0] == false_lit) std::swap(c.lits[0], c.lits[1]);
      assert(c.lits[1] == false_lit);
      if (value(c.lits[0]) == LBool::True) {
        ws[keep++] = {w.clause_idx, c.lits[0]};
        continue;
      }
      // Look for a new watch.
      bool found = false;
      for (size_t k = 2; k < c.lits.size(); ++k) {
        if (value(c.lits[k]) != LBool::False) {
          std::swap(c.lits[1], c.lits[k]);
          watches_[(~c.lits[1]).code()].push_back({w.clause_idx, c.lits[0]});
          found = true;
          break;
        }
      }
      if (found) continue;
      // Unit or conflicting.
      ws[keep++] = w;
      if (value(c.lits[0]) == LBool::False) {
        // Conflict: keep the remaining watchers and report.
        for (size_t k = i + 1; k < ws.size(); ++k) ws[keep++] = ws[k];
        ws.resize(keep);
        propagate_head_ = trail_.size();
        return w.clause_idx;
      }
      enqueue(c.lits[0], w.clause_idx);
    }
    ws.resize(keep);
  }
  return -1;
}

void SatSolver::bump_var(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > kRescaleLimit) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_contains(v)) heap_update(v);
}

void SatSolver::bump_clause(int idx) {
  Clause& c = clauses_[idx];
  c.activity += clause_inc_;
  if (c.activity > kRescaleLimit) {
    for (int li : learnt_indices_) clauses_[li].activity *= 1e-100;
    clause_inc_ *= 1e-100;
  }
}

void SatSolver::decay_activities() {
  var_inc_ /= kVarDecay;
  clause_inc_ /= kClauseDecay;
}

void SatSolver::analyze(int conflict_idx, std::vector<Lit>& learnt,
                        int& backtrack_level) {
  learnt.clear();
  learnt.push_back(kLitUndef);  // slot for the asserting literal

  // `seen_` must stay set for every variable touched until analysis ends:
  // clearing it mid-resolution lets a variable that appears in several
  // antecedents be counted (and resolved) twice, which learns an
  // over-strong clause and makes the solver unsound.
  std::vector<Var> to_clear;
  const auto mark = [&](Var v) {
    seen_[v] = 1;
    to_clear.push_back(v);
  };

  int counter = 0;
  Lit p = kLitUndef;
  int idx = static_cast<int>(trail_.size()) - 1;
  int clause_idx = conflict_idx;
  const int current_level = static_cast<int>(trail_lim_.size());

  do {
    assert(clause_idx != -1);
    Clause& c = clauses_[clause_idx];
    if (c.learnt) bump_clause(clause_idx);
    const size_t start = (p == kLitUndef) ? 0 : 1;
    for (size_t i = start; i < c.lits.size(); ++i) {
      const Lit q = c.lits[i];
      if (seen_[q.var()] == 0 && level_[q.var()] > 0) {
        mark(q.var());
        bump_var(q.var());
        if (level_[q.var()] >= current_level) {
          ++counter;
        } else {
          learnt.push_back(q);
        }
      }
    }
    // Select the next still-marked literal on the trail to resolve on.
    while (seen_[trail_[idx].var()] == 0) --idx;
    p = trail_[idx];
    clause_idx = reason_[p.var()];
    --counter;
    --idx;
  } while (counter > 0);
  learnt[0] = ~p;

  // Conflict-clause minimization (local): drop literals whose entire reason
  // is already covered by the learnt clause / marked set.
  const auto redundant = [&](Lit l) {
    const int r = reason_[l.var()];
    if (r == -1) return false;
    for (size_t i = 1; i < clauses_[r].lits.size(); ++i) {
      const Lit q = clauses_[r].lits[i];
      if (seen_[q.var()] == 0 && level_[q.var()] > 0) return false;
    }
    return true;
  };
  size_t keep = 1;
  for (size_t i = 1; i < learnt.size(); ++i) {
    if (!redundant(learnt[i])) learnt[keep++] = learnt[i];
  }
  learnt.resize(keep);

  // Compute the backtrack level: highest level among non-asserting literals.
  if (learnt.size() == 1) {
    backtrack_level = 0;
  } else {
    size_t max_i = 1;
    for (size_t i = 2; i < learnt.size(); ++i) {
      if (level_[learnt[i].var()] > level_[learnt[max_i].var()]) max_i = i;
    }
    std::swap(learnt[1], learnt[max_i]);
    backtrack_level = level_[learnt[1].var()];
  }
  for (const Var v : to_clear) seen_[v] = 0;
}

void SatSolver::backtrack(int target_level) {
  if (static_cast<int>(trail_lim_.size()) <= target_level) return;
  const size_t bound = trail_lim_[target_level];
  for (size_t i = trail_.size(); i > bound; --i) {
    const Var v = trail_[i - 1].var();
    assigns_[v] = LBool::Undef;
    reason_[v] = -1;
    if (!heap_contains(v) && decidable(v)) heap_insert(v);
  }
  trail_.resize(bound);
  trail_lim_.resize(target_level);
  propagate_head_ = trail_.size();
}

Lit SatSolver::pick_branch_lit() {
  while (!heap_.empty()) {
    const Var v = heap_pop();
    if (value(v) == LBool::Undef) {
      return Lit(v, !phase_[v]);
    }
  }
  return kLitUndef;
}

void SatSolver::reduce_learnt_db() {
  std::sort(learnt_indices_.begin(), learnt_indices_.end(),
            [this](int a, int b) {
              return clauses_[a].activity < clauses_[b].activity;
            });
  // Remove the lower-activity half, except clauses that are reasons.
  const size_t target = learnt_indices_.size() / 2;
  std::vector<int> kept;
  kept.reserve(learnt_indices_.size());
  size_t removed = 0;
  for (size_t i = 0; i < learnt_indices_.size(); ++i) {
    const int idx = learnt_indices_[i];
    Clause& c = clauses_[idx];
    const bool is_reason =
        value(c.lits[0]) == LBool::True && reason_[c.lits[0].var()] == idx;
    if (removed < target && !is_reason && c.lits.size() > 2) {
      // Detach: lazily via tombstone (empty lits) — watches checked below.
      for (const Lit wl : {~c.lits[0], ~c.lits[1]}) {
        auto& ws = watches_[wl.code()];
        ws.erase(std::remove_if(
                     ws.begin(), ws.end(),
                     [idx](const Watcher& w) { return w.clause_idx == idx; }),
                 ws.end());
      }
      c.lits.clear();
      ++removed;
      ++stats_.removed_clauses;
    } else {
      kept.push_back(idx);
    }
  }
  learnt_indices_ = std::move(kept);
}

size_t SatSolver::reduce_learnts() {
  assert(trail_lim_.empty() && "GC runs between solves, at decision level 0");
  if (!ok_ || learnt_indices_.empty()) return 0;
  const uint64_t before = stats_.removed_clauses;
  reduce_learnt_db();
  compact_clause_db();
  return static_cast<size_t>(stats_.removed_clauses - before);
}

// Physically erases tombstoned clauses (lits cleared by reduce_learnt_db)
// and remaps every clause index: learnt_indices_, reason_ entries of the
// level-0 trail, and the watch lists (rebuilt from scratch — at level 0
// with propagation complete a fresh watch pair is valid: a watched literal
// false at level 0 is never re-propagated, and conflicts/units on the
// remaining literals surface exactly as with any falsified watch).
// Tombstones are never reasons: they were detached when tombstoned and a
// detached clause cannot propagate.
void SatSolver::compact_clause_db() {
  assert(trail_lim_.empty());
  std::vector<int> remap(clauses_.size(), -1);
  std::vector<Clause> kept;
  kept.reserve(clauses_.size());
  for (size_t i = 0; i < clauses_.size(); ++i) {
    if (clauses_[i].lits.empty()) continue;  // tombstone
    remap[i] = static_cast<int>(kept.size());
    kept.push_back(std::move(clauses_[i]));
  }
  if (kept.size() == clauses_.size()) {
    clauses_ = std::move(kept);
    return;  // nothing moved; indices unchanged
  }
  clauses_ = std::move(kept);
  for (auto& ws : watches_) ws.clear();
  for (int i = 0; i < static_cast<int>(clauses_.size()); ++i) attach_clause(i);
  size_t k = 0;
  for (const int idx : learnt_indices_) {
    if (remap[idx] != -1) learnt_indices_[k++] = remap[idx];
  }
  learnt_indices_.resize(k);
  for (int& r : reason_) {
    if (r != -1) {
      assert(remap[r] != -1);
      r = remap[r];
    }
  }
}

SatResult SatSolver::solve(uint64_t max_conflicts) {
  return solve(std::vector<Lit>{}, max_conflicts);
}

// Inserts in variable order, so equal activities tie-break the same way
// on every call.
void SatSolver::rebuild_heap(const std::vector<VarRange>* decide_on) {
  for (const Var v : heap_) heap_index_[v] = -1;
  heap_.clear();
  heap_restricted_ = decide_on != nullptr;
  if (decide_on == nullptr) {
    for (Var v = 0; v < num_vars(); ++v) {
      if (assigns_[v] == LBool::Undef) heap_insert(v);
    }
    return;
  }
  ++decide_cur_gen_;
  for (const VarRange& r : *decide_on) {
    for (Var v = r.lo; v < r.hi; ++v) {
      decide_gen_[v] = decide_cur_gen_;
      if (assigns_[v] == LBool::Undef) heap_insert(v);
    }
  }
}

SatResult SatSolver::solve(const std::vector<Lit>& assumptions,
                           uint64_t max_conflicts,
                           const std::vector<VarRange>* decide_on) {
  final_conflict_.clear();
  if (!ok_) return SatResult::Unsat;
  assert(trail_lim_.empty() && "solve() must start at decision level 0");
  if (propagate() != -1) {
    ok_ = false;
    return SatResult::Unsat;
  }
  // A solve without a set keeps the heap it has (every variable, unless a
  // restricted solve ran before), so a solver that is never restricted
  // searches exactly as it always did.
  if (decide_on != nullptr || heap_restricted_) rebuild_heap(decide_on);

  uint64_t conflicts_total = 0;
  uint64_t restart_epoch = 0;
  uint64_t restart_budget = kRestartBase * luby(restart_epoch);
  uint64_t conflicts_since_restart = 0;
  uint64_t learnt_limit = std::max<size_t>(clauses_.size() / 3, 2000);

  // Every exit retracts the assumptions: the trail returns to level 0, so
  // clauses and variables can be added before the next solve.
  const auto finish = [this](SatResult r) {
    backtrack(0);
    return r;
  };

  std::vector<Lit> learnt;
  for (;;) {
    const int conflict = propagate();
    if (conflict != -1) {
      ++stats_.conflicts;
      ++conflicts_total;
      ++conflicts_since_restart;
      if (trail_lim_.empty()) {
        ok_ = false;  // conflict below every assumption: truly unsat
        return SatResult::Unsat;
      }
      int backtrack_level = 0;
      analyze(conflict, learnt, backtrack_level);
      // The learnt clause may assert below the assumption prefix; that is
      // fine — the assumption decision levels are re-established by the
      // branching step below, and a now-false assumption surfaces there as
      // a final conflict.
      backtrack(backtrack_level);
      if (learnt.size() == 1) {
        enqueue(learnt[0], -1);
      } else {
        clauses_.push_back(Clause{learnt, 0.0, true});
        const int idx = static_cast<int>(clauses_.size()) - 1;
        learnt_indices_.push_back(idx);
        ++stats_.learnt_clauses;
        attach_clause(idx);
        bump_clause(idx);
        enqueue(learnt[0], idx);
      }
      decay_activities();
      if (conflicts_total >= max_conflicts) return finish(SatResult::Unknown);
      continue;
    }
    // No conflict.
    if (conflicts_since_restart >= restart_budget) {
      ++stats_.restarts;
      conflicts_since_restart = 0;
      restart_budget = kRestartBase * luby(++restart_epoch);
      backtrack(0);
      continue;
    }
    if (learnt_indices_.size() >= learnt_limit) {
      reduce_learnt_db();
      learnt_limit = learnt_limit + learnt_limit / 2;
    }
    // The first |assumptions| decision levels are the assumptions, in
    // order. An assumption already true gets an empty decision level (so
    // backtracking never undoes it past its position); one already false is
    // the final conflict.
    Lit next = kLitUndef;
    while (trail_lim_.size() < assumptions.size()) {
      const Lit a = assumptions[trail_lim_.size()];
      if (value(a) == LBool::True) {
        trail_lim_.push_back(static_cast<int>(trail_.size()));
      } else if (value(a) == LBool::False) {
        analyze_final(~a);
        return finish(SatResult::Unsat);
      } else {
        next = a;
        break;
      }
    }
    if (next == kLitUndef) {
      next = pick_branch_lit();
      if (next == kLitUndef) {
        // Every decidable variable is assigned at a conflict-free fixpoint:
        // the whole instance, or (per the contract in sat.hpp) a decision
        // set whose gates all extend to a total model.
        capture_model();
        return finish(SatResult::Sat);
      }
      ++stats_.decisions;
    }
    trail_lim_.push_back(static_cast<int>(trail_.size()));
    enqueue(next, -1);
  }
}

// `p` is the true literal contradicting a failed assumption (~p was
// assumed). Walks the implication trail backwards, expanding reasons, until
// only decisions — which under the assumption prefix are assumptions —
// remain: those, negated, plus p form the final conflict clause.
void SatSolver::analyze_final(Lit p) {
  final_conflict_.clear();
  final_conflict_.push_back(p);
  if (trail_lim_.empty()) return;
  std::vector<Var> to_clear;
  seen_[p.var()] = 1;
  to_clear.push_back(p.var());
  for (size_t i = trail_.size(); i > static_cast<size_t>(trail_lim_[0]); --i) {
    const Var x = trail_[i - 1].var();
    if (seen_[x] == 0) continue;
    const int r = reason_[x];
    if (r == -1) {
      assert(level_[x] > 0);
      final_conflict_.push_back(~trail_[i - 1]);
    } else {
      const Clause& c = clauses_[r];
      for (size_t j = 1; j < c.lits.size(); ++j) {
        const Var v = c.lits[j].var();
        if (seen_[v] == 0 && level_[v] > 0) {
          seen_[v] = 1;
          to_clear.push_back(v);
        }
      }
    }
  }
  for (const Var v : to_clear) seen_[v] = 0;
}

void SatSolver::capture_model() {
  model_.resize(assigns_.size());
  for (size_t v = 0; v < assigns_.size(); ++v) {
    model_[v] = assigns_[v] == LBool::True ? 1 : 0;
  }
}

bool SatSolver::model_value(Var v) const {
  assert(static_cast<size_t>(v) < model_.size());
  return model_[v] != 0;
}

// --- order heap -----------------------------------------------------------

void SatSolver::heap_insert(Var v) {
  if (heap_contains(v)) return;
  heap_index_[v] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(heap_index_[v]);
}

void SatSolver::heap_update(Var v) {
  heap_sift_up(heap_index_[v]);
  heap_sift_down(heap_index_[v]);
}

Var SatSolver::heap_pop() {
  assert(!heap_.empty());
  const Var top = heap_[0];
  heap_index_[top] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_index_[heap_[0]] = 0;
    heap_sift_down(0);
  }
  return top;
}

void SatSolver::heap_sift_up(int i) {
  const Var v = heap_[i];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[v]) break;
    heap_[i] = heap_[parent];
    heap_index_[heap_[i]] = i;
    i = parent;
  }
  heap_[i] = v;
  heap_index_[v] = i;
}

void SatSolver::heap_sift_down(int i) {
  const Var v = heap_[i];
  const int n = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && activity_[heap_[child + 1]] > activity_[heap_[child]]) {
      ++child;
    }
    if (activity_[heap_[child]] <= activity_[v]) break;
    heap_[i] = heap_[child];
    heap_index_[heap_[i]] = i;
    i = child;
  }
  heap_[i] = v;
  heap_index_[v] = i;
}

}  // namespace vsd::sat
