// A self-contained CDCL SAT solver in the MiniSat lineage: two-watched
// literals, first-UIP clause learning, VSIDS decision heuristic with an
// indexed binary heap, phase saving, Luby restarts, and learnt-clause
// reduction. This is the decision backend for the bit-blasted bit-vector
// constraints produced during dataplane verification.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace vsd::sat {

// Propositional variable index, 0-based.
using Var = int;

// Literal: variable with polarity, encoded as 2*var + (negated ? 1 : 0).
class Lit {
 public:
  Lit() : code_(-2) {}
  Lit(Var v, bool negated) : code_(2 * v + (negated ? 1 : 0)) {}

  static Lit from_code(int code) {
    Lit l;
    l.code_ = code;
    return l;
  }

  Var var() const { return code_ >> 1; }
  bool negated() const { return (code_ & 1) != 0; }
  Lit operator~() const { return from_code(code_ ^ 1); }
  int code() const { return code_; }

  bool operator==(const Lit& o) const { return code_ == o.code_; }
  bool operator!=(const Lit& o) const { return code_ != o.code_; }

 private:
  int code_;
};

inline const Lit kLitUndef = Lit::from_code(-2);

// A half-open block [lo, hi) of variable indices.
struct VarRange {
  Var lo = 0;
  Var hi = 0;
};

// Three-valued assignment.
enum class LBool : int8_t { False = 0, True = 1, Undef = 2 };

inline LBool lbool_from(bool b) { return b ? LBool::True : LBool::False; }
inline LBool lbool_negate(LBool v) {
  if (v == LBool::Undef) return v;
  return v == LBool::True ? LBool::False : LBool::True;
}

struct SolverStats {
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  uint64_t conflicts = 0;
  uint64_t restarts = 0;
  uint64_t learnt_clauses = 0;
  uint64_t removed_clauses = 0;
};

enum class SatResult { Sat, Unsat, Unknown };

// CDCL solver. Typical use:
//   SatSolver s;
//   Var a = s.new_var(); ...
//   s.add_clause({Lit(a,false), Lit(b,true)});
//   SatResult r = s.solve();
//   if (r == SatResult::Sat) bool va = s.model_value(a);
//
// The solver is incremental in the MiniSat sense: solve(assumptions) decides
// the clause database under a set of assumed literals without asserting
// them, so the same instance can be re-solved many times with different
// assumptions, and clauses (including new variables) may be added between
// solves. All learnt clauses are implied by the clause database alone —
// assumptions enter as decisions, never as clauses — so everything learnt
// in one call keeps pruning every later call.
class SatSolver {
 public:
  SatSolver();
  ~SatSolver();
  SatSolver(const SatSolver&) = delete;
  SatSolver& operator=(const SatSolver&) = delete;

  Var new_var();
  int num_vars() const { return static_cast<int>(assigns_.size()); }

  // Adds a clause; returns false if the instance is already unsatisfiable.
  // Duplicate literals are removed; tautologies are dropped silently.
  // Legal before the first solve and between solves (the trail is always
  // restored to decision level 0 when solve returns).
  bool add_clause(std::vector<Lit> lits);

  // Solves, optionally bounded by a conflict budget (Unknown on exhaustion).
  SatResult solve(uint64_t max_conflicts = UINT64_MAX);

  // Solves under assumptions: decides whether the clause database has a
  // model in which every assumption literal is true. Assumptions are
  // retracted on return — backtracking never undoes the database below the
  // assumption prefix during search, and the trail is restored to level 0
  // afterwards. Unsat here means "unsat under these assumptions" unless
  // okay() also turned false (the database itself became unsat).
  //
  // `decide_on` (optional) restricts branching to a decision set, given as
  // variable ranges: the VSIDS heap holds only the set's unassigned
  // variables, and Sat is reported once the heap drains, i.e. once every
  // variable of the set is assigned at a conflict-free propagation fixpoint.
  // Variables outside the set are assigned only by propagation. Without a
  // set every variable is decidable and the search is the plain one.
  //
  // SOUNDNESS CONTRACT (the caller's obligation): every non-unit problem
  // clause belongs to a propagation-complete, acyclic gate definition
  // (Tseitin encodings as produced by BitBlaster), every unit problem
  // clause pins a variable that no gate reads (BitBlaster's true literal),
  // every assumption's variable is in the set or assigned at level 0, and
  // the set is closed under gate inputs: with a gate's output it holds
  // every input. Then when the heap drains every gate of the set has been
  // propagated to its semantic value, and evaluating the gates outside the
  // set bottom-up from it extends the assignment to a total model of the
  // problem clauses; learnt clauses are implied by those and hold too. So
  // Sat is exact, and model values are meaningful on the set only
  // (variables outside it read as whatever propagation left, false when
  // unassigned). A caller passes a query's whole cone, gates included, and
  // not just the circuit-source bits: deciding only the source bits is
  // sound as well (propagation then fixes every gate), but input-restricted
  // branching can need exponentially longer searches (Järvisalo & Junttila,
  // 2009).
  //
  // This is what keeps an incremental context from deciding the circuits of
  // every query it retired: their high-activity variables stay out of the
  // heap, so a query costs decisions in its own cone only.
  SatResult solve(const std::vector<Lit>& assumptions,
                  uint64_t max_conflicts = UINT64_MAX,
                  const std::vector<VarRange>* decide_on = nullptr);

  // Valid after the most recent solve() returned Sat (the model is captured
  // before assumptions are retracted, so it stays readable between solves).
  bool model_value(Var v) const;

  // After solve(assumptions) returns Unsat with okay() still true: the
  // final conflict clause ¬a1 ∨ ... ∨ ¬ak over the subset of assumptions
  // the unsatisfiability proof actually used.
  const std::vector<Lit>& final_conflict() const { return final_conflict_; }

  // False once the clause database is unsatisfiable independent of any
  // assumptions.
  bool okay() const { return ok_; }

  // Cross-call learnt-clause garbage collection for long-lived incremental
  // instances. solve() already reduces the learnt DB *within* one call, but
  // its limit resets every call (and grows with the accumulated database),
  // so a context solving thousands of queries grows without bound. Callers
  // owning a persistent solver invoke this between solves (decision level
  // 0): it drops the low-activity half of the learnt clauses — reason
  // clauses and binaries are kept — and physically compacts the clause
  // vector so tombstones from earlier reductions stop occupying memory.
  // Always sound: learnt clauses are implied by the problem clauses.
  // Returns the number of clauses removed.
  size_t reduce_learnts();

  size_t num_clauses() const { return clauses_.size(); }
  size_t num_learnts() const { return learnt_indices_.size(); }

  const SolverStats& stats() const { return stats_; }

 private:
  struct Clause {
    std::vector<Lit> lits;
    double activity = 0.0;
    bool learnt = false;
  };

  struct Watcher {
    int clause_idx;
    Lit blocker;
  };

  LBool value(Lit l) const {
    const LBool v = assigns_[l.var()];
    return l.negated() ? lbool_negate(v) : v;
  }
  LBool value(Var v) const { return assigns_[v]; }

  bool enqueue(Lit l, int reason_idx);
  int propagate();  // returns conflicting clause index or -1
  void analyze(int conflict_idx, std::vector<Lit>& learnt, int& backtrack_level);
  void analyze_final(Lit p);  // fills final_conflict_ from the trail
  void capture_model();
  void backtrack(int level);
  // Refills the order heap with every unassigned variable of `decide_on`,
  // or of the whole instance when it is null.
  void rebuild_heap(const std::vector<VarRange>* decide_on);
  bool decidable(Var v) const {
    return !heap_restricted_ || decide_gen_[v] == decide_cur_gen_;
  }
  Lit pick_branch_lit();
  void attach_clause(int idx);
  void reduce_learnt_db();
  void compact_clause_db();
  void bump_var(Var v);
  void bump_clause(int idx);
  void decay_activities();

  // Order heap (max-heap on activity) -------------------------------------
  void heap_insert(Var v);
  void heap_update(Var v);
  Var heap_pop();
  bool heap_contains(Var v) const { return heap_index_[v] >= 0; }
  void heap_sift_up(int i);
  void heap_sift_down(int i);

  std::vector<Clause> clauses_;          // problem + learnt clauses
  std::vector<int> learnt_indices_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by literal code
  std::vector<LBool> assigns_;
  std::vector<bool> phase_;              // saved phases
  std::vector<int> level_;
  std::vector<int> reason_;              // clause index or -1
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  size_t propagate_head_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;

  std::vector<Var> heap_;
  std::vector<int> heap_index_;

  std::vector<uint8_t> seen_;  // scratch for analyze()

  std::vector<uint8_t> model_;       // captured at Sat, survives retraction
  std::vector<Lit> final_conflict_;  // assumption-unsat explanation

  // Decision-set membership for solve(..., decide_on), generation-stamped.
  // While heap_restricted_ is set the heap holds members only; a solve
  // without a set refills it with every variable first.
  std::vector<uint32_t> decide_gen_;
  uint32_t decide_cur_gen_ = 0;
  bool heap_restricted_ = false;

  bool ok_ = true;
  SolverStats stats_;
};

}  // namespace vsd::sat
