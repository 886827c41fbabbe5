// The decomposed pipeline verifier — the paper's contribution.
//
// Step 1: symbolically execute each element in isolation (once per element
// type+config, via the summary cache) and conservatively tag suspect
// segments for the target property.
//
// Step 2: for every pipeline path that can reach a suspect segment, stitch
// the path constraint by substituting each element's symbolic output into
// the next element's constraint, and decide feasibility — without ever
// executing the composed code. Composition work is O(k · 2^n) rather than
// the monolithic O(2^(k·n)).
//
// For suspects that depend on private state (fresh KV-read symbols), a
// third refinement asks the paper's stateful question: could any input
// packet have caused the required "bad value" to be written? The read is
// constrained to (default ∨ some feasible write's value) and re-decided.
#pragma once

#include <functional>
#include <memory>

#include "bv/expr.hpp"
#include "pipeline/pipeline.hpp"
#include "solver/solver.hpp"
#include "symbex/executor.hpp"
#include "symbex/summary.hpp"
#include "verify/report.hpp"

namespace vsd::verify {

class PathDecisionCache;  // verify/decision_cache.hpp

// The three in-memory Step-1 summary caches (summarize, unroll, and the
// refinement's budgeted unroll), bundled so a long-lived host (the serve
// daemon) can keep them warm across verifier instances: element summaries
// are request-independent, and sharing them makes every request after the
// first skip straight to Step 2. A verifier given a bundle uses it instead
// of its private per-instance caches.
struct SummaryCaches {
  symbex::SharedSummaryCache summarize;
  symbex::SharedSummaryCache unroll;
  symbex::SharedSummaryCache refine;
};

struct DecomposedConfig {
  // Packet length for the symbolic input ("in is a symbolic bit vector").
  size_t packet_len = 64;
  symbex::LoopMode loop_mode = symbex::LoopMode::Summarize;
  // Budget for Step 2 path stitching: composed paths (terminals) per walk.
  uint64_t max_composed_paths = 1u << 20;
  // Bounded-state verification: cap on distinct keys enumerated per call
  // (the occupancy decision is an enumerate-up-to-N+1 procedure; bounds
  // beyond this budget come back Unknown rather than running forever on an
  // unbounded table).
  uint64_t max_state_keys = 1u << 12;
  // Per-path unroll refinement: when a suspect on a summarized-loop path
  // is Sat but uncertifiable, re-walk just that element trace with loops
  // concretely unrolled, counting at most this many composed paths
  // (terminals reached along the trace, violating or not) before giving
  // up as Unknown.
  uint64_t max_refine_paths = 1u << 14;
  // Cap on the solver fork-checks of each exact (unrolled) summarization
  // the refinement requests; a fixed cap bounds its interpreted
  // instructions too (unrolling forks on the solver, so an option-walking
  // loop can pass the instruction cap and still cost hours of queries).
  // Past either cap the summary is truncated and the refinement gives up
  // as Unknown instead of hanging. Counts, not seconds: no verdict depends
  // on machine load or --jobs. 0 = no cap.
  uint64_t refine_max_solver_checks = 4096;
  // Worker threads for the work-queue engine: the Step-2 walk summarizes
  // each element on first visit and walks/decides stitched paths
  // concurrently, each worker with its own solver instance. 1 runs the
  // same engine inline on the calling thread; 0 means one worker per
  // hardware thread. Verdicts, suspect sets, and counterexample paths are
  // identical at any value (within budgets).
  size_t jobs = 1;
  // Incremental assumption-based solving (default on): every worker's
  // solver keeps a live SAT context across the
  // query-heavy inner loops (Step-2 stitched decisions, bounded-state key
  // enumeration, unroll-refinement re-walks, symbex fork checks) instead
  // of re-blasting each query from scratch. Verdicts, counterexamples, and
  // packet bytes stay byte-identical at any `jobs` value either way; off
  // reproduces the pre-incremental one-shot behavior for A/B measurement.
  // Caveat, analogous to the path-budget one on the parallel walk: if a
  // query actually exhausts its conflict budget (2^22 conflicts), WHETHER
  // it does can depend on the live context's history, which at jobs > 1
  // depends on scheduling — a budget-exhaustion Unknown is sound but not
  // reproducible. Within the budget (tier-1 workloads sit orders of
  // magnitude below it) results are fully deterministic.
  bool incremental = true;
  // Query avoidance (Solver::set_avoidance): unsat-core subsumption,
  // small-domain exhaustion and counterexample replay. Verdict-only rungs
  // (counterexample bytes are always derived from the original
  // constraint), so results are byte-identical on or off; the tab10 bench
  // A/Bs the two.
  bool avoidance = true;
  // Persistent cross-run decision cache (cache::VerdictCache over an
  // on-disk store). When set, every solver's memo rung keeps its
  // feasibility verdicts there (Solver::set_feasibility_memo), fork checks
  // and stitched suspects alike, and whole per-path unroll refinements are
  // answered from it — verdicts and counterexample bytes stay
  // byte-identical either way (a Sat suspect re-derives its model
  // one-shot; refine outcomes persist their certified counterexample
  // verbatim). Not owned.
  PathDecisionCache* decision_cache = nullptr;
  // Shared in-memory Step-1 summary caches (the serve daemon's warm
  // state). nullptr = the verifier uses its own private caches. Not owned;
  // must outlive the verifier.
  SummaryCaches* shared_caches = nullptr;
};

// A predicate over the pipeline's symbolic input packet, used by
// reachability properties ("any packet with destination X ...").
using InputPredicate =
    std::function<bv::ExprRef(const symbex::SymPacket& entry)>;

// Which composed terminals violate a reach/never property. The generic
// shape is "no packet satisfying the input predicate may end at a bad
// terminal": never(drop) marks Drop and Trap terminals bad;
// reachable(output N) additionally marks any Emit that leaves the pipeline
// at a port other than N.
struct TerminalSpec {
  bool drop_is_violation = true;
  bool trap_is_violation = true;
  // When set, an Emit leaving the pipeline at any other port is a violation
  // (the "every matching packet reaches output N" property).
  std::optional<uint32_t> required_exit_port;
};

// Concrete replay of a packet sequence with persistent scratch private
// state (the pipeline's live elements are untouched): returns the total
// LIVE entries (non-default values) across the tables of elements whose
// name matches `element` (empty = every element) after the whole sequence
// ran. This is the certification semantics of bounded-state
// counterexamples — the verifier and the spec checker share it.
uint64_t replay_sequence_occupancy(const pipeline::Pipeline& pl,
                                   const std::vector<net::Packet>& sequence,
                                   const std::string& element = {});

// What verify_bounded_state must bound: total private-state occupancy of
// either the whole pipeline or the instances of one named element.
struct StateBoundSpec {
  // Empty = every element; otherwise only elements whose name matches
  // (all instances of that name are counted together).
  std::string element;
  // Maximum admissible total number of live table entries.
  uint64_t bound = 0;
};

// One fully stitched end-to-end path through the pipeline: the composed
// constraint over the entry packet, the elements traversed, and the final
// disposition. This is the verifier's working material (Step 2) exposed as
// an API — useful for tooling, coverage analysis, and differential testing
// against concrete execution.
struct ComposedPath {
  bv::ExprRef constraint;  // over the entry packet's byte/meta variables
  std::vector<std::string> element_path;
  symbex::SegAction action = symbex::SegAction::Drop;
  uint32_t port = 0;                              // Emit leaving the pipeline
  ir::TrapKind trap = ir::TrapKind::Unreachable;  // Trap
  uint64_t instr_count = 0;
  bool count_is_bound = false;
};

struct ComposedPaths {
  // The symbolic entry packet the constraints are expressed over.
  symbex::SymPacket entry;
  std::vector<ComposedPath> paths;
  bool complete = true;  // false if a budget truncated enumeration
};

class DecomposedVerifier {
 public:
  explicit DecomposedVerifier(DecomposedConfig config = {});
  ~DecomposedVerifier();

  // Property 1 (§1): no input packet can make the pipeline stop executing.
  CrashFreedomReport verify_crash_freedom(const pipeline::Pipeline& pl);

  // Property 2: a bound on instructions executed per packet, with the
  // input packet that attains the most expensive feasible path.
  InstructionBoundReport verify_instruction_bound(const pipeline::Pipeline& pl);

  // Property 3: no packet satisfying `predicate` is ever dropped.
  // Equivalent to verify_reach_never with the default TerminalSpec.
  ReachabilityReport verify_never_dropped(const pipeline::Pipeline& pl,
                                          const InputPredicate& predicate);

  // Generic terminal property: no packet satisfying `predicate` may reach a
  // terminal the spec marks as a violation. Powers never(drop),
  // reachable(output N), and predicated crash freedom (trap-only spec).
  ReachabilityReport verify_reach_never(const pipeline::Pipeline& pl,
                                        const InputPredicate& predicate,
                                        const TerminalSpec& spec);

  // Stateful property: across ANY sequence of input packets each satisfying
  // `predicate`, the selected elements' private tables never hold more than
  // spec.bound entries in total. Implemented over the per-element state
  // summaries (symbex/state_summary.hpp): stitch every KvWrite site onto
  // its pipeline paths, then enumerate distinct feasible key values with
  // solver blocking clauses. Proven returns the exact count of insertable
  // entries (an upper bound on simultaneous occupancy — tight unless an
  // insert segment also evicts other keys); Violated returns a concrete
  // packet sequence inserting bound+1 distinct entries, certified by
  // sequence replay. The site walk and the enumeration run on the calling
  // thread at any job count (each query depends on the keys found so far),
  // so results are identical at any job count.
  StateBoundReport verify_bounded_state(const pipeline::Pipeline& pl,
                                        const InputPredicate& predicate,
                                        const StateBoundSpec& spec);

  // Enumerates every composed end-to-end path (Step 2's stitched view of
  // the pipeline) without deciding any property. Exact loop handling
  // (unroll fallback) is used so constraints partition the input space.
  ComposedPaths enumerate_paths(const pipeline::Pipeline& pl);

  // Summaries survive across calls — verifying many pipelines built from
  // the same element library reuses Step 1 work (the app-market use case).
  // The cache is thread-safe; workers of the parallel engine share it.
  symbex::SharedSummaryCache& cache();
  solver::Solver& solver();

  const DecomposedConfig& config() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace vsd::verify
