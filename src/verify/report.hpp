// Verification verdicts and reports.
//
// Every proof attempt ends in one of three ways, mirroring §1: the property
// is Proven for all packet sequences; it is Violated and we hold a concrete
// counterexample packet (plus, for stateful violations, a note that a
// packet *sequence* is needed to build the private state); or the result is
// Unknown because an exploration budget was exhausted (the honest outcome
// the monolithic baseline hits on long pipelines).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/ir.hpp"
#include "net/packet.hpp"

namespace vsd::verify {

enum class Verdict : uint8_t { Proven, Violated, Unknown };

const char* verdict_name(Verdict v);

struct Counterexample {
  net::Packet packet;  // concrete input that triggers the violation
  std::vector<std::string> element_path;  // element names traversed
  ir::TrapKind trap = ir::TrapKind::Unreachable;
  // Extra context for reports (KV bad-value analysis, unroll refinement).
  std::string state_note;
  // True when the violation additionally depends on private state reachable
  // only through a prior packet sequence (KV bad-value analysis): a
  // single-packet replay cannot reproduce it. False counterexamples replay
  // concretely as-is.
  bool requires_sequence = false;
};

struct VerifyStats {
  size_t elements_summarized = 0;
  size_t summary_cache_hits = 0;
  uint64_t segments_total = 0;
  uint64_t suspects_found = 0;         // Step 1 conservative tags
  uint64_t suspects_eliminated = 0;    // killed by Step 2 composition
  uint64_t composed_paths_checked = 0; // stitched paths examined in Step 2
  uint64_t solver_queries = 0;
  uint64_t instructions_interpreted = 0;
  uint64_t forks = 0;
  // Per-path unroll refinement (reach/never across summarized loops):
  // attempts, suspects certified Violated, suspects eliminated (proved
  // infeasible once the loop was concretely unrolled).
  uint64_t refinements_attempted = 0;
  uint64_t refinements_certified = 0;
  uint64_t refinements_eliminated = 0;
  // Solver-layer totals for this call, aggregated across every worker's
  // solver. sat_conflicts /
  // sat_decisions span one-shot and incremental solves alike, so they are
  // directly comparable across DecomposedConfig::incremental settings —
  // the tab9 bench and the CI perf-smoke assert on exactly these.
  uint64_t sat_conflicts = 0;
  uint64_t sat_decisions = 0;
  uint64_t blast_nodes = 0;
  uint64_t solver_cache_hits = 0;
  // Incremental decision layer: contexts opened, check_assuming() solves,
  // conjuncts reused from a live blast cache, and learnt clauses that were
  // already present when a query started (retained work). Tests assert
  // reuse happened by checking these are non-zero.
  uint64_t contexts_opened = 0;
  uint64_t incremental_queries = 0;
  uint64_t assumption_reuses = 0;
  uint64_t learnt_retained = 0;
  // Query-avoidance layers (see docs/architecture.md "Query avoidance").
  // sat_solves is the headline count: queries that actually reached the
  // CDCL core (one-shot blasts + incremental assumption solves) — what the
  // tab10 bench A/Bs. The remaining counters attribute the avoided work to
  // its layer.
  uint64_t sat_solves = 0;
  uint64_t rewrites_applied = 0;        // queries changed by normalization
  uint64_t rewrite_decided = 0;         // decided cheaply on rewritten form
  uint64_t slice_decided = 0;           // decided via independent components
  uint64_t cex_cache_hits = 0;          // Sat proven by replaying a model
  uint64_t core_discharges = 0;         // Unsat via recorded-core subsumption
  uint64_t suspects_core_discharged = 0;  // stitched suspects killed by a core
  uint64_t learnt_gc_runs = 0;
  uint64_t learnt_gc_removed = 0;
  // Persistent cross-run verdict cache (vsd serve / --cache-dir): stitched
  // decisions and whole refinements answered from the cache without any
  // solving. Zero unless DecomposedConfig::decision_cache is set.
  uint64_t decision_cache_hits = 0;
  uint64_t refine_cache_hits = 0;

  // Field-wise sum: how per-worker blocks merge into one call's totals. A
  // new counter must be added here too, or it merges as 0.
  VerifyStats& operator+=(const VerifyStats& o) {
    elements_summarized += o.elements_summarized;
    summary_cache_hits += o.summary_cache_hits;
    segments_total += o.segments_total;
    suspects_found += o.suspects_found;
    suspects_eliminated += o.suspects_eliminated;
    composed_paths_checked += o.composed_paths_checked;
    solver_queries += o.solver_queries;
    instructions_interpreted += o.instructions_interpreted;
    forks += o.forks;
    refinements_attempted += o.refinements_attempted;
    refinements_certified += o.refinements_certified;
    refinements_eliminated += o.refinements_eliminated;
    sat_conflicts += o.sat_conflicts;
    sat_decisions += o.sat_decisions;
    blast_nodes += o.blast_nodes;
    solver_cache_hits += o.solver_cache_hits;
    contexts_opened += o.contexts_opened;
    incremental_queries += o.incremental_queries;
    assumption_reuses += o.assumption_reuses;
    learnt_retained += o.learnt_retained;
    sat_solves += o.sat_solves;
    rewrites_applied += o.rewrites_applied;
    rewrite_decided += o.rewrite_decided;
    slice_decided += o.slice_decided;
    cex_cache_hits += o.cex_cache_hits;
    core_discharges += o.core_discharges;
    suspects_core_discharged += o.suspects_core_discharged;
    learnt_gc_runs += o.learnt_gc_runs;
    learnt_gc_removed += o.learnt_gc_removed;
    decision_cache_hits += o.decision_cache_hits;
    refine_cache_hits += o.refine_cache_hits;
    return *this;
  }
};

struct CrashFreedomReport {
  Verdict verdict = Verdict::Unknown;
  std::vector<Counterexample> counterexamples;
  VerifyStats stats;
  double seconds = 0.0;
};

struct InstructionBoundReport {
  Verdict verdict = Verdict::Unknown;  // Proven: bound holds for all inputs
  uint64_t max_instructions = 0;
  // True when every composed path had an exact count (no summarized loop
  // contributed an upper bound instead of an exact value).
  bool bound_is_exact = true;
  // A packet driving execution down the most expensive feasible path, plus
  // the instruction count it concretely achieves.
  std::optional<net::Packet> witness;
  uint64_t witness_instructions = 0;
  VerifyStats stats;
  double seconds = 0.0;
};

struct ReachabilityReport {
  Verdict verdict = Verdict::Unknown;  // Proven: no matching packet dropped
  std::vector<Counterexample> counterexamples;
  VerifyStats stats;
  double seconds = 0.0;
};

// --- Bounded state / flow-table occupancy ------------------------------------

// Occupancy of one KV table of one pipeline element instance: how many
// distinct keys the adversary (any sequence of matching input packets) can
// make it hold.
struct TableOccupancy {
  size_t element = 0;          // pipeline element index
  std::string element_name;
  std::string table_name;
  uint64_t keys_found = 0;     // distinct feasible keys enumerated
  // True when enumeration exhausted the table (solver returned Unsat with
  // all found keys blocked): keys_found is then the table's exact maximum
  // occupancy. False when the bound was exceeded first or a budget ran out.
  bool exhausted = false;
};

struct StateBoundReport {
  // Proven: no packet sequence (each packet satisfying the input
  // predicate) drives total occupancy past the bound. Violated: the
  // packet_sequence below concretely inserts bound+1 distinct entries.
  Verdict verdict = Verdict::Unknown;
  uint64_t bound = 0;
  // Proven: the exact number of distinct insertable (table, key) entries —
  // a tight upper bound on simultaneous occupancy (exact unless an insert
  // segment also evicts other keys). Violated: the number of distinct
  // entries demonstrated (bound + 1).
  uint64_t occupancy = 0;
  std::vector<TableOccupancy> tables;
  // Violated only: concrete input packets, in injection order; each inserts
  // a distinct entry into one of the counted tables.
  std::vector<net::Packet> packet_sequence;
  // Unknown only: true when the bound was exceeded symbolically but the
  // packet sequence failed to reproduce it on concrete replay (a stitched
  // over-approximation artifact) — as opposed to a budget running out.
  bool sequence_uncertified = false;
  VerifyStats stats;
  double seconds = 0.0;
};

}  // namespace vsd::verify
