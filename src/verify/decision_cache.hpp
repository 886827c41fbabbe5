// The verifier-side seam for the persistent cross-run decision cache.
//
// The engine never touches disk itself: DecomposedConfig carries a pointer
// to this interface and cache::VerdictCache (src/cache/) implements it over
// the content-addressed store. Keys are 128-bit run-stable fingerprints the
// engine computes from the stitched material (cache/fingerprint.hpp);
// everything a decision's outcome depends on — the constraint structure,
// the KV-read element programs, the property/config scalars, the packet
// length — is folded into the key, and the engine version lives in the
// store's framing. Soundness stance: a cached Unsat may skip the solver
// (infeasible stays infeasible under an identical key); a Sat suspect is
// always re-decided when counterexample bytes are needed, except refine
// outcomes, which persist their certified counterexample verbatim.
//
// Implementations must be thread-safe: parallel workers consult the cache
// concurrently.
#pragma once

#include <cstdint>

#include "solver/solver.hpp"
#include "verify/report.hpp"

namespace vsd::verify {

// Extends the solver's FeasibilityMemo seam: the engine hands the same
// cache object to each Solver (so summarization-time fork checks and the
// instruction bound's feasibility speculation memoize across runs) and
// consults it directly for its own stitched-suspect and refine decisions. lookup_decision/store_decision — the feasibility of one
// constraint, with Unknown never stored — are inherited.
class PathDecisionCache : public solver::FeasibilityMemo {
 public:
  ~PathDecisionCache() override = default;

  // Outcome of a whole per-path unroll refinement: Unsat (trace
  // eliminated) or Sat with the certified counterexample.
  virtual bool lookup_refine(uint64_t hi, uint64_t lo, bool* sat,
                             Counterexample* ce) = 0;
  virtual void store_refine(uint64_t hi, uint64_t lo, bool sat,
                            const Counterexample& ce) = 0;
};

}  // namespace vsd::verify
