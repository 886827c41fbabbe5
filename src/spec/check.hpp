// vspec batch checker: runs every assertion of a spec against the
// decomposed verifier (sharing element summaries across assertions) and
// replays each counterexample under the concrete interpreter so a FAIL
// always comes with a demonstrated violation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spec/ast.hpp"
#include "verify/report.hpp"

namespace vsd::cache {
class VerdictCache;  // cache/verdict_cache.hpp
}
namespace vsd::verify {
struct SummaryCaches;  // verify/decomposed.hpp
}

namespace vsd::spec {

struct CheckOptions {
  // Worker threads for the verifier (0 = one per hardware thread).
  // Verdicts and counterexamples are identical at any job count.
  size_t jobs = 1;
  // Incremental assumption-based solving (see DecomposedConfig::incremental).
  bool incremental = true;
  // Persistent cross-run verdict cache (vsd serve / --cache-dir). Consulted
  // at two granularities: whole AssertionOutcomes (a warm resubmission of
  // an unchanged assertion skips verification entirely) and, through the
  // verifier, individual stitched decisions and refinements (so changing
  // one element still reuses every decision the change does not reach).
  // Unknown outcomes are never cached. nullptr = off. Not owned.
  cache::VerdictCache* cache = nullptr;
  // Shared in-memory Step-1 summary caches (the serve daemon keeps these
  // warm across requests). nullptr = per-call private caches. Not owned.
  verify::SummaryCaches* shared_caches = nullptr;
};

struct AssertionOutcome {
  std::string text;  // "assert never(drop) when ..." as written
  bool passed = false;
  verify::Verdict verdict = verify::Verdict::Unknown;
  std::string detail;  // one-line extra info (bounds, unknown reason)
  std::vector<verify::Counterexample> counterexamples;
  // Per-counterexample concrete replay description ("dropped at
  // [IPLookup]"), parallel to `counterexamples`.
  std::vector<std::string> replays;
  // True when every replay reproduced the claimed violation (stateful
  // violations that need a prior packet sequence are noted, not replayed).
  bool replays_confirm = true;
  uint64_t max_instructions = 0;  // InstructionBound
  // Verification statistics of the underlying property call (solver-layer
  // totals included) — what `vsd check --stats` prints.
  verify::VerifyStats stats;
  double seconds = 0.0;
};

struct CheckReport {
  std::vector<AssertionOutcome> outcomes;
  size_t passed = 0;
  bool ok = false;  // every assertion passed
  // Whole-assertion verdict-cache traffic for this call (both zero when
  // CheckOptions::cache is unset). Decision-level hits appear in each
  // outcome's stats instead.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

// Runs all assertions of a parsed+checked spec. Throws SpecError only for
// defects the parser's checker already rejects (e.g. a spec handed over
// without parse_spec).
CheckReport check_spec(const SpecFile& spec, const CheckOptions& opts = {});

}  // namespace vsd::spec
