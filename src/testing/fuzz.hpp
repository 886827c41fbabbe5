// The differential fuzzing harness: the repo's permanent soundness
// watchdog (vsd fuzz).
//
// The paper's value proposition is that a Proven verdict can be trusted —
// a pipeline verified crash-free must never crash on any concrete packet.
// This harness attacks that claim from the concrete side: for every
// seed-generated pipeline it runs the decomposed verifier (crash_free,
// never(drop), reachable(output 0), bounded_state) and then hammers the
// concrete interpreter with adversarial packets and packet sequences. Any
// divergence between proof and execution is a harness FAIL:
//
//   trap-on-proven              concrete trap on a crash-free-Proven
//                               pipeline (at the proven packet length)
//   drop-on-proven-never        wellformed packet dropped/trapped although
//                               never(drop) was Proven for wellformed
//   wrong-exit-on-proven-reach  wellformed packet missed the proven exit
//   occupancy-exceeds-proven    a replayed sequence drove live private
//                               state past the Proven exact occupancy
//   unreplayable-counterexample a Violated verdict whose counterexample
//                               does not reproduce under concrete replay
//   state-sequence-unreplayable a Violated occupancy sequence that fails
//                               concrete replay
//   cross-check-mismatch        incremental vs --one-shot, or jobs 1 vs 8,
//                               disagree on verdict or counterexample bytes
//   cache-verdict-mismatch      a --cache-dir run (cold, filling the cache,
//                               or warm, reusing it) disagrees with the
//                               cache-less verdict or counterexample bytes
//   compiled-interp-mismatch    the threaded-code engine (backend/) and the
//                               interpreter diverge on any driven packet —
//                               result, packet bytes/meta, instruction
//                               count, or private KV state
//
// Failed repros are auto-shrunk (sequence- then byte-minimized, see
// shrink.hpp) and dumped as a .vspec + packet hexdump artifact pair.
// Everything is reproducible from the seed alone: no wall clock, no
// global state, deterministic at any --jobs value. Every verifier the
// harness builds runs the full solver ladder, query avoidance included;
// that avoidance never changes a verdict or counterexample byte is pinned
// by tab10's on/off matrix and the solver tests, not by a harness switch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "testing/generate.hpp"
#include "verify/report.hpp"

namespace vsd::fuzz {

struct FuzzConfig {
  uint64_t seed = 1;
  size_t pipelines = 10;
  // Concrete packets driven per pipeline at the proven length (a quarter
  // as many again in the runt-length group).
  size_t packets = 100;
  // Stateful packet sequences per pipeline, and their length.
  size_t sequences = 4;
  size_t sequence_len = 6;
  // Occupancy bound handed to verify_bounded_state.
  uint64_t state_bound = 2;
  // Verifier worker threads (verdicts are jobs-independent; the report is
  // byte-identical at any value).
  size_t jobs = 1;
  // Cross-check incremental-vs-one-shot and jobs{1,8} verdict equality on
  // the crash-freedom property of every generated pipeline.
  bool cross_check = true;
  // Concrete-engine kill switch (`vsd fuzz --no-compiled`): when false the
  // whole run executes on the interpreter and the lockstep engine oracle is
  // off; when true (default) every driven packet also runs on an
  // interpreter-pinned reference pipeline and any divergence is a
  // compiled-interp-mismatch FAIL.
  bool compiled = true;
  GenOptions gen;
  // Persistent verdict-cache oracle: when set, every pipeline's
  // crash-freedom property is re-verified twice against one shared
  // --cache-dir cache (cold = filling it, warm = reusing it) and compared
  // byte-for-byte with the cache-less report. Empty disables the oracle.
  std::string cache_dir;
  // Where FAIL artifacts are written; empty disables artifact files (the
  // repro still lives in the report).
  std::string artifact_dir;
};

struct FuzzFailure {
  std::string kind;      // one of the kinds listed in the header comment
  std::string config;    // the pipeline, registry config syntax
  size_t packet_len = 0;
  size_t ip_offset = 0;
  size_t pipeline_index = 0;  // which generated pipeline (0-based)
  std::string detail;         // one-line human explanation
  // Shrunk repro: the minimal packet sequence (size 1 unless private state
  // is load-bearing) that still reproduces the divergence.
  std::vector<net::Packet> repro;
  // The .vspec repro spec (also written to artifact_dir when set).
  std::string vspec;
  std::string artifact_path;  // empty when artifacts are disabled
};

// Per-pipeline record of what was proven and what was driven.
struct PipelineOutcome {
  std::string config;
  size_t packet_len = 0;
  size_t ip_offset = 0;
  verify::Verdict crash = verify::Verdict::Unknown;
  verify::Verdict crash_runt = verify::Verdict::Unknown;
  verify::Verdict never_drop = verify::Verdict::Unknown;
  verify::Verdict reach = verify::Verdict::Unknown;
  verify::Verdict state = verify::Verdict::Unknown;
  uint64_t proven_occupancy = 0;  // valid when state == Proven
  size_t packets_driven = 0;
  size_t sequences_driven = 0;
  size_t traps = 0, drops = 0, delivered = 0;
  // Driven packets matching the wellformed oracle predicate. Zero on a
  // pipeline whose never(drop)/reachable verdict is Proven means those
  // oracles were vacuous for this pipeline — visible in the summary so
  // silent coverage gaps can be spotted.
  size_t wf_matches = 0;
};

struct FuzzReport {
  uint64_t seed = 0;
  std::vector<PipelineOutcome> outcomes;
  std::vector<FuzzFailure> failures;

  bool ok() const { return failures.empty(); }
  // Deterministic multi-line serialization (no timing, no paths): two runs
  // with the same config produce byte-identical summaries — the
  // reproducibility tests diff exactly this.
  std::string summary() const;
};

// Runs the whole harness. Deterministic in `cfg`.
FuzzReport run_fuzz(const FuzzConfig& cfg);

}  // namespace vsd::fuzz
