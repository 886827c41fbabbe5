#include "spec/check.hpp"

#include "cache/fingerprint.hpp"
#include "cache/verdict_cache.hpp"
#include "elements/registry.hpp"
#include "obs/trace.hpp"
#include "spec/compile.hpp"
#include "verify/decomposed.hpp"

namespace vsd::spec {

namespace {

using verify::Verdict;

// Concrete replay of one counterexample packet through a fresh pipeline
// instance (elements carry mutable private state, so the replay never
// touches the instance used elsewhere). Returns a one-line description and
// whether the outcome reproduces a violation of assertion `a`.
std::string replay_counterexample(const SpecFile& spec, const Assertion& a,
                                  const verify::Counterexample& ce,
                                  bool* confirms) {
  if (ce.requires_sequence) {
    // The violation needs private state built by a prior packet sequence; a
    // single-packet replay cannot reproduce it. The bad-value analysis
    // already certified a feasible write history.
    *confirms = true;
    return "not single-packet replayable: " + ce.state_note;
  }
  pipeline::Pipeline pl = elements::parse_pipeline(spec.pipeline_config);
  net::Packet p = ce.packet;
  const pipeline::PipelineResult r = pl.process(p);
  const std::string where = pl.element(r.exit_element).name();
  std::string desc;
  bool is_violation = false;
  switch (r.action) {
    case pipeline::FinalAction::Delivered:
      desc = "delivered via output " + std::to_string(r.exit_port) + " at [" +
             where + "]";
      is_violation = a.prop == PropKind::Reachable && r.exit_port != a.port;
      break;
    case pipeline::FinalAction::Dropped:
      desc = "dropped at [" + where + "]";
      is_violation =
          a.prop == PropKind::NeverDrop || a.prop == PropKind::Reachable;
      break;
    case pipeline::FinalAction::Trapped:
      desc = std::string("trapped (") + ir::trap_name(r.trap) + ") at [" +
             where + "]";
      is_violation = true;  // a trap violates every property here
      break;
  }
  *confirms = is_violation;
  return "replay: " + desc;
}

verify::TerminalSpec terminal_spec_for(const Assertion& a) {
  verify::TerminalSpec t;
  switch (a.prop) {
    case PropKind::CrashFree:  // predicated crash freedom: traps only
      t.drop_is_violation = false;
      t.trap_is_violation = true;
      break;
    case PropKind::NeverDrop:  // drops and traps both lose the packet
      break;
    case PropKind::Reachable:
      t.required_exit_port = a.port;
      break;
    case PropKind::InstructionBound:
    case PropKind::BoundedState:
    case PropKind::FlowOccupancy:
      break;  // not driven through verify_reach_never
  }
  return t;
}

AssertionOutcome run_bounded_state(const Assertion& a,
                                   const pipeline::Pipeline& pl,
                                   verify::DecomposedVerifier& verifier,
                                   const verify::InputPredicate& pred) {
  AssertionOutcome out;
  out.text = a.text;
  verify::StateBoundSpec sb;
  sb.bound = a.bound;
  if (a.prop == PropKind::FlowOccupancy) sb.element = a.elem;
  const verify::StateBoundReport r =
      verifier.verify_bounded_state(pl, pred, sb);
  out.verdict = r.verdict;
  out.seconds = r.seconds;
  out.stats = r.stats;
  out.passed = r.verdict == Verdict::Proven;
  if (r.verdict == Verdict::Proven) {
    out.detail = "max occupancy " + std::to_string(r.occupancy) +
                 " (all insertable keys enumerated) vs " +
                 std::to_string(a.bound);
    return out;
  }
  if (r.verdict == Verdict::Unknown) {
    out.detail = r.sequence_uncertified
                     ? "occupancy exceeded the bound symbolically but the "
                       "sequence failed concrete replay (over-approximation "
                       "artifact)"
                     : "could not bound occupancy (key-enumeration or path "
                       "budget exhausted)";
    return out;
  }
  // Violated: the packet sequence is the counterexample; certify it with
  // the verifier's own sequence-replay semantics (scratch state — the
  // checker's pipeline instance stays pristine).
  const size_t n = r.packet_sequence.size();
  const uint64_t achieved = verify::replay_sequence_occupancy(
      pl, r.packet_sequence,
      a.prop == PropKind::FlowOccupancy ? a.elem : std::string());
  std::string where = a.prop == PropKind::FlowOccupancy
                          ? a.elem
                          : std::string("the pipeline");
  for (size_t i = 0; i < n; ++i) {
    verify::Counterexample ce;
    ce.packet = r.packet_sequence[i];
    out.counterexamples.push_back(std::move(ce));
    if (i + 1 < n) {
      out.replays.push_back("sequence packet " + std::to_string(i + 1) +
                            "/" + std::to_string(n));
    }
  }
  out.replays.push_back(
      "replay: injecting all " + std::to_string(n) + " packets drives " +
      where + " to " + std::to_string(achieved) + " live entries (bound " +
      std::to_string(a.bound) + ")");
  out.replays_confirm = achieved > a.bound;
  out.detail = "occupancy reaches " + std::to_string(r.occupancy) + " vs " +
               std::to_string(a.bound);
  return out;
}

// Key for a whole-assertion cache entry: the pipeline's structural hash,
// the packet geometry, and the assertion's semantic content with `let`
// references inlined — NOT its source text, so reformatting a spec (or
// renaming a let) still hits. Budgets and job/incremental settings are
// excluded: check_spec runs the verifier's default (count-based) budgets,
// and the remaining knobs are verdict-invariant by design. Engine semantic
// changes invalidate through the store's engine-version framing.
cache::Fingerprint assertion_fingerprint(const SpecFile& spec,
                                         const Assertion& a,
                                         const pipeline::Pipeline& pl) {
  cache::Fingerprint fp;
  fp.mix(0xa55e27104full);  // domain tag: whole-assertion entries
  cache::mix_pipeline(&fp, pl);
  fp.mix(spec.packet_len);
  fp.mix(spec.ip_offset);
  fp.mix(static_cast<uint64_t>(a.prop));
  fp.mix(a.bound);
  fp.mix(a.port);
  fp.mix(a.elem);
  fp.mix(a.when ? 1 : 0);
  if (a.when) cache::mix_pred(&fp, spec, *a.when);
  return fp;
}

AssertionOutcome run_assertion(const SpecFile& spec, const Assertion& a,
                               const pipeline::Pipeline& pl,
                               verify::DecomposedVerifier& verifier) {
  AssertionOutcome out;
  out.text = a.text;

  if (a.prop == PropKind::InstructionBound) {
    const verify::InstructionBoundReport r =
        verifier.verify_instruction_bound(pl);
    out.verdict = r.verdict;
    out.seconds = r.seconds;
    out.stats = r.stats;
    out.max_instructions = r.max_instructions;
    if (r.verdict != Verdict::Proven) {
      out.passed = false;
      out.detail = "could not bound the instruction count (budget "
                   "exhausted?)";
      return out;
    }
    out.passed = r.max_instructions <= a.bound;
    out.detail = "max " + std::to_string(r.max_instructions) +
                 (r.bound_is_exact ? " (exact)" : " (upper bound)") + " vs " +
                 std::to_string(a.bound);
    if (!out.passed && r.witness) {
      verify::Counterexample ce;
      ce.packet = *r.witness;
      out.counterexamples.push_back(std::move(ce));
      out.replays.push_back(
          "replay: witness executes " +
          std::to_string(r.witness_instructions) + " instructions");
      out.replays_confirm = r.witness_instructions > a.bound ||
                            !r.bound_is_exact;
    }
    return out;
  }

  const verify::InputPredicate pred = a.when
      ? verify::InputPredicate([&spec, &a](const symbex::SymPacket& p) {
          return compile_pred(spec, *a.when, p);
        })
      : verify::InputPredicate(
            [](const symbex::SymPacket&) { return bv::mk_bool(true); });

  // A `when` predicate no packet can satisfy makes the assertion vacuously
  // true — a typo'd contradiction must not masquerade as a real proof, so
  // say so (and skip the pointless walk).
  if (a.when) {
    const symbex::SymPacket entry =
        symbex::SymPacket::symbolic(spec.packet_len, "in");
    if (verifier.solver().is_unsat(compile_pred(spec, *a.when, entry))) {
      out.passed = true;
      out.verdict = Verdict::Proven;
      out.detail = "VACUOUS: no packet satisfies the 'when' predicate";
      return out;
    }
  }

  if (a.prop == PropKind::BoundedState || a.prop == PropKind::FlowOccupancy) {
    return run_bounded_state(a, pl, verifier, pred);
  }

  verify::ReachabilityReport r;
  if (a.prop == PropKind::CrashFree && !a.when) {
    const verify::CrashFreedomReport cr = verifier.verify_crash_freedom(pl);
    r.verdict = cr.verdict;
    r.counterexamples = cr.counterexamples;
    r.seconds = cr.seconds;
    r.stats = cr.stats;
  } else {
    r = verifier.verify_reach_never(pl, pred, terminal_spec_for(a));
  }
  out.verdict = r.verdict;
  out.seconds = r.seconds;
  out.stats = r.stats;
  out.passed = r.verdict == Verdict::Proven;
  if (r.verdict == Verdict::Unknown) {
    out.detail = a.prop == PropKind::Reachable
                     ? "could not decide exactly (a summarized loop "
                       "obscured a suspect exit, or a budget was exhausted)"
                     : "verification did not complete (budget exhausted)";
  }
  out.counterexamples = std::move(r.counterexamples);
  for (const verify::Counterexample& ce : out.counterexamples) {
    bool confirms = false;
    out.replays.push_back(replay_counterexample(spec, a, ce, &confirms));
    out.replays_confirm = out.replays_confirm && confirms;
  }
  return out;
}

}  // namespace

CheckReport check_spec(const SpecFile& spec, const CheckOptions& opts) {
  // One pipeline instance for all verification calls (the verifiers only
  // read it; replays build their own) and one verifier so Step-1 element
  // summaries are shared across assertions.
  const pipeline::Pipeline pl =
      elements::parse_pipeline(spec.pipeline_config);
  verify::DecomposedConfig cfg;
  cfg.packet_len = spec.packet_len;
  cfg.jobs = opts.jobs;
  cfg.incremental = opts.incremental;
  cfg.decision_cache = opts.cache;
  cfg.shared_caches = opts.shared_caches;
  verify::DecomposedVerifier verifier(cfg);

  CheckReport report;
  for (const Assertion& a : spec.assertions) {
    obs::ScopedSpan sp(obs::Cat::Phase, "assertion");
    if (sp) sp.arg("assert", a.text);
    AssertionOutcome out;
    if (opts.cache != nullptr) {
      const cache::Fingerprint fp = assertion_fingerprint(spec, a, pl);
      if (opts.cache->lookup_assertion(fp.hi(), fp.lo(), &out)) {
        // The key hashes semantics, not source text: report this spec's
        // own wording, everything else verbatim from the cache.
        out.text = a.text;
        ++report.cache_hits;
      } else {
        out = run_assertion(spec, a, pl, verifier);
        // Unknown is budget-shaped, not a verdict — never persisted.
        if (out.verdict != Verdict::Unknown) {
          opts.cache->store_assertion(fp.hi(), fp.lo(), out);
        }
        ++report.cache_misses;
      }
    } else {
      out = run_assertion(spec, a, pl, verifier);
    }
    report.outcomes.push_back(std::move(out));
    if (sp) {
      sp.arg("verdict", verify::verdict_name(report.outcomes.back().verdict));
      obs::count("check.assertions");
    }
    if (report.outcomes.back().passed) ++report.passed;
  }
  report.ok = report.passed == report.outcomes.size();
  return report;
}

}  // namespace vsd::spec
