#include "testing/fuzz.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include <memory>

#include "backend/compiled.hpp"
#include "bv/analysis.hpp"
#include "cache/verdict_cache.hpp"
#include "elements/registry.hpp"
#include "obs/trace.hpp"
#include "pipeline/pipeline.hpp"
#include "symbex/sym_packet.hpp"
#include "testing/shrink.hpp"
#include "verify/decomposed.hpp"
#include "verify/predicates.hpp"

namespace vsd::fuzz {

namespace {

using verify::Verdict;

// Destination address the reachability oracles pin (10.0.0.2 — inside the
// generator's 10/8 route pool and its default shaped-packet destination).
// An unpinned `wellformed` predicate makes the Violated search explode on
// stateful chains; pinning the destination is also exactly the paper's §1
// property shape ("any packet with destination IP X ...").
constexpr uint32_t kPinnedDst = 0x0a000002;

// The input predicate of the never(drop)/reachable oracles: wellformed
// (anchored exactly like the vspec builtin — Ethernet-framed pipelines get
// the EtherType clause, decapsulated ones the bare structural clauses) and
// destined to kPinnedDst.
bv::ExprRef wellformed_at(const symbex::SymPacket& p, size_t ip_offset) {
  const bv::ExprRef wf =
      ip_offset >= net::kEtherHeaderSize
          ? verify::wellformed_ipv4(p, ip_offset - net::kEtherHeaderSize)
          : verify::wellformed_ipv4_at(p, ip_offset);
  return verify::both(wf, verify::dst_ip_is(p, kPinnedDst, ip_offset));
}

// Evaluates the symbolic wellformed predicate on a concrete packet — the
// SAME formula the verifier proved, so the oracle and the proof can never
// drift apart on what "wellformed" means.
class ConcretePred {
 public:
  ConcretePred(size_t len, size_t ip_offset)
      : entry_(symbex::SymPacket::symbolic(len, "fz")),
        wf_(wellformed_at(entry_, ip_offset)) {}

  bool matches(const net::Packet& p) const {
    bv::Assignment a;
    const auto& bytes = entry_.input_byte_vars();
    for (size_t i = 0; i < bytes.size(); ++i) {
      a.emplace(bytes[i]->var_id(), i < p.size() ? p[i] : 0);
    }
    const auto& meta = entry_.input_meta_vars();
    for (size_t i = 0; i < meta.size(); ++i) {
      a.emplace(meta[i]->var_id(), p.meta(i));
    }
    return bv::evaluate(wf_, a) == 1;
  }

 private:
  symbex::SymPacket entry_;
  bv::ExprRef wf_;
};

// Replays a sequence on a freshly parsed pipeline instance (private state
// persists across the sequence, never leaks outside the call).
struct SeqReplay {
  bool any_trap = false;
  bool any_wf_lost = false;       // wellformed packet dropped or trapped
  bool any_wf_missed_port0 = false;  // wellformed packet not delivered at 0
};

SeqReplay replay_sequence(const std::string& config,
                          const std::vector<net::Packet>& seq,
                          const ConcretePred* wf) {
  pipeline::Pipeline pl = elements::parse_pipeline(config);
  SeqReplay out;
  for (const net::Packet& input : seq) {
    net::Packet p = input;
    const bool is_wf = wf != nullptr && wf->matches(input);
    const pipeline::PipelineResult r = pl.process(p);
    if (r.action == pipeline::FinalAction::Trapped) out.any_trap = true;
    if (is_wf && r.action != pipeline::FinalAction::Delivered) {
      out.any_wf_lost = true;
    }
    if (is_wf && !(r.action == pipeline::FinalAction::Delivered &&
                   r.exit_port == 0)) {
      out.any_wf_missed_port0 = true;
    }
  }
  return out;
}

// One lockstep comparison of the two engines after processing the same
// input: the pipeline results, the mutated packets, and every element's
// private KV state must be bit-identical. Returns a one-line description
// of the first divergence, empty when the engines agree. (KV maps are
// canonical — zero writes erase — so map equality is state equality.)
std::string engine_divergence(const pipeline::PipelineResult& rc,
                              const pipeline::PipelineResult& ri,
                              const net::Packet& pc, const net::Packet& pi,
                              const pipeline::Pipeline& plc,
                              const pipeline::Pipeline& pli) {
  const auto names = [](const char* what) { return std::string(what); };
  if (rc.action != ri.action) return names("final action differs");
  if (rc.exit_element != ri.exit_element) return names("exit element differs");
  if (rc.action == pipeline::FinalAction::Delivered &&
      rc.exit_port != ri.exit_port) {
    return names("exit port differs");
  }
  if (rc.action == pipeline::FinalAction::Trapped && rc.trap != ri.trap) {
    return std::string("trap kind differs: compiled ") +
           ir::trap_name(rc.trap) + " vs interp " + ir::trap_name(ri.trap);
  }
  if (rc.instructions != ri.instructions) {
    return "instruction count differs: compiled " +
           std::to_string(rc.instructions) + " vs interp " +
           std::to_string(ri.instructions);
  }
  if (pc.bytes().size() != pi.bytes().size() ||
      !std::equal(pc.bytes().begin(), pc.bytes().end(), pi.bytes().begin())) {
    return names("packet bytes differ");
  }
  if (pc.all_meta() != pi.all_meta()) return names("packet meta differs");
  for (size_t e = 0; e < plc.size(); ++e) {
    const interp::KvState& kc = plc.element(e).kv();
    const interp::KvState& ki = pli.element(e).kv();
    for (size_t t = 0; t < kc.num_tables(); ++t) {
      const auto tid = static_cast<ir::TableId>(t);
      if (kc.entries(tid) != ki.entries(tid)) {
        return "KV state differs at [" + plc.element(e).name() + "] table " +
               std::to_string(t);
      }
    }
  }
  return "";
}

// Replays a sequence on fresh compiled- and interpreter-pinned pipeline
// instances; true when any packet diverges (the shrink predicate of
// compiled-interp-mismatch).
bool replay_diverges(const std::string& config,
                     const std::vector<net::Packet>& seq) {
  pipeline::Pipeline plc = elements::parse_pipeline(config);
  pipeline::Pipeline pli = elements::parse_pipeline(config);
  plc.set_engine(pipeline::Engine::Compiled);
  pli.set_engine(pipeline::Engine::Interp);
  for (const net::Packet& input : seq) {
    net::Packet a = input;
    net::Packet b = input;
    const pipeline::PipelineResult rc = plc.process(a);
    const pipeline::PipelineResult ri = pli.process(b);
    if (!engine_divergence(rc, ri, a, b, plc, pli).empty()) return true;
  }
  return false;
}

std::string hex_all(const net::Packet& p) {
  std::ostringstream os;
  os << p.hex(p.size() == 0 ? 1 : p.size());
  bool any_meta = false;
  for (size_t s = 0; s < net::kMetaSlots; ++s) any_meta |= p.meta(s) != 0;
  if (any_meta) {
    os << " | meta";
    for (size_t s = 0; s < net::kMetaSlots; ++s) {
      if (p.meta(s) != 0) os << " " << s << ":" << p.meta(s);
    }
  }
  return os.str();
}

std::string assert_line_for(const std::string& kind, uint64_t state_bound) {
  if (kind == "drop-on-proven-never") {
    return "assert never(drop) when wellformed && ip.dst == 10.0.0.2;";
  }
  if (kind == "wrong-exit-on-proven-reach") {
    return "assert reachable(output 0) when wellformed && "
           "ip.dst == 10.0.0.2;";
  }
  if (kind == "occupancy-exceeds-proven" ||
      kind == "state-sequence-unreplayable") {
    return "assert bounded_state <= " + std::to_string(state_bound) + ";";
  }
  return "assert crash_free;";
}

// One harness run's mutable context.
struct Runner {
  const FuzzConfig& cfg;
  FuzzReport& report;
  net::Rng rng;
  // The soak cache shared by every pipeline of the run (cold hits it with
  // fresh keys, warm re-reads them) — one cache so the oracle also covers
  // cross-pipeline key collisions.
  std::unique_ptr<cache::VerdictCache> cache_;

  Runner(const FuzzConfig& c, FuzzReport& r) : cfg(c), report(r), rng(c.seed) {
    if (!cfg.cache_dir.empty()) {
      cache_ = std::make_unique<cache::VerdictCache>(cfg.cache_dir);
    }
  }

  verify::DecomposedConfig verifier_config(size_t len, size_t jobs,
                                           bool incremental) const {
    verify::DecomposedConfig vc;
    vc.packet_len = len;
    vc.jobs = jobs;
    vc.incremental = incremental;
    // Trimmed budgets: the harness wants throughput over proof power; an
    // Unknown verdict simply yields no oracle for that property.
    vc.max_composed_paths = 1u << 16;
    vc.max_refine_paths = 1u << 10;
    vc.refine_max_solver_checks = 2048;
    vc.max_state_keys = 512;
    return vc;
  }

  // `assert_override`, when non-empty, replaces the kind-derived assertion
  // in the repro spec — used when the failed property is not implied by the
  // kind (an unreplayable CE can come from any property).
  void add_failure(const GeneratedPipeline& gp, size_t index,
                   const std::string& kind, const std::string& detail,
                   std::vector<net::Packet> repro,
                   const std::string& assert_override = "") {
    FuzzFailure f;
    f.kind = kind;
    f.config = gp.config;
    f.packet_len = repro.empty() || repro.front().size() == gp.packet_len
                       ? gp.packet_len
                       : gp.runt_len;
    f.ip_offset = gp.ip_offset;
    f.pipeline_index = index;
    f.detail = detail;
    f.repro = std::move(repro);

    std::ostringstream spec;
    spec << "# vsd fuzz FAIL repro — " << kind << "\n"
         << "# seed " << cfg.seed << ", pipeline #" << index << ": " << detail
         << "\n"
         << "# concrete packets: see the .pkt file next to this spec\n"
         << "pipeline \"" << gp.config << "\";\n"
         << "set packet_len = " << f.packet_len << ";\n"
         << "set ip_offset = " << gp.ip_offset << ";\n"
         << (assert_override.empty() ? assert_line_for(kind, cfg.state_bound)
                                     : assert_override)
         << "\n";
    f.vspec = spec.str();

    if (!cfg.artifact_dir.empty()) {
      namespace fs = std::filesystem;
      fs::create_directories(cfg.artifact_dir);
      // The failure ordinal keeps repeated same-kind failures on one
      // pipeline from overwriting each other's repro files.
      const std::string base = "seed" + std::to_string(cfg.seed) + "_p" +
                               std::to_string(index) + "_f" +
                               std::to_string(report.failures.size()) + "_" +
                               kind;
      const fs::path spec_path = fs::path(cfg.artifact_dir) / (base + ".vspec");
      std::ofstream(spec_path) << f.vspec;
      std::ofstream pkt(fs::path(cfg.artifact_dir) / (base + ".pkt"));
      for (const net::Packet& p : f.repro) pkt << hex_all(p) << "\n";
      f.artifact_path = spec_path.string();
    }
    report.failures.push_back(std::move(f));
  }

  // Flags any divergence between two reports of the same property —
  // verdict, counterexample count, or counterexample packet bytes/meta.
  // Shared by the configuration cross-checks and the persistent-cache
  // oracle (they differ only in the failure kind they raise).
  void check_report_match(const GeneratedPipeline& gp, size_t index,
                          const char* kind, const char* what,
                          const verify::CrashFreedomReport& base,
                          const verify::CrashFreedomReport& other) {
    if (other.verdict != base.verdict) {
      add_failure(gp, index, kind,
                  std::string(what) + ": crash verdict " +
                      verify::verdict_name(other.verdict) + " vs " +
                      verify::verdict_name(base.verdict),
                  {});
      return;
    }
    if (other.counterexamples.size() != base.counterexamples.size()) {
      add_failure(gp, index, kind,
                  std::string(what) + ": counterexample count differs", {});
      return;
    }
    for (size_t i = 0; i < base.counterexamples.size(); ++i) {
      const net::Packet& mine = base.counterexamples[i].packet;
      const net::Packet& theirs = other.counterexamples[i].packet;
      // Meta slots count: annotations are verifier-symbolic, so a
      // meta-only divergence is exactly as much of a determinism
      // regression as a byte divergence.
      const bool equal =
          mine.bytes().size() == theirs.bytes().size() &&
          std::equal(mine.bytes().begin(), mine.bytes().end(),
                     theirs.bytes().begin()) &&
          mine.all_meta() == theirs.all_meta();
      if (!equal) {
        add_failure(gp, index, kind,
                    std::string(what) +
                        ": counterexample packet bytes/meta differ",
                    {mine, theirs});
        return;
      }
    }
  }

  // Replays every single-packet counterexample of a Violated verdict and
  // flags the ones that do not reproduce the claimed violation.
  template <typename IsViolation>
  void check_counterexamples(const GeneratedPipeline& gp, size_t index,
                             const std::vector<verify::Counterexample>& ces,
                             const char* property,
                             const std::string& assert_line,
                             const IsViolation& is_violation) {
    size_t checked = 0;
    for (const verify::Counterexample& ce : ces) {
      if (ce.requires_sequence) continue;  // needs prior state; not replayable
      if (++checked > 3) break;
      pipeline::Pipeline pl = elements::parse_pipeline(gp.config);
      net::Packet p = ce.packet;
      const pipeline::PipelineResult r = pl.process(p);
      if (!is_violation(r)) {
        add_failure(gp, index, "unreplayable-counterexample",
                    std::string(property) +
                        " Violated but the counterexample does not "
                        "reproduce under concrete replay",
                    {ce.packet}, assert_line);
      }
    }
  }

  void fuzz_pipeline(size_t index) {
    const GeneratedPipeline gp = generate_pipeline(rng, cfg.gen);
    obs::ScopedSpan sp(obs::Cat::Oracle, "fuzz_pipeline");
    if (sp) {
      sp.arg("index", std::to_string(index));
      sp.arg("pipeline", gp.config);
      obs::count("fuzz.pipelines");
    }
    PipelineOutcome out;
    out.config = gp.config;
    out.packet_len = gp.packet_len;
    out.ip_offset = gp.ip_offset;

    const ConcretePred wf(gp.packet_len, gp.ip_offset);
    const verify::InputPredicate wf_pred =
        [&gp](const symbex::SymPacket& e) {
          return wellformed_at(e, gp.ip_offset);
        };
    const verify::InputPredicate any_pred = [](const symbex::SymPacket&) {
      return bv::mk_bool(true);
    };

    // --- verify ------------------------------------------------------------
    pipeline::Pipeline pl = elements::parse_pipeline(gp.config);
    verify::DecomposedVerifier verifier(
        verifier_config(gp.packet_len, cfg.jobs, true));
    const verify::CrashFreedomReport crash = verifier.verify_crash_freedom(pl);
    const verify::ReachabilityReport never =
        verifier.verify_reach_never(pl, wf_pred, verify::TerminalSpec{});
    // reachable(output 0)'s bad-terminal set is a superset of never(drop)'s,
    // so a never(drop) violation already decides it — only pay for the
    // separate (wrong-port-emit) walk when never(drop) held.
    verify::ReachabilityReport reach;
    bool reach_inherited = false;
    if (never.verdict == Verdict::Violated) {
      reach.verdict = Verdict::Violated;
      reach_inherited = true;  // CEs already replayed as never(drop)'s
    } else if (never.verdict == Verdict::Proven) {
      verify::TerminalSpec reach_spec;
      reach_spec.required_exit_port = 0;
      reach = verifier.verify_reach_never(pl, wf_pred, reach_spec);
    }
    verify::StateBoundSpec sbs;
    sbs.bound = cfg.state_bound;
    const verify::StateBoundReport state =
        verifier.verify_bounded_state(pl, any_pred, sbs);

    verify::DecomposedVerifier runt_verifier(
        verifier_config(gp.runt_len, cfg.jobs, true));
    const verify::CrashFreedomReport crash_runt =
        runt_verifier.verify_crash_freedom(pl);

    out.crash = crash.verdict;
    out.crash_runt = crash_runt.verdict;
    out.never_drop = never.verdict;
    out.reach = reach.verdict;
    out.state = state.verdict;
    out.proven_occupancy = state.occupancy;

    // --- cross-checks ------------------------------------------------------
    if (cfg.cross_check) {
      verify::DecomposedVerifier one_shot(
          verifier_config(gp.packet_len, cfg.jobs, false));
      check_report_match(gp, index, "cross-check-mismatch",
                         "incremental vs one-shot", crash,
                         one_shot.verify_crash_freedom(pl));
      verify::DecomposedVerifier other_jobs(
          verifier_config(gp.packet_len, cfg.jobs == 1 ? 8 : 1, true));
      check_report_match(gp, index, "cross-check-mismatch", "jobs 1 vs 8",
                         crash, other_jobs.verify_crash_freedom(pl));
    }

    // --- persistent-cache oracle -------------------------------------------
    // The cache-less `crash` report is ground truth; a run that fills the
    // shared cache (cold) and a run that reuses it (warm) must both match
    // it exactly — verdict and counterexample bytes. Any drift means a
    // cached verdict changed an answer.
    if (cache_ != nullptr) {
      verify::DecomposedConfig cached_cfg =
          verifier_config(gp.packet_len, cfg.jobs, true);
      cached_cfg.decision_cache = cache_.get();
      verify::DecomposedVerifier cold(cached_cfg);
      check_report_match(gp, index, "cache-verdict-mismatch",
                         "cache cold vs no-cache", crash,
                         cold.verify_crash_freedom(pl));
      verify::DecomposedVerifier warm(cached_cfg);
      check_report_match(gp, index, "cache-verdict-mismatch",
                         "cache warm vs no-cache", crash,
                         warm.verify_crash_freedom(pl));
    }

    // --- replay Violated counterexamples -----------------------------------
    const auto replays_as_trap = [](const pipeline::PipelineResult& r) {
      return r.action == pipeline::FinalAction::Trapped;
    };
    check_counterexamples(gp, index, crash.counterexamples, "crash_free",
                          "assert crash_free;", replays_as_trap);
    check_counterexamples(gp, index, crash_runt.counterexamples,
                          "crash_free (runt length)", "assert crash_free;",
                          replays_as_trap);
    check_counterexamples(gp, index, never.counterexamples, "never(drop)",
                          assert_line_for("drop-on-proven-never", 0),
                          [](const pipeline::PipelineResult& r) {
                            return r.action != pipeline::FinalAction::Delivered;
                          });
    if (!reach_inherited) {
      check_counterexamples(gp, index, reach.counterexamples,
                            "reachable(output 0)",
                            assert_line_for("wrong-exit-on-proven-reach", 0),
                            [](const pipeline::PipelineResult& r) {
                              return !(r.action ==
                                           pipeline::FinalAction::Delivered &&
                                       r.exit_port == 0);
                            });
    }
    if (state.verdict == Verdict::Violated) {
      const uint64_t achieved =
          verify::replay_sequence_occupancy(pl, state.packet_sequence);
      if (achieved <= cfg.state_bound) {
        add_failure(gp, index, "state-sequence-unreplayable",
                    "bounded_state Violated but the sequence replays to " +
                        std::to_string(achieved) + " <= bound " +
                        std::to_string(cfg.state_bound),
                    state.packet_sequence);
      }
    }

    // --- concrete fuzz drive ------------------------------------------------
    drive_group(gp, index, gp.packet_len, cfg.packets, crash.verdict,
                never.verdict, reach.verdict, &wf, &out);
    drive_group(gp, index, gp.runt_len, cfg.packets / 4 + 1,
                crash_runt.verdict, Verdict::Unknown, Verdict::Unknown,
                nullptr, &out);

    // --- stateful sequences -------------------------------------------------
    for (size_t s = 0; s < cfg.sequences; ++s) {
      const std::vector<net::Packet> seq = generate_sequence(
          rng, cfg.sequence_len, gp.packet_len, gp.ip_offset);
      ++out.sequences_driven;
      if (state.verdict != Verdict::Proven) continue;
      const uint64_t occ = verify::replay_sequence_occupancy(pl, seq);
      if (occ > state.occupancy) {
        const uint64_t proven = state.occupancy;
        const std::string config = gp.config;
        const auto still_fails = [&config,
                                  proven](const std::vector<net::Packet>& c) {
          return verify::replay_sequence_occupancy(
                     elements::parse_pipeline(config), c) > proven;
        };
        add_failure(gp, index, "occupancy-exceeds-proven",
                    "sequence drives live occupancy to " +
                        std::to_string(occ) + " > proven exact " +
                        std::to_string(proven),
                    shrink_sequence(seq, still_fails));
      }
    }
    report.outcomes.push_back(std::move(out));
  }

  // Drives `count` generated packets of length `len` through one persistent
  // pipeline instance and applies the Proven-side oracles.
  void drive_group(const GeneratedPipeline& gp, size_t index, size_t len,
                   size_t count, Verdict crash, Verdict never, Verdict reach,
                   const ConcretePred* wf, PipelineOutcome* out) {
    pipeline::Pipeline pl = elements::parse_pipeline(gp.config);
    // Lockstep engine oracle: with the compiled engine on, every driven
    // packet also runs on an interpreter-pinned reference instance and the
    // two executions must stay bit-identical (results, packet, KV state).
    std::optional<pipeline::Pipeline> ref;
    if (cfg.compiled) {
      pl.set_engine(pipeline::Engine::Compiled);
      ref.emplace(elements::parse_pipeline(gp.config));
      ref->set_engine(pipeline::Engine::Interp);
    }
    std::vector<net::Packet> driven;  // prefix, for state-dependent repros
    bool crash_flagged = false, never_flagged = false, reach_flagged = false;
    bool engine_flagged = false;
    for (size_t i = 0; i < count; ++i) {
      net::Packet input = generate_packet(rng, len, gp.ip_offset);
      driven.push_back(input);
      net::Packet p = input;
      const pipeline::PipelineResult r = pl.process(p);
      ++out->packets_driven;
      if (ref && !engine_flagged) {
        net::Packet q = input;
        const pipeline::PipelineResult r2 = ref->process(q);
        const std::string diff = engine_divergence(r, r2, p, q, pl, *ref);
        if (!diff.empty()) {
          engine_flagged = true;
          const std::string config = gp.config;
          const auto still_fails =
              [&config](const std::vector<net::Packet>& c) {
                return replay_diverges(config, c);
              };
          add_failure(gp, index, "compiled-interp-mismatch",
                      "compiled and interpreter engines diverged: " + diff,
                      shrink_sequence(driven, still_fails));
        }
      }
      const bool is_wf = wf != nullptr && wf->matches(input);
      out->wf_matches += is_wf ? 1 : 0;
      switch (r.action) {
        case pipeline::FinalAction::Delivered: ++out->delivered; break;
        case pipeline::FinalAction::Dropped: ++out->drops; break;
        case pipeline::FinalAction::Trapped: ++out->traps; break;
      }
      const std::string config = gp.config;
      if (r.action == pipeline::FinalAction::Trapped &&
          crash == Verdict::Proven && !crash_flagged) {
        crash_flagged = true;  // one repro per pipeline per kind
        const auto still_fails = [&config](const std::vector<net::Packet>& c) {
          return replay_sequence(config, c, nullptr).any_trap;
        };
        add_failure(gp, index, "trap-on-proven",
                    std::string("concrete trap (") + ir::trap_name(r.trap) +
                        " at [" + pl.element(r.exit_element).name() +
                        "]) on a crash-free-Proven pipeline",
                    shrink_sequence(driven, still_fails));
      }
      if (is_wf && r.action != pipeline::FinalAction::Delivered &&
          never == Verdict::Proven && !never_flagged) {
        never_flagged = true;
        const auto still_fails = [&config,
                                  wf](const std::vector<net::Packet>& c) {
          return replay_sequence(config, c, wf).any_wf_lost;
        };
        add_failure(gp, index, "drop-on-proven-never",
                    "wellformed packet lost although never(drop) was Proven",
                    shrink_sequence(driven, still_fails));
      }
      if (is_wf &&
          !(r.action == pipeline::FinalAction::Delivered &&
            r.exit_port == 0) &&
          reach == Verdict::Proven && !reach_flagged) {
        reach_flagged = true;
        const auto still_fails = [&config,
                                  wf](const std::vector<net::Packet>& c) {
          return replay_sequence(config, c, wf).any_wf_missed_port0;
        };
        add_failure(
            gp, index, "wrong-exit-on-proven-reach",
            "wellformed packet missed output 0 although reachable(output 0) "
            "was Proven",
            shrink_sequence(driven, still_fails));
      }
    }
  }
};

}  // namespace

std::string FuzzReport::summary() const {
  std::ostringstream os;
  os << "vsd fuzz seed=" << seed << " pipelines=" << outcomes.size()
     << " failures=" << failures.size() << "\n";
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const PipelineOutcome& o = outcomes[i];
    os << "[" << i << "] \"" << o.config << "\" len=" << o.packet_len
       << " crash=" << verify::verdict_name(o.crash)
       << " runt=" << verify::verdict_name(o.crash_runt)
       << " never=" << verify::verdict_name(o.never_drop)
       << " reach=" << verify::verdict_name(o.reach)
       << " state=" << verify::verdict_name(o.state);
    if (o.state == Verdict::Proven) os << "(occ=" << o.proven_occupancy << ")";
    os << " drove=" << o.packets_driven << "+" << o.sequences_driven
       << "seq wf=" << o.wf_matches << " traps=" << o.traps
       << " drops=" << o.drops << " delivered=" << o.delivered << "\n";
  }
  for (size_t j = 0; j < failures.size(); ++j) {
    const FuzzFailure& f = failures[j];
    os << "FAIL[" << j << "] " << f.kind << " pipeline #" << f.pipeline_index
       << " \"" << f.config << "\": " << f.detail << "\n";
    for (size_t k = 0; k < f.repro.size(); ++k) {
      os << "  repro packet " << (k + 1) << "/" << f.repro.size() << ": "
         << hex_all(f.repro[k]) << "\n";
    }
  }
  return os.str();
}

FuzzReport run_fuzz(const FuzzConfig& cfg) {
  // Engine kill switch: --no-compiled pins every concrete execution of the
  // run — oracles, replays, refinement — to the interpreter. Scoped so a
  // library caller's global engine choice survives the run.
  struct EngineScope {
    bool prev = backend::compiled_enabled();
    explicit EngineScope(bool on) { backend::set_compiled_enabled(on); }
    ~EngineScope() { backend::set_compiled_enabled(prev); }
  } engine_scope(cfg.compiled);

  FuzzReport report;
  report.seed = cfg.seed;
  Runner runner(cfg, report);
  for (size_t i = 0; i < cfg.pipelines; ++i) runner.fuzz_pipeline(i);
  return report;
}

}  // namespace vsd::fuzz
