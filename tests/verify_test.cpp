// End-to-end verification tests: the paper's worked example (Fig. 2), crash
// freedom of the Click IP-router pipelines, instruction bounds with witness
// packets, reachability, stateful bad-value analysis, the stitch memo, and
// the certifier.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "elements/l2.hpp"
#include "elements/registry.hpp"
#include "elements/stateful.hpp"
#include "elements/toy.hpp"
#include "interp/interp.hpp"
#include "net/headers.hpp"
#include "obs/trace.hpp"
#include "pipeline/pipeline.hpp"
#include "verify/certify.hpp"
#include "verify/decomposed.hpp"
#include "verify/monolithic.hpp"
#include "verify/predicates.hpp"

namespace vsd::verify {
namespace {

pipeline::Pipeline toy_pipeline() {
  pipeline::Pipeline pl;
  const size_t e1 = pl.add("E1", elements::make_toy_e1());
  const size_t e2 = pl.add("E2", elements::make_toy_e2());
  pl.chain({e1, e2});
  return pl;
}

// --- The Fig. 2 worked example ------------------------------------------------

TEST(Fig2, E2AloneIsNotCrashFree) {
  pipeline::Pipeline pl;
  pl.add("E2", elements::make_toy_e2());
  DecomposedConfig cfg;
  cfg.packet_len = 8;
  DecomposedVerifier v(cfg);
  const CrashFreedomReport r = v.verify_crash_freedom(pl);
  ASSERT_EQ(r.verdict, Verdict::Violated);
  ASSERT_FALSE(r.counterexamples.empty());
  // The counterexample packet must actually crash E2 concretely.
  const ir::Program e2 = elements::make_toy_e2();
  net::Packet p = r.counterexamples[0].packet;
  interp::KvState kv;
  const interp::ExecResult er = interp::run(e2, p, kv);
  EXPECT_TRUE(er.trapped());
  EXPECT_EQ(er.trap, ir::TrapKind::AssertFail);
}

TEST(Fig2, PipelineE1E2IsCrashFree) {
  // "in a platform where E2 always follows E1, segment e3 becomes
  //  infeasible, and the platform never crashes."
  pipeline::Pipeline pl = toy_pipeline();
  DecomposedConfig cfg;
  cfg.packet_len = 8;
  DecomposedVerifier v(cfg);
  const CrashFreedomReport r = v.verify_crash_freedom(pl);
  EXPECT_EQ(r.verdict, Verdict::Proven);
  EXPECT_GE(r.stats.suspects_found, 1u);       // e3 was tagged in Step 1
  EXPECT_GE(r.stats.suspects_eliminated, 1u);  // and killed in Step 2
}

TEST(Fig2, MonolithicAgreesOnToyPipeline) {
  pipeline::Pipeline pl = toy_pipeline();
  MonolithicConfig cfg;
  cfg.packet_len = 8;
  MonolithicVerifier v(cfg);
  EXPECT_EQ(v.verify_crash_freedom(pl).verdict, Verdict::Proven);
}

TEST(Fig2, MonolithicFindsE2CrashAlone) {
  pipeline::Pipeline pl;
  pl.add("E2", elements::make_toy_e2());
  MonolithicConfig cfg;
  cfg.packet_len = 8;
  MonolithicVerifier v(cfg);
  const CrashFreedomReport r = v.verify_crash_freedom(pl);
  ASSERT_EQ(r.verdict, Verdict::Violated);
  ASSERT_FALSE(r.counterexamples.empty());
}

// --- Crash freedom of real pipelines -------------------------------------------

class RouterLengths : public ::testing::TestWithParam<size_t> {};

TEST_P(RouterLengths, IpRouterPipelineIsCrashFree) {
  pipeline::Pipeline pl = elements::make_ip_router_pipeline();
  DecomposedConfig cfg;
  cfg.packet_len = GetParam();
  DecomposedVerifier v(cfg);
  const CrashFreedomReport r = v.verify_crash_freedom(pl);
  EXPECT_EQ(r.verdict, Verdict::Proven) << "len=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Lengths, RouterLengths,
                         ::testing::Values(size_t{16}, size_t{34}, size_t{64},
                                           size_t{80}));

TEST(CrashFreedom, UnsafeStripIsCaughtWithCounterexample) {
  pipeline::Pipeline pl =
      elements::parse_pipeline("UnsafeStrip(14) -> CheckIPHeader -> Discard");
  DecomposedConfig cfg;
  cfg.packet_len = 8;  // shorter than the strip: crash is feasible
  DecomposedVerifier v(cfg);
  const CrashFreedomReport r = v.verify_crash_freedom(pl);
  ASSERT_EQ(r.verdict, Verdict::Violated);
  EXPECT_EQ(r.counterexamples[0].trap, ir::TrapKind::PullUnderflow);
}

TEST(CrashFreedom, ClassifierShieldsUnsafeStrip) {
  // Classifier port 0 requires a 14-byte EtherType match, so packets
  // shorter than 14 can never reach the strip: composition proves safety
  // even though UnsafeStrip alone is suspect.
  pipeline::Pipeline pl;
  const size_t c = pl.add("cls", elements::make_ipv4_classifier());
  const size_t s = pl.add("strip", elements::make_unsafe_strip(14));
  const size_t d1 = pl.add("d1", elements::make_discard());
  pl.connect(c, 0, s);
  pl.connect(c, 1, d1);
  DecomposedConfig cfg;
  cfg.packet_len = 8;
  DecomposedVerifier v(cfg);
  const CrashFreedomReport r = v.verify_crash_freedom(pl);
  EXPECT_EQ(r.verdict, Verdict::Proven);
  // The reachable-length prescan already proves the strip unreachable: the
  // classifier's port-0 edge is infeasible at 8 bytes, so the strip is
  // never entered at any length and its pull-underflow is not even tagged
  // as a suspect — no composition or solver elimination needed.
  EXPECT_EQ(r.stats.suspects_found, 0u);
  EXPECT_EQ(r.stats.solver_queries, 0u);
}

TEST(CrashFreedom, TrapFeasibleOnlyAtStrippedLengthIsFound) {
  // Every element here is individually trap-free at the 48-byte entry
  // length; the violation only exists because three strips hand ToyE1 a
  // 0-byte packet. A suspect scan that summarizes at the entry length
  // alone proves this pipeline crash-free — which the fuzz harness caught
  // as a concrete oob-packet-read on an all-zeros packet. The scan must
  // consider every reachable (element, length) pair.
  pipeline::Pipeline pl = elements::parse_pipeline(
      "Strip14 -> EthDecap -> UnsafeStrip(20) -> ToyE1");
  for (const size_t jobs : {size_t{1}, size_t{8}}) {
    DecomposedConfig cfg;
    cfg.packet_len = 48;
    cfg.jobs = jobs;
    DecomposedVerifier v(cfg);
    const CrashFreedomReport r = v.verify_crash_freedom(pl);
    ASSERT_EQ(r.verdict, Verdict::Violated) << "jobs=" << jobs;
    ASSERT_FALSE(r.counterexamples.empty());
    EXPECT_EQ(r.counterexamples[0].trap, ir::TrapKind::OobPacketRead);
    // The counterexample must reproduce the trap concretely end-to-end.
    net::Packet p = r.counterexamples[0].packet;
    pipeline::Pipeline replay = elements::parse_pipeline(
        "Strip14 -> EthDecap -> UnsafeStrip(20) -> ToyE1");
    const pipeline::PipelineResult pr = replay.process(p);
    EXPECT_EQ(pr.action, pipeline::FinalAction::Trapped) << "jobs=" << jobs;
  }
}

TEST(CrashFreedom, AnyPermutationOfIpElementsIsCrashFree) {
  // §3: "any pipeline that consists of these elements will not crash for
  // any input" — spot-check several orderings, including nonsensical ones.
  const std::vector<std::string> configs = {
      "IPOptions -> DecIPTTL -> CheckIPHeader(nochecksum)",
      "DecIPTTL -> DecIPTTL -> DecIPTTL",
      "CheckIPHeader(nochecksum) -> IPLookup(10.0.0.0/8 0) -> IPOptions",
      "EthDecap -> EthEncap -> EthDecap",
      "IPLookup(10.0.0.0/8 0) -> IPLookup(0.0.0.0/0 0)",
  };
  DecomposedConfig cfg;
  cfg.packet_len = 32;
  DecomposedVerifier v(cfg);
  for (const std::string& c : configs) {
    pipeline::Pipeline pl = elements::parse_pipeline(c);
    EXPECT_EQ(v.verify_crash_freedom(pl).verdict, Verdict::Proven)
        << "pipeline: " << c;
  }
}

// --- Instruction bounds ----------------------------------------------------------

TEST(InstructionBound, ToyPipelineBoundAndWitness) {
  pipeline::Pipeline pl = toy_pipeline();
  DecomposedConfig cfg;
  cfg.packet_len = 8;
  DecomposedVerifier v(cfg);
  const InstructionBoundReport r = v.verify_instruction_bound(pl);
  ASSERT_EQ(r.verdict, Verdict::Proven);
  EXPECT_TRUE(r.bound_is_exact);
  EXPECT_GT(r.max_instructions, 0u);
  ASSERT_TRUE(r.witness.has_value());
  EXPECT_EQ(r.witness_instructions, r.max_instructions)
      << "exact bound must be achieved by the witness packet";
}

TEST(InstructionBound, WitnessReplayNeverExceedsBound) {
  pipeline::Pipeline pl =
      elements::make_ip_router_pipeline(/*verify_checksum=*/false);
  DecomposedConfig cfg;
  cfg.packet_len = 64;
  DecomposedVerifier v(cfg);
  const InstructionBoundReport r = v.verify_instruction_bound(pl);
  ASSERT_EQ(r.verdict, Verdict::Proven);
  ASSERT_TRUE(r.witness.has_value());
  EXPECT_LE(r.witness_instructions, r.max_instructions);
  EXPECT_GT(r.witness_instructions, 0u);
}

TEST(InstructionBound, MonolithicAgreesOnSmallPipeline) {
  pipeline::Pipeline pl = toy_pipeline();
  DecomposedConfig dcfg;
  dcfg.packet_len = 8;
  DecomposedVerifier dv(dcfg);
  MonolithicConfig mcfg;
  mcfg.packet_len = 8;
  MonolithicVerifier mv(mcfg);
  const InstructionBoundReport a = dv.verify_instruction_bound(pl);
  const InstructionBoundReport b = mv.verify_instruction_bound(pl);
  ASSERT_EQ(a.verdict, Verdict::Proven);
  ASSERT_EQ(b.verdict, Verdict::Proven);
  EXPECT_EQ(a.max_instructions, b.max_instructions);
}

// --- Reachability -----------------------------------------------------------------

TEST(Reachability, RoutedDestinationNeverDropped) {
  // Well-formed, checksummed packets to 10.x must never be dropped by the
  // router (there is a 10/8 route).
  pipeline::Pipeline pl = elements::make_ip_router_pipeline();
  DecomposedConfig cfg;
  cfg.packet_len = 64;
  DecomposedVerifier v(cfg);
  const ReachabilityReport r = v.verify_never_dropped(
      pl, [](const symbex::SymPacket& p) {
        return both(wellformed_ipv4_checksummed(p),
                    dst_ip_is(p, net::parse_ipv4("10.1.2.3"),
                              net::kEtherHeaderSize));
      });
  EXPECT_EQ(r.verdict, Verdict::Proven);
}

TEST(Reachability, UnroutedDestinationIsDroppedWithWitness) {
  pipeline::Pipeline pl = elements::make_ip_router_pipeline();
  DecomposedConfig cfg;
  cfg.packet_len = 64;
  DecomposedVerifier v(cfg);
  const ReachabilityReport r = v.verify_never_dropped(
      pl, [](const symbex::SymPacket& p) {
        return both(wellformed_ipv4_checksummed(p),
                    dst_ip_is(p, net::parse_ipv4("8.8.8.8"),
                              net::kEtherHeaderSize));
      });
  ASSERT_EQ(r.verdict, Verdict::Violated);
  ASSERT_FALSE(r.counterexamples.empty());
  // Replay: the witness really is dropped.
  net::Packet p = r.counterexamples[0].packet;
  EXPECT_EQ(pl.process(p).action, pipeline::FinalAction::Dropped);
}

// --- Stateful analysis ---------------------------------------------------------------

TEST(Stateful, StrictNetFlowOverflowIsReachableViaSequence) {
  pipeline::Pipeline pl;
  elements::NetFlowConfig nf;
  nf.strict = true;
  pl.add("netflow", elements::make_netflow(nf));
  DecomposedConfig cfg;
  cfg.packet_len = 40;
  DecomposedVerifier v(cfg);
  const CrashFreedomReport r = v.verify_crash_freedom(pl);
  ASSERT_EQ(r.verdict, Verdict::Violated);
  ASSERT_FALSE(r.counterexamples.empty());
  EXPECT_FALSE(r.counterexamples[0].state_note.empty())
      << "overflow needs a prior packet sequence; the note must say so";
}

TEST(Stateful, SaturatingNetFlowIsProvenSafe) {
  pipeline::Pipeline pl;
  pl.add("netflow", elements::make_netflow());
  DecomposedConfig cfg;
  cfg.packet_len = 40;
  DecomposedVerifier v(cfg);
  EXPECT_EQ(v.verify_crash_freedom(pl).verdict, Verdict::Proven);
}

TEST(Stateful, SafeNatIsProvenBuggyNatIsNot) {
  DecomposedConfig cfg;
  cfg.packet_len = 48;
  DecomposedVerifier v(cfg);
  {
    pipeline::Pipeline pl;
    pl.add("nat", elements::make_nat());
    EXPECT_EQ(v.verify_crash_freedom(pl).verdict, Verdict::Proven);
  }
  {
    pipeline::Pipeline pl;
    elements::NatConfig nc;
    nc.buggy = true;
    pl.add("nat", elements::make_nat(nc));
    const CrashFreedomReport r = v.verify_crash_freedom(pl);
    ASSERT_EQ(r.verdict, Verdict::Violated);
    EXPECT_EQ(r.counterexamples[0].trap, ir::TrapKind::AssertFail);
    EXPECT_FALSE(r.counterexamples[0].state_note.empty());
  }
}

TEST(Stateful, RateLimiterIsProvenCrashFree) {
  // Division by the epoch length, shifts, and packed counters — all over
  // values read from private state; the KV model plus folding must prove
  // no trap is reachable (epoch_packets is a non-zero constant, so the
  // udiv can never fault).
  pipeline::Pipeline pl = elements::parse_pipeline("RateLimiter(4, 128)");
  DecomposedConfig cfg;
  cfg.packet_len = 40;
  DecomposedVerifier v(cfg);
  EXPECT_EQ(v.verify_crash_freedom(pl).verdict, Verdict::Proven);
}

// --- Multi-port pipelines -----------------------------------------------------------

TEST(MultiPort, ClassifierFanOutVerifies) {
  // Classifier port 0 -> IP chain, port 1 -> Counter -> exit. Both branches
  // must be covered by the walk.
  pipeline::Pipeline pl;
  const size_t cls = pl.add("cls", elements::make_element("Classifier", ""));
  pipeline::Pipeline tmp = elements::parse_pipeline(
      "EthDecap -> CheckIPHeader(nochecksum) -> DecIPTTL");
  const size_t decap =
      pl.add("decap", elements::make_element("EthDecap", ""));
  const size_t check = pl.add(
      "check", elements::make_element("CheckIPHeader", "nochecksum"));
  const size_t ttl = pl.add("ttl", elements::make_element("DecIPTTL", ""));
  const size_t cnt = pl.add("cnt", elements::make_element("Counter", ""));
  pl.connect(cls, 0, decap);
  pl.connect(cls, 1, cnt);
  pl.connect(decap, 0, check);
  pl.connect(check, 0, ttl);
  ASSERT_TRUE(pl.validate().empty());

  DecomposedConfig cfg;
  cfg.packet_len = 48;
  DecomposedVerifier v(cfg);
  EXPECT_EQ(v.verify_crash_freedom(pl).verdict, Verdict::Proven);
  const InstructionBoundReport b = v.verify_instruction_bound(pl);
  EXPECT_EQ(b.verdict, Verdict::Proven);
  EXPECT_GT(b.max_instructions, 0u);
}

TEST(MultiPort, TtlExpiryPathGetsItsOwnProof) {
  // DecIPTTL port 1 (expired) to a Paint stage: the walk must reason about
  // the error path separately and still prove the whole graph.
  pipeline::Pipeline pl;
  const size_t ttl = pl.add("ttl", elements::make_element("DecIPTTL", ""));
  const size_t ok = pl.add("ok", elements::make_element("Paint", "1"));
  const size_t err = pl.add("err", elements::make_element("Paint", "2"));
  pl.connect(ttl, 0, ok);
  pl.connect(ttl, 1, err);
  DecomposedConfig cfg;
  cfg.packet_len = 32;
  DecomposedVerifier v(cfg);
  EXPECT_EQ(v.verify_crash_freedom(pl).verdict, Verdict::Proven);
}

// --- Length changes mid-pipeline ------------------------------------------------------

TEST(LengthChange, EncapDecapChainsSummarizeAtEachLength) {
  // EthEncap grows the packet by 14, so downstream elements are verified
  // at a different symbolic length than the entry.
  DecomposedConfig cfg;
  cfg.packet_len = 30;
  DecomposedVerifier v(cfg);
  pipeline::Pipeline pl = elements::parse_pipeline(
      "EthEncap -> Classifier -> EthDecap -> CheckIPHeader(nochecksum)");
  const CrashFreedomReport r = v.verify_crash_freedom(pl);
  EXPECT_EQ(r.verdict, Verdict::Proven);
}

// --- Summary reuse ----------------------------------------------------------------

TEST(SummaryReuse, SecondPipelineVerifiesFromCache) {
  DecomposedConfig cfg;
  cfg.packet_len = 32;
  DecomposedVerifier v(cfg);
  pipeline::Pipeline a =
      elements::parse_pipeline("CheckIPHeader(nochecksum) -> DecIPTTL");
  pipeline::Pipeline b =
      elements::parse_pipeline("DecIPTTL -> CheckIPHeader(nochecksum)");
  const CrashFreedomReport ra = v.verify_crash_freedom(a);
  ASSERT_EQ(ra.verdict, Verdict::Proven);
  const size_t summarized_first = ra.stats.elements_summarized;
  EXPECT_GE(summarized_first, 1u);
  const CrashFreedomReport rb = v.verify_crash_freedom(b);
  ASSERT_EQ(rb.verdict, Verdict::Proven);
  // Same element types at a different position: the summaries must come
  // from the cache, except DecIPTTL which now sees a different input
  // length? No — lengths are equal here, so zero new summaries.
  EXPECT_EQ(rb.stats.elements_summarized, 0u);
  EXPECT_GE(rb.stats.summary_cache_hits, 2u);
}

// --- Configuration corners -----------------------------------------------------------

TEST(Config, FullUnrollModeProvesTheRouterToo) {
  // Forcing LoopMode::Unroll end-to-end (no summaries at all) must agree
  // with the summarize-mode verdict on a loop-bearing pipeline, at a
  // packet length small enough for exact exploration.
  pipeline::Pipeline pl = elements::parse_pipeline(
      "CheckIPHeader -> DecIPTTL -> IPOptions");
  DecomposedConfig cfg;
  cfg.packet_len = 26;
  cfg.loop_mode = symbex::LoopMode::Unroll;
  DecomposedVerifier v(cfg);
  EXPECT_EQ(v.verify_crash_freedom(pl).verdict, Verdict::Proven);
}

TEST(Config, MonolithicBudgetExhaustionIsUnknownNotProven) {
  // An absurdly small budget must yield Unknown ("did not complete"),
  // never a false Proven — the honest-DNF contract of the baseline.
  pipeline::Pipeline pl = elements::make_ip_router_pipeline();
  MonolithicConfig cfg;
  cfg.packet_len = 64;
  cfg.time_budget_seconds = 0.05;
  MonolithicVerifier v(cfg);
  const CrashFreedomReport r = v.verify_crash_freedom(pl);
  EXPECT_EQ(r.verdict, Verdict::Unknown);
}

TEST(Config, MonolithicBaselineNeverReusesSolverContexts) {
  // The baseline measures the paper's one-shot "general-purpose verifier":
  // it must opt OUT of the incremental decision layer, otherwise context
  // reuse across its S2E-style fork checks quietly speeds it up and tab3
  // stops measuring the true baseline. The stats must show zero reuse.
  pipeline::Pipeline pl = elements::parse_pipeline(
      "Classifier -> EthDecap -> CheckIPHeader(nochecksum) -> DecIPTTL");
  MonolithicConfig cfg;
  cfg.packet_len = 48;
  MonolithicVerifier v(cfg);
  const CrashFreedomReport r = v.verify_crash_freedom(pl);
  EXPECT_EQ(r.verdict, Verdict::Proven);
  EXPECT_GT(r.stats.solver_queries, 0u);  // it did solve — just one-shot
  EXPECT_EQ(v.last_stats().contexts_opened, 0u);
  EXPECT_EQ(v.last_stats().incremental_queries, 0u);
  EXPECT_EQ(v.last_stats().assumption_reuses, 0u);
  EXPECT_EQ(r.stats.contexts_opened, 0u);
  EXPECT_EQ(r.stats.incremental_queries, 0u);
  EXPECT_EQ(r.stats.assumption_reuses, 0u);

  // The decomposed engine on a SAT-heavy workload DOES open contexts — the
  // baseline's zeros are an opt-out, not an accident of the workload.
  DecomposedConfig dcfg;
  dcfg.packet_len = 64;
  DecomposedVerifier dv(dcfg);
  const CrashFreedomReport dr =
      dv.verify_crash_freedom(elements::make_ip_router_pipeline());
  EXPECT_EQ(dr.verdict, Verdict::Proven);
  EXPECT_GT(dr.stats.contexts_opened, 0u);
}

// Both regression shapes below were found by the differential fuzz harness
// (vsd fuzz): Sat suspects whose composed path crosses a summarized loop in
// an UPSTREAM element used to be either reported Violated with an
// unreplayable counterexample or, worse, wrongly eliminated. They now route
// through the per-path unroll refinement: certified (replayable CE) or
// eliminated on exact constraints.

TEST(Refinement, UpstreamSummarizedLoopFalseViolationIsEliminated) {
  // SetIPChecksum's summarized sum loop havocs the checksum bytes the
  // downstream CheckIPHeader verifies, so "bad checksum -> drop" used to
  // be Sat with an arbitrary model: never(drop) reported a Violated no
  // packet can demonstrate (concretely SetIPChecksum always writes a
  // correct checksum). The exact re-walk eliminates the artifact. The
  // predicate pins every header byte except the checksum field so the
  // elimination's unsat proof folds instead of exercising full symbolic
  // one's-complement arithmetic (which is correct too, just ~30 s).
  pipeline::Pipeline pl =
      elements::parse_pipeline("SetIPChecksum -> CheckIPHeader");
  net::PacketSpec spec;
  spec.fix_checksum = false;
  spec.payload_len = 12;  // ip total_len = 40 == packet_len: nothing to drop
  net::Packet wf = net::make_packet(spec);
  wf.pull_front(net::kEtherHeaderSize);
  DecomposedConfig cfg;
  cfg.packet_len = 40;
  DecomposedVerifier v(cfg);
  const ReachabilityReport r = v.verify_never_dropped(
      pl, [&wf](const symbex::SymPacket& p) {
        bv::ExprRef e = bv::mk_bool(true);
        for (size_t i = 0; i < 20; ++i) {
          if (i == 10 || i == 11) continue;  // checksum field stays free
          e = bv::mk_land(e, bv::mk_eq(p.byte(i), bv::mk_const(wf[i], 8)));
        }
        return e;
      });
  EXPECT_EQ(r.verdict, Verdict::Proven);
  EXPECT_GT(r.stats.refinements_attempted, 0u);
  EXPECT_GT(r.stats.refinements_eliminated, 0u);
}

TEST(Refinement, TrapBehindSummarizedLoopIsCertifiedReplayable) {
  // The trap lives in ToyFig1 (exact), but the path to it crosses
  // CheckIPHeader's summarized checksum loop: the old Sat model ignored
  // the checksum clause and did not replay. The refined counterexample
  // must replay to the exact trap.
  pipeline::Pipeline pl = elements::parse_pipeline(
      "CheckIPHeader -> EthDecap -> Null -> ToyFig1");
  DecomposedConfig cfg;
  cfg.packet_len = 48;
  DecomposedVerifier v(cfg);
  const CrashFreedomReport r = v.verify_crash_freedom(pl);
  ASSERT_EQ(r.verdict, Verdict::Violated);
  ASSERT_FALSE(r.counterexamples.empty());
  const Counterexample& ce = r.counterexamples.front();
  EXPECT_FALSE(ce.requires_sequence);
  pipeline::Pipeline replay = elements::parse_pipeline(
      "CheckIPHeader -> EthDecap -> Null -> ToyFig1");
  net::Packet p = ce.packet;
  const pipeline::PipelineResult rr = replay.process(p);
  EXPECT_EQ(rr.action, pipeline::FinalAction::Trapped);
  EXPECT_EQ(rr.trap, ir::TrapKind::AssertFail);

  // jobs=8 must produce the identical certified counterexample.
  DecomposedConfig cfg8 = cfg;
  cfg8.jobs = 8;
  DecomposedVerifier v8(cfg8);
  const CrashFreedomReport r8 = v8.verify_crash_freedom(pl);
  ASSERT_EQ(r8.verdict, Verdict::Violated);
  ASSERT_EQ(r8.counterexamples.size(), r.counterexamples.size());
  EXPECT_TRUE(std::equal(ce.packet.bytes().begin(), ce.packet.bytes().end(),
                         r8.counterexamples.front().packet.bytes().begin(),
                         r8.counterexamples.front().packet.bytes().end()));
}

// --- Stitch memo ------------------------------------------------------------------

TEST(StitchMemo, PrivateStateStaysPerElementInstance) {
  // RateLimiter does not rewrite the packet, so both instances are stitched
  // onto the same input state. The memo must still give each instance its
  // own KV-read variables (tables are element-private): a key without the
  // element instance would share them between the two limiters and change
  // the counterexamples pinned here. The pinned bytes are the SAT model of
  // a formula containing `now udiv 16`, so they depend on the CNF encoding
  // of that division, not only on the memo.
  const char* config =
      "CheckIPHeader(nochecksum) -> RateLimiter(4, 16) -> RateLimiter(4, 16)";
  const std::vector<std::string> path = {"CheckIPHeader", "RateLimiter",
                                         "RateLimiter"};
  for (const size_t jobs : {size_t{1}, size_t{8}}) {
    pipeline::Pipeline pl = elements::parse_pipeline(config);
    DecomposedConfig cfg;
    cfg.packet_len = 48;
    cfg.jobs = jobs;
    DecomposedVerifier v(cfg);
    TerminalSpec reach0;  // reachable(output 0)
    reach0.required_exit_port = 0;
    const ReachabilityReport r = v.verify_reach_never(
        pl, [](const symbex::SymPacket& p) { return wellformed_ipv4_at(p, 0); },
        reach0);
    ASSERT_EQ(r.verdict, Verdict::Violated) << "jobs=" << jobs;
    ASSERT_EQ(r.counterexamples.size(), 2u) << "jobs=" << jobs;
    const uint8_t total_len[2] = {0x24, 0x14};
    for (size_t i = 0; i < 2; ++i) {
      const Counterexample& ce = r.counterexamples[i];
      EXPECT_EQ(ce.element_path, path) << "jobs=" << jobs << " ce " << i;
      EXPECT_TRUE(ce.requires_sequence) << "jobs=" << jobs << " ce " << i;
      std::vector<uint8_t> want(48, 0);
      want[0] = 0x45;
      want[3] = total_len[i];  // total length 36, then 20
      want[8] = 0x80;          // TTL 128
      std::string got;
      for (const uint8_t b : ce.packet.bytes()) {
        got += "0123456789abcdef"[b >> 4];
        got += "0123456789abcdef"[b & 15];
      }
      EXPECT_TRUE(std::equal(want.begin(), want.end(),
                             ce.packet.bytes().begin(),
                             ce.packet.bytes().end()))
          << "jobs=" << jobs << " ce " << i << " packet " << got;
    }
  }
}

TEST(StitchMemo, DeepChainReusesStitchedSegments) {
  // Paths through the branch-rich depth-7 chain reach element instances
  // with input states other paths already stitched.
  pipeline::Pipeline pl = elements::parse_pipeline(
      "CheckIPHeader(nochecksum) -> DecIPTTL -> IPOptions -> SetIPChecksum "
      "-> IPOptions -> DecIPTTL -> IPOptions");
  DecomposedConfig cfg;
  cfg.packet_len = 46;
  DecomposedVerifier v(cfg);
  obs::reset();
  obs::enable(true);
  const InstructionBoundReport r = v.verify_instruction_bound(pl);
  obs::enable(false);
  const std::map<std::string, uint64_t> counters = obs::counters_snapshot();
  obs::reset();
  EXPECT_EQ(r.verdict, Verdict::Proven);
  ASSERT_EQ(counters.count("verify.stitch_memo_hits"), 1u);
  EXPECT_GT(counters.at("verify.stitch_memo_hits"), 0u);
  EXPECT_GT(counters.at("verify.stitch_memo_misses"), 0u);
}

TEST(Config, PathBudgetStopsTheWalkAtAnyJobCount) {
  // Once the composed-path budget is exhausted the walk must stop at once:
  // no further sibling subtree is expanded and no further terminal
  // counted, so at jobs=1 exactly one path beyond the budget is seen.
  const char* config =
      "CheckIPHeader(nochecksum) -> DecIPTTL -> IPOptions -> SetIPChecksum "
      "-> IPOptions -> DecIPTTL";
  for (const uint64_t budget : {uint64_t{10}, uint64_t{100}}) {
    for (const size_t jobs : {size_t{1}, size_t{4}}) {
      pipeline::Pipeline pl = elements::parse_pipeline(config);
      DecomposedConfig cfg;
      cfg.packet_len = 46;
      cfg.max_composed_paths = budget;
      cfg.jobs = jobs;
      DecomposedVerifier v(cfg);
      const InstructionBoundReport r = v.verify_instruction_bound(pl);
      EXPECT_EQ(r.verdict, Verdict::Unknown)
          << "budget=" << budget << " jobs=" << jobs;
      if (jobs == 1) {
        EXPECT_EQ(r.stats.composed_paths_checked, budget + 1)
            << "budget=" << budget;
      }
    }
  }
}

TEST(Config, EmptyishPipelineSingleElement) {
  pipeline::Pipeline pl;
  pl.add("null", elements::make_element("Null", ""));
  DecomposedConfig cfg;
  cfg.packet_len = 1;  // smallest possible packet
  DecomposedVerifier v(cfg);
  EXPECT_EQ(v.verify_crash_freedom(pl).verdict, Verdict::Proven);
  const InstructionBoundReport b = v.verify_instruction_bound(pl);
  EXPECT_EQ(b.verdict, Verdict::Proven);
  EXPECT_EQ(b.max_instructions, 1u);  // just the emit terminator
}

TEST(Config, VerifierIsReusableAcrossProperties) {
  // One verifier instance, all three properties, summaries shared.
  pipeline::Pipeline pl = elements::parse_pipeline(
      "CheckIPHeader(nochecksum) -> IPLookup(10.0.0.0/8 0) -> DecIPTTL");
  DecomposedConfig cfg;
  cfg.packet_len = 40;
  DecomposedVerifier v(cfg);
  EXPECT_EQ(v.verify_crash_freedom(pl).verdict, Verdict::Proven);
  EXPECT_EQ(v.verify_instruction_bound(pl).verdict, Verdict::Proven);
  const ReachabilityReport r = v.verify_never_dropped(
      pl, [](const symbex::SymPacket& /*p*/) {
        // No packet matches (contradictory predicate): vacuously proven.
        return bv::mk_bool(false);
      });
  EXPECT_EQ(r.verdict, Verdict::Proven);
}

// --- Certifier --------------------------------------------------------------------

TEST(Certify, AcceptsSafeElement) {
  DecomposedConfig cfg;
  cfg.packet_len = 48;
  DecomposedVerifier v(cfg);
  const CertificationReport r = certify_element(
      v, "CheckIPHeader(nochecksum) -> DecIPTTL", "NetFlow", 0);
  EXPECT_TRUE(r.certified) << r.summary;
  EXPECT_GT(r.max_added_instructions, 0u);
}

TEST(Certify, RejectsCrashyElement) {
  DecomposedConfig cfg;
  cfg.packet_len = 8;
  DecomposedVerifier v(cfg);
  const CertificationReport r =
      certify_element(v, "Null -> Null", "UnsafeStrip(14)", 0);
  EXPECT_FALSE(r.certified);
  EXPECT_EQ(r.crash.verdict, Verdict::Violated);
}

}  // namespace
}  // namespace vsd::verify
