// vspec subsystem tests: lexer/parser line-column diagnostics, the
// type/arity checker, predicate compilation through the field-access layer,
// the well-formedness predicates clause by clause, and the batch checker
// end-to-end (including counterexample replay and --jobs determinism).
#include <gtest/gtest.h>

#include "elements/registry.hpp"
#include "net/headers.hpp"
#include "solver/solver.hpp"
#include "spec/check.hpp"
#include "spec/compile.hpp"
#include "spec/lexer.hpp"
#include "spec/parser.hpp"
#include "spec/report_json.hpp"
#include "symbex/sym_packet.hpp"
#include "verify/predicates.hpp"

namespace vsd::spec {
namespace {

// --- Lexer ---------------------------------------------------------------------

TEST(Lexer, TokensAndPositions) {
  const auto toks = lex("assert ip.dst == 10.0.0.1; # comment\nlet x = 0x45;");
  ASSERT_GE(toks.size(), 12u);
  EXPECT_EQ(toks[0].kind, TokKind::Ident);
  EXPECT_EQ(toks[0].text, "assert");
  EXPECT_EQ(toks[0].pos.line, 1u);
  EXPECT_EQ(toks[0].pos.col, 1u);
  EXPECT_EQ(toks[1].text, "ip");
  EXPECT_EQ(toks[2].kind, TokKind::Dot);
  EXPECT_EQ(toks[3].text, "dst");
  EXPECT_EQ(toks[4].kind, TokKind::EqEq);
  EXPECT_EQ(toks[5].kind, TokKind::Ipv4);
  EXPECT_EQ(toks[5].value, 0x0a000001u);
  EXPECT_EQ(toks[6].kind, TokKind::Semi);
  // Second line, after the comment.
  EXPECT_EQ(toks[7].text, "let");
  EXPECT_EQ(toks[7].pos.line, 2u);
  EXPECT_EQ(toks[10].kind, TokKind::Int);
  EXPECT_EQ(toks[10].value, 0x45u);
  EXPECT_EQ(toks.back().kind, TokKind::End);
}

TEST(Lexer, ErrorsCarryPositions) {
  try {
    lex("let a = 1 & 2;");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.pos().line, 1u);
    EXPECT_EQ(e.pos().col, 11u);
    EXPECT_NE(std::string(e.what()).find("'&'"), std::string::npos);
  }
  EXPECT_THROW(lex("pipeline \"unterminated"), SpecError);
  EXPECT_THROW(lex("let a = 10.0.0.999;"), SpecError);
  EXPECT_THROW(lex("let a = 10.0.1;"), SpecError);
}

// --- Parser diagnostics ---------------------------------------------------------

Pos error_pos(const std::string& src) {
  try {
    parse_spec(src);
  } catch (const SpecError& e) {
    return e.pos();
  }
  ADD_FAILURE() << "spec unexpectedly parsed: " << src;
  return Pos{0, 0};
}

std::string error_msg(const std::string& src) {
  try {
    parse_spec(src);
  } catch (const SpecError& e) {
    return e.what();
  }
  return "";
}

const char* kMinimalSpec =
    "pipeline \"Null\";\n"
    "assert crash_free;\n";

TEST(Parser, MinimalSpecParses) {
  const SpecFile spec = parse_spec(kMinimalSpec);
  EXPECT_EQ(spec.pipeline_config, "Null");
  EXPECT_EQ(spec.packet_len, 64u);
  EXPECT_EQ(spec.ip_offset, 14u);
  ASSERT_EQ(spec.assertions.size(), 1u);
  EXPECT_EQ(spec.assertions[0].prop, PropKind::CrashFree);
  EXPECT_EQ(spec.assertions[0].text, "assert crash_free");
}

TEST(Parser, FullSpecRoundTrips) {
  const SpecFile spec = parse_spec(
      "pipeline \"CheckIPHeader -> DecIPTTL\";\n"
      "set packet_len = 48;\n"
      "let good = wellformed_checksummed && !(ip.proto == 1);\n"
      "let interesting = good || eth.type != 0x0800;\n"
      "assert crash_free;\n"
      "assert instructions <= 4000;\n"
      "assert reachable(output 0) when good;\n"
      "assert never(drop) when interesting;\n");
  EXPECT_EQ(spec.packet_len, 48u);
  ASSERT_EQ(spec.lets.size(), 2u);
  ASSERT_EQ(spec.assertions.size(), 4u);
  EXPECT_EQ(spec.assertions[1].bound, 4000u);
  EXPECT_EQ(spec.assertions[2].port, 0u);
  EXPECT_EQ(spec.assertions[3].text, "assert never(drop) when interesting");
  EXPECT_EQ(to_string(*spec.lets[0].second),
            "(wellformed_checksummed && !ip.proto == 1)");
}

TEST(Parser, MissingSemicolonPointsAtTheGap) {
  const Pos p = error_pos("pipeline \"Null\"\nassert crash_free;\n");
  EXPECT_EQ(p.line, 2u);
  EXPECT_EQ(p.col, 1u);
}

TEST(Parser, UnknownPropertySuggests) {
  const std::string msg =
      error_msg("pipeline \"Null\";\nassert crash_fre;\n");
  EXPECT_NE(msg.find("crash_fre"), std::string::npos);
  EXPECT_NE(msg.find("did you mean 'crash_free'"), std::string::npos);
  const Pos p = error_pos("pipeline \"Null\";\nassert crash_fre;\n");
  EXPECT_EQ(p.line, 2u);
  EXPECT_EQ(p.col, 8u);
}

TEST(Parser, UnknownFieldSuggests) {
  const std::string src =
      "pipeline \"Null\";\nassert never(drop) when ip.dts == 10.0.0.1;\n";
  const std::string msg = error_msg(src);
  EXPECT_NE(msg.find("ip.dts"), std::string::npos);
  EXPECT_NE(msg.find("did you mean 'ip.dst'"), std::string::npos);
  const Pos p = error_pos(src);
  EXPECT_EQ(p.line, 2u);
  EXPECT_EQ(p.col, 25u);
}

TEST(Parser, ValueMustFitTheFieldWidth) {
  const std::string src =
      "pipeline \"Null\";\nassert never(drop) when ip.ttl > 300;\n";
  const std::string msg = error_msg(src);
  EXPECT_NE(msg.find("300"), std::string::npos);
  EXPECT_NE(msg.find("8 bits"), std::string::npos);
}

TEST(Parser, EthFieldsNeedAnEthernetHeader) {
  const std::string src =
      "pipeline \"Null\";\nset ip_offset = 0;\n"
      "assert never(drop) when eth.type == 0x0800;\n";
  const std::string msg = error_msg(src);
  EXPECT_NE(msg.find("eth.type"), std::string::npos);
  EXPECT_NE(msg.find("ip_offset"), std::string::npos);
}

TEST(Parser, UnknownLetRefSuggests) {
  const std::string src =
      "pipeline \"Null\";\nlet routed = wellformed;\n"
      "assert never(drop) when ruoted;\n";
  const std::string msg = error_msg(src);
  EXPECT_NE(msg.find("ruoted"), std::string::npos);
  EXPECT_NE(msg.find("did you mean 'routed'"), std::string::npos);
}

TEST(Parser, LetsAreDefineBeforeUseAndUnique) {
  EXPECT_THROW(parse_spec("pipeline \"Null\";\n"
                          "let a = b && wellformed;\nlet b = wellformed;\n"
                          "assert crash_free;\n"),
               SpecError);
  EXPECT_THROW(parse_spec("pipeline \"Null\";\n"
                          "let a = wellformed;\nlet a = wellformed;\n"
                          "assert crash_free;\n"),
               SpecError);
  EXPECT_THROW(parse_spec("pipeline \"Null\";\n"
                          "let wellformed = ip.ttl > 1;\n"
                          "assert crash_free;\n"),
               SpecError);
  // Define-before-use applies to assertion predicates too: an assert may
  // not reference a let declared later in the file.
  EXPECT_THROW(parse_spec("pipeline \"Null\";\n"
                          "assert never(drop) when late;\n"
                          "let late = ip.ttl > 1;\n"),
               SpecError);
}

TEST(Parser, L4FieldsParseAndMisspellingsSuggest) {
  // tcp.*/udp.* resolve through the field-access layer...
  const SpecFile spec = parse_spec(
      "pipeline \"Null\";\nset ip_offset = 0;\n"
      "assert never(drop) when tcp.sport == 443 && udp.dport != 53;\n");
  EXPECT_EQ(to_string(*spec.assertions[0].when),
            "(tcp.sport == 443 && udp.dport != 53)");
  // ...and misspellings get did-you-mean suggestions with exact positions.
  const std::string src =
      "pipeline \"Null\";\nassert never(drop) when tcp.sprot == 443;\n";
  const std::string msg = error_msg(src);
  EXPECT_NE(msg.find("tcp.sprot"), std::string::npos);
  EXPECT_NE(msg.find("did you mean 'tcp.sport'"), std::string::npos);
  const Pos p = error_pos(src);
  EXPECT_EQ(p.line, 2u);
  EXPECT_EQ(p.col, 25u);
  EXPECT_NE(error_msg("pipeline \"Null\";\n"
                      "assert never(drop) when pkt.size == 64;\n")
                .find("did you mean 'pkt.len'"),
            std::string::npos);
}

TEST(Parser, RangeSyntaxDesugarsAndRejectsEmptyRanges) {
  const SpecFile spec = parse_spec(
      "pipeline \"Null\";\n"
      "assert never(drop) when ip.ttl in [2, 64];\n");
  EXPECT_EQ(to_string(*spec.assertions[0].when),
            "(ip.ttl >= 2 && ip.ttl <= 64)");
  const std::string src =
      "pipeline \"Null\";\nassert never(drop) when ip.ttl in [64, 2];\n";
  EXPECT_NE(error_msg(src).find("empty range"), std::string::npos);
  const Pos p = error_pos(src);
  EXPECT_EQ(p.line, 2u);
  EXPECT_EQ(p.col, 32u);  // the 'in' keyword
  EXPECT_THROW(parse_spec("pipeline \"Null\";\n"
                          "assert never(drop) when ip.ttl in [2 64];\n"),
               SpecError);  // missing comma
}

TEST(Parser, MetaSlotsParseAndRangeCheck) {
  const SpecFile spec = parse_spec(
      "pipeline \"Null\";\n"
      "assert never(drop) when meta[3] == 0x10;\n");
  EXPECT_EQ(to_string(*spec.assertions[0].when), "meta[3] == 0x10");
  const std::string msg = error_msg(
      "pipeline \"Null\";\nassert never(drop) when meta[8] == 1;\n");
  EXPECT_NE(msg.find("slot 8 is out of range"), std::string::npos);
  // Dot-form meta must not silently become slot 0.
  EXPECT_NE(error_msg("pipeline \"Null\";\n"
                      "assert never(drop) when meta.port == 1;\n")
                .find("write meta[K]"),
            std::string::npos);
}

TEST(Parser, StatefulPropsParseWithBoundsAndSuggestions) {
  const SpecFile spec = parse_spec(
      "pipeline \"NAT -> NetFlow\";\nset ip_offset = 0;\n"
      "assert bounded_state <= 64;\n"
      "assert flow_occupancy(NetFlow) <= 8 when wellformed;\n");
  ASSERT_EQ(spec.assertions.size(), 2u);
  EXPECT_EQ(spec.assertions[0].prop, PropKind::BoundedState);
  EXPECT_EQ(spec.assertions[0].bound, 64u);
  EXPECT_EQ(spec.assertions[1].prop, PropKind::FlowOccupancy);
  EXPECT_EQ(spec.assertions[1].elem, "NetFlow");
  EXPECT_EQ(spec.assertions[1].text,
            "assert flow_occupancy(NetFlow) <= 8 when wellformed");
  // A misspelled property name suggests the stateful props too.
  EXPECT_NE(error_msg("pipeline \"Null\";\nassert flow_ocupancy(Null) <= 1;\n")
                .find("did you mean 'flow_occupancy'"),
            std::string::npos);
  EXPECT_NE(error_msg("pipeline \"Null\";\nassert bounded_stat <= 1;\n")
                .find("did you mean 'bounded_state'"),
            std::string::npos);
}

TEST(Parser, FlowOccupancyElementMustExistInThePipeline) {
  const std::string src =
      "pipeline \"NAT -> NetFlow\";\nset ip_offset = 0;\n"
      "assert flow_occupancy(NetFlw) <= 8;\n";
  const std::string msg = error_msg(src);
  EXPECT_NE(msg.find("no element named 'NetFlw'"), std::string::npos);
  EXPECT_NE(msg.find("did you mean 'NetFlow'"), std::string::npos);
  const Pos p = error_pos(src);
  EXPECT_EQ(p.line, 3u);
  EXPECT_EQ(p.col, 23u);
}

TEST(Parser, WhenIsRejectedOnInstructionBounds) {
  const std::string src =
      "pipeline \"Null\";\nassert instructions <= 100 when wellformed;\n";
  const std::string msg = error_msg(src);
  EXPECT_NE(msg.find("'when' is not supported"), std::string::npos);
}

TEST(Parser, PipelineErrorsReanchorIntoTheSpecFile) {
  // Typo inside the config string: the diagnostic must point into the
  // .vspec source (line 1, within the string), name the bad element, and
  // suggest the correction.
  const std::string src =
      "pipeline \"Null -> CheckIPHeadre\";\nassert crash_free;\n";
  const std::string msg = error_msg(src);
  EXPECT_NE(msg.find("CheckIPHeadre"), std::string::npos);
  EXPECT_NE(msg.find("did you mean 'CheckIPHeader'"), std::string::npos);
  const Pos p = error_pos(src);
  EXPECT_EQ(p.line, 1u);
  // "pipeline \"" is 10 chars; "Null -> " starts at 11, the typo at 19.
  EXPECT_EQ(p.col, 19u);
}

TEST(Parser, MultiLinePipelineErrorsKeepTheirLine) {
  const std::string src =
      "pipeline \"Null\n  -> Nul\";\nassert crash_free;\n";
  const Pos p = error_pos(src);
  EXPECT_EQ(p.line, 2u);
  EXPECT_EQ(p.col, 6u);
  EXPECT_NE(error_msg(src).find("did you mean 'Null'"), std::string::npos);
}

TEST(Parser, StructuralRequirements) {
  EXPECT_THROW(parse_spec("assert crash_free;\n"), SpecError);   // no pipeline
  EXPECT_THROW(parse_spec("pipeline \"Null\";\n"), SpecError);   // no asserts
  EXPECT_THROW(parse_spec("pipeline \"Null\";\npipeline \"Null\";\n"
                          "assert crash_free;\n"),
               SpecError);                                       // duplicate
  EXPECT_THROW(parse_spec("pipeline \"Null\";\nset packet_len = 0;\n"
                          "assert crash_free;\n"),
               SpecError);                                       // bad len
  EXPECT_THROW(parse_spec("pipeline \"Null\";\nset cheese = 9;\n"
                          "assert crash_free;\n"),
               SpecError);                                       // bad option
}

// --- Field-access layer + predicate compilation ------------------------------------

TEST(Fields, LookupAndWidths) {
  const auto dst = verify::lookup_field("ip", "dst", 14);
  ASSERT_TRUE(dst.has_value());
  EXPECT_EQ(dst->offset, 30u);
  EXPECT_EQ(dst->bytes, 4u);
  EXPECT_EQ(dst->value_width(), 32u);
  const auto ver = verify::lookup_field("ip", "ver", 0);
  ASSERT_TRUE(ver.has_value());
  EXPECT_EQ(ver->value_width(), 4u);
  EXPECT_FALSE(verify::lookup_field("ip", "bogus", 14).has_value());
  EXPECT_FALSE(verify::lookup_field("eth", "type", 0).has_value());
  ASSERT_TRUE(verify::lookup_field("eth", "type", 14).has_value());
  EXPECT_EQ(verify::lookup_field("eth", "type", 14)->offset, 12u);
}

net::Packet valid_frame() {
  net::PacketSpec ps;  // defaults: eth+ipv4+udp, checksum fixed, ttl 64
  return net::make_packet(ps);
}

TEST(Fields, ConcreteValuesFoldThroughTheCompiler) {
  const net::Packet frame = valid_frame();
  const symbex::SymPacket p = symbex::SymPacket::concrete(frame);
  const SpecFile spec = parse_spec(
      "pipeline \"Null\";\n"
      "let t = ip.ttl == 64 && ip.ver == 4 && ip.ihl == 5 &&\n"
      "        eth.type == 0x0800 && ip.dst == 10.0.0.2 && ip.proto == 17;\n"
      "let f = ip.dst == 10.0.0.3 || ip.ttl < 64;\n"
      "assert never(drop) when t && !f;\n");
  ASSERT_EQ(spec.assertions.size(), 1u);
  const bv::ExprRef e =
      compile_pred(spec, *spec.assertions[0].when, p);
  EXPECT_TRUE(e->is_true());
}

// --- The wellformed predicates, clause by clause (via the solver) ----------------

class WellFormedClauses : public ::testing::Test {
 protected:
  symbex::SymPacket sym_ = symbex::SymPacket::symbolic(64, "pkt");
  solver::Solver solver_;

  // wellformed && extra must have no model.
  void expect_excluded(const bv::ExprRef& extra) {
    EXPECT_TRUE(solver_.is_unsat(
        bv::mk_land(verify::wellformed_ipv4(sym_), extra)));
  }

  bv::ExprRef field(const char* proto, const char* name) {
    const auto f = verify::lookup_field(proto, name, 14);
    EXPECT_TRUE(f.has_value());
    return *verify::field_value(sym_, *f);
  }
};

TEST_F(WellFormedClauses, AcceptsAConcretelyValidFrame) {
  const symbex::SymPacket p = symbex::SymPacket::concrete(valid_frame());
  EXPECT_TRUE(verify::wellformed_ipv4(p)->is_true());
  EXPECT_TRUE(verify::wellformed_ipv4_checksummed(p)->is_true());
}

TEST_F(WellFormedClauses, SolverFindsAWellFormedChecksummedModel) {
  const bv::ExprRef wf = verify::wellformed_ipv4_checksummed(sym_);
  const solver::CheckResult r = solver_.check(wf);
  ASSERT_EQ(r.result, solver::Result::Sat);
  // The model concretizes to a frame the concrete checksum verifier likes.
  net::Packet p = sym_.to_concrete(r.model);
  net::Ipv4View ip(p, 14);
  EXPECT_EQ(ip.version(), 4u);
  EXPECT_EQ(ip.ihl(), 5u);
  EXPECT_TRUE(ip.checksum_ok());
  EXPECT_GT(ip.ttl(), 1u);
}

TEST_F(WellFormedClauses, RejectsBadVersion) {
  expect_excluded(bv::mk_ne(field("ip", "ver"), bv::mk_const(4, 4)));
}

TEST_F(WellFormedClauses, RejectsBadIhl) {
  expect_excluded(bv::mk_ne(field("ip", "ihl"), bv::mk_const(5, 4)));
}

TEST_F(WellFormedClauses, RejectsBadTotalLen) {
  // Below the minimum header size...
  expect_excluded(bv::mk_ult(field("ip", "len"), bv::mk_const(20, 16)));
  // ...or beyond the bytes present after the Ethernet header (64-14=50).
  expect_excluded(bv::mk_ugt(field("ip", "len"), bv::mk_const(50, 16)));
}

TEST_F(WellFormedClauses, RejectsFragments) {
  expect_excluded(
      bv::mk_eq(field("ip", "frag"), bv::mk_const(0x2000, 16)));
}

TEST_F(WellFormedClauses, RejectsExpiringTtl) {
  expect_excluded(bv::mk_ule(field("ip", "ttl"), bv::mk_const(1, 8)));
}

TEST_F(WellFormedClauses, RejectsWrongEtherType) {
  expect_excluded(
      bv::mk_ne(field("eth", "type"), bv::mk_const(0x0800, 16)));
}

TEST_F(WellFormedClauses, RejectsCorruptedChecksumConcretely) {
  net::Packet frame = valid_frame();
  frame[14 + 10] ^= 0x40;  // corrupt the stored checksum
  const symbex::SymPacket p = symbex::SymPacket::concrete(frame);
  EXPECT_TRUE(verify::wellformed_ipv4(p)->is_true())
      << "structure is still fine";
  EXPECT_TRUE(verify::wellformed_ipv4_checksummed(p)->is_false());
}

TEST_F(WellFormedClauses, IpOffsetVariantNeedsNoEthernetHeader) {
  net::Packet frame = valid_frame();
  frame.pull_front(14);
  const symbex::SymPacket p = symbex::SymPacket::concrete(frame);
  EXPECT_TRUE(verify::wellformed_ipv4_at(p, 0)->is_true());
  EXPECT_TRUE(verify::wellformed_ipv4_checksummed_at(p, 0)->is_true());
}

// --- The batch checker end-to-end -----------------------------------------------

// The paper's router chain with the §1 property set (the same spec as
// examples/ip_router.vspec, inlined so the test is hermetic).
const char* kRouterSpec = R"(
pipeline "Classifier -> EthDecap -> CheckIPHeader
          -> IPLookup(10.0.0.0/8 0, 192.168.0.0/16 1, 172.16.0.0/12 0)
          -> DecIPTTL -> IPOptions -> EthEncap";
set packet_len = 64;
let to_net10 = wellformed_checksummed && ip.dst == 10.1.2.3;
assert crash_free;
assert instructions <= 4000;
assert reachable(output 0) when to_net10;
assert never(drop) when to_net10;
)";

TEST(Check, RouterSpecProvesAllFourAssertions) {
  const SpecFile spec = parse_spec(kRouterSpec);
  const CheckReport rep = check_spec(spec);
  ASSERT_EQ(rep.outcomes.size(), 4u);
  for (const AssertionOutcome& o : rep.outcomes) {
    EXPECT_TRUE(o.passed) << o.text << ": " << o.detail;
    EXPECT_EQ(o.verdict, verify::Verdict::Proven) << o.text;
  }
  EXPECT_TRUE(rep.ok);
  EXPECT_GT(rep.outcomes[1].max_instructions, 0u);
  EXPECT_LE(rep.outcomes[1].max_instructions, 4000u);
}

TEST(Check, VerdictsAreIdenticalAcrossJobCounts) {
  const SpecFile spec = parse_spec(kRouterSpec);
  CheckOptions j1, j8;
  j1.jobs = 1;
  j8.jobs = 8;
  const CheckReport a = check_spec(spec, j1);
  const CheckReport b = check_spec(spec, j8);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].passed, b.outcomes[i].passed) << i;
    EXPECT_EQ(a.outcomes[i].verdict, b.outcomes[i].verdict) << i;
    EXPECT_EQ(a.outcomes[i].max_instructions,
              b.outcomes[i].max_instructions)
        << i;
    EXPECT_EQ(a.outcomes[i].counterexamples.size(),
              b.outcomes[i].counterexamples.size())
        << i;
  }
}

TEST(Check, FailingSpecYieldsAReplayableCounterexample) {
  // 8.8.8.8 has no route: the never(drop) assertion is violated and the
  // counterexample must replay to a concrete drop.
  const SpecFile spec = parse_spec(R"(
pipeline "Classifier -> EthDecap -> CheckIPHeader
          -> IPLookup(10.0.0.0/8 0, 192.168.0.0/16 1, 172.16.0.0/12 0)
          -> DecIPTTL -> IPOptions -> EthEncap";
set packet_len = 64;
assert never(drop) when wellformed_checksummed && ip.dst == 8.8.8.8;
)");
  const CheckReport rep = check_spec(spec);
  ASSERT_EQ(rep.outcomes.size(), 1u);
  const AssertionOutcome& o = rep.outcomes[0];
  EXPECT_FALSE(o.passed);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(o.verdict, verify::Verdict::Violated);
  ASSERT_FALSE(o.counterexamples.empty());
  ASSERT_FALSE(o.replays.empty());
  EXPECT_TRUE(o.replays_confirm) << o.replays[0];
  EXPECT_NE(o.replays[0].find("dropped"), std::string::npos)
      << o.replays[0];
  // And independently: the packet really is dropped by a fresh pipeline.
  pipeline::Pipeline pl = elements::parse_pipeline(spec.pipeline_config);
  net::Packet p = o.counterexamples[0].packet;
  EXPECT_EQ(pl.process(p).action, pipeline::FinalAction::Dropped);
}

TEST(Check, ExceededInstructionBoundFailsWithAWitness) {
  const SpecFile spec = parse_spec(
      "pipeline \"CheckIPHeader(nochecksum) -> DecIPTTL\";\n"
      "set packet_len = 48;\nset ip_offset = 0;\n"
      "assert instructions <= 3;\n");
  const CheckReport rep = check_spec(spec);
  ASSERT_EQ(rep.outcomes.size(), 1u);
  const AssertionOutcome& o = rep.outcomes[0];
  EXPECT_FALSE(o.passed);
  EXPECT_GT(o.max_instructions, 3u);
  ASSERT_FALSE(o.counterexamples.empty());
  EXPECT_TRUE(o.replays_confirm) << (o.replays.empty() ? "" : o.replays[0]);
}

TEST(Check, PredicatedCrashFreedomUsesTrapOnlyTerminals) {
  // UnsafeStrip(14) crashes on runts; packets proven long enough by the
  // predicate cannot trigger it, while the unpredicated assert must fail.
  const SpecFile failing = parse_spec(
      "pipeline \"UnsafeStrip(14)\";\nset packet_len = 8;\n"
      "assert crash_free;\n");
  const CheckReport bad = check_spec(failing);
  EXPECT_FALSE(bad.ok);
  ASSERT_FALSE(bad.outcomes[0].counterexamples.empty());
  EXPECT_TRUE(bad.outcomes[0].replays_confirm)
      << bad.outcomes[0].replays[0];

  const SpecFile vacuous = parse_spec(
      "pipeline \"UnsafeStrip(14)\";\nset packet_len = 8;\n"
      "set ip_offset = 0;\n"
      // A contradictory predicate: vacuously proven.
      "assert crash_free when ip.ver == 4 && ip.ver == 5;\n");
  EXPECT_TRUE(check_spec(vacuous).ok);

  // A builtin that could never hold at this packet_len is a type error,
  // not a silently vacuous PASS.
  EXPECT_THROW(parse_spec("pipeline \"UnsafeStrip(14)\";\n"
                          "set packet_len = 8;\nset ip_offset = 0;\n"
                          "assert crash_free when wellformed;\n"),
               SpecError);

  // ...but a NEGATED builtin at that length is constant true, not
  // vacuous-making — "malformed packets may be dropped" specs over short
  // packets stay expressible.
  const SpecFile negated = parse_spec(
      "pipeline \"Null\";\nset packet_len = 16;\n"
      "assert never(drop) when !wellformed;\n");
  EXPECT_TRUE(check_spec(negated).ok);
}

TEST(Check, ContradictoryWhenIsFlaggedVacuous) {
  // Discard drops everything, so never(drop) holds only because the
  // predicate is unsatisfiable — the checker must pass but say VACUOUS.
  const SpecFile spec = parse_spec(
      "pipeline \"Discard\";\nset ip_offset = 0;\n"
      "assert never(drop) when ip.ttl > 200 && ip.ttl < 100;\n");
  const CheckReport rep = check_spec(spec);
  ASSERT_EQ(rep.outcomes.size(), 1u);
  EXPECT_TRUE(rep.ok);
  EXPECT_NE(rep.outcomes[0].detail.find("VACUOUS"), std::string::npos)
      << rep.outcomes[0].detail;
}

TEST(Check, ReachableFailsWhenPacketsExitElsewhere) {
  // DecIPTTL routes expired packets out of port 1; requiring ALL matching
  // packets to leave via port 0 while matching ttl == 1 must fail, and the
  // replay must show the wrong-port delivery.
  const SpecFile spec = parse_spec(
      "pipeline \"DecIPTTL\";\nset packet_len = 48;\nset ip_offset = 0;\n"
      "assert reachable(output 0) when ip.ver == 4 && ip.ihl == 5 && "
      "ip.ttl == 1 && ip.len == 20;\n");
  const CheckReport rep = check_spec(spec);
  ASSERT_EQ(rep.outcomes.size(), 1u);
  EXPECT_FALSE(rep.outcomes[0].passed);
  ASSERT_FALSE(rep.outcomes[0].replays.empty());
  EXPECT_TRUE(rep.outcomes[0].replays_confirm)
      << rep.outcomes[0].replays[0];
}

// --- JSON report ----------------------------------------------------------------

TEST(ReportJson, StatsKeysKeepTheirNamesAndOrder) {
  // Serve clients and bench/e2e read these 28 keys by name, in this order.
  // Each counter is set through its own field with a distinct value, so a
  // key bound to the wrong field fails here too.
  const verify::VerifyStats s{
      .elements_summarized = 1,
      .summary_cache_hits = 2,
      .segments_total = 3,
      .suspects_found = 4,
      .suspects_eliminated = 5,
      .composed_paths_checked = 6,
      .solver_queries = 7,
      .instructions_interpreted = 8,
      .forks = 9,
      .refinements_attempted = 10,
      .refinements_certified = 11,
      .refinements_eliminated = 12,
      .sat_conflicts = 13,
      .sat_decisions = 14,
      .blast_nodes = 15,
      .solver_cache_hits = 16,
      .contexts_opened = 17,
      .incremental_queries = 18,
      .assumption_reuses = 19,
      .learnt_retained = 20,
      .sat_solves = 21,
      .exhaustion_decided = 22,
      .cex_cache_hits = 23,
      .core_discharges = 24,
      .learnt_gc_runs = 25,
      .learnt_gc_removed = 26,
      .decision_cache_hits = 27,
      .refine_cache_hits = 28,
  };
  EXPECT_EQ(stats_json(s),
            "{"
            "\"elements_summarized\":1,\"summary_cache_hits\":2,"
            "\"segments_total\":3,\"suspects_found\":4,"
            "\"suspects_eliminated\":5,\"composed_paths_checked\":6,"
            "\"solver_queries\":7,\"instructions_interpreted\":8,"
            "\"forks\":9,\"refinements_attempted\":10,"
            "\"refinements_certified\":11,\"refinements_eliminated\":12,"
            "\"sat_conflicts\":13,\"sat_decisions\":14,"
            "\"blast_nodes\":15,\"solver_cache_hits\":16,"
            "\"contexts_opened\":17,\"incremental_queries\":18,"
            "\"assumption_reuses\":19,\"learnt_retained\":20,"
            "\"sat_solves\":21,\"exhaustion_decided\":22,"
            "\"cex_cache_hits\":23,\"core_discharges\":24,"
            "\"learnt_gc_runs\":25,\"learnt_gc_removed\":26,"
            "\"decision_cache_hits\":27,\"refine_cache_hits\":28"
            "}");
  // The merge sums every counter.
  verify::VerifyStats twice = s;
  twice += s;
  for (const auto& [name, field] : verify::kVerifyStatFields) {
    EXPECT_EQ(twice.*field, 2 * (s.*field)) << name;
  }
}

}  // namespace
}  // namespace vsd::spec
