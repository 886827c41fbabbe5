// Tests for the symbolic executor: segment enumeration, path constraints,
// trap discovery, loop handling (both modes), KV modeling, table modeling.
#include <gtest/gtest.h>

#include "bv/analysis.hpp"
#include "elements/ip.hpp"
#include "elements/l2.hpp"
#include "elements/stateful.hpp"
#include "elements/toy.hpp"
#include "ir/builder.hpp"
#include "solver/solver.hpp"
#include "symbex/executor.hpp"
#include "symbex/summary.hpp"

namespace vsd::symbex {
namespace {

using bv::ExprRef;

size_t count_action(const std::vector<Segment>& segs, SegAction a) {
  size_t n = 0;
  for (const Segment& s : segs) {
    if (s.action == a) ++n;
  }
  return n;
}

const Segment* find_trap(const std::vector<Segment>& segs, ir::TrapKind k) {
  for (const Segment& s : segs) {
    if (s.action == SegAction::Trap && s.trap == k) return &s;
  }
  return nullptr;
}

TEST(Symbex, ToyFig1HasThreeFeasiblePaths) {
  // The paper's Fig. 1: paths p1 (crash, in<0), p2 (0<=in<10), p3 (in>=10).
  const ir::Program prog = elements::make_toy_fig1();
  Executor exec;
  const SymPacket entry = SymPacket::symbolic(8, "in");
  const ExploreResult r = exec.explore(prog, entry);
  EXPECT_FALSE(r.truncated);
  ASSERT_EQ(r.segments.size(), 3u);
  EXPECT_EQ(count_action(r.segments, SegAction::Trap), 1u);
  EXPECT_EQ(count_action(r.segments, SegAction::Emit), 2u);
}

TEST(Symbex, ToyFig1CrashConstraintIsNegativeInput) {
  const ir::Program prog = elements::make_toy_fig1();
  Executor exec;
  const SymPacket entry = SymPacket::symbolic(8, "in");
  const ExploreResult r = exec.explore(prog, entry);
  const Segment* crash = find_trap(r.segments, ir::TrapKind::AssertFail);
  ASSERT_NE(crash, nullptr);
  solver::Solver s;
  const solver::CheckResult cr = s.check(crash->constraint);
  ASSERT_EQ(cr.result, solver::Result::Sat);
  // Rebuild the 32-bit input from the model bytes and check it is negative.
  uint64_t v = 0;
  for (int i = 0; i < 4; ++i) {
    const ExprRef b = entry.byte(i);
    v = (v << 8) | (cr.model.count(b->var_id()) ? cr.model.at(b->var_id()) : 0);
  }
  EXPECT_TRUE((v >> 31) & 1) << "counterexample must have in < 0, got " << v;
}

TEST(Symbex, ToyFig1InstructionCountsBounded) {
  const ir::Program prog = elements::make_toy_fig1();
  Executor exec;
  const ExploreResult r = exec.explore(prog, SymPacket::symbolic(8, "in"));
  // The Fig.1 property: never more than ~10 instructions on any path.
  for (const Segment& s : r.segments) {
    EXPECT_FALSE(s.count_is_bound);
    EXPECT_LE(s.instr_count, 10u);
    EXPECT_GT(s.instr_count, 0u);
  }
}

TEST(Symbex, ToyE1NeverTraps) {
  const ir::Program prog = elements::make_toy_e1();
  Executor exec;
  const ExploreResult r = exec.explore(prog, SymPacket::symbolic(8, "in"));
  EXPECT_EQ(count_action(r.segments, SegAction::Trap), 0u);
}

TEST(Symbex, SegmentConstraintsArePartition) {
  // Emit-segment constraints of a deterministic element are mutually
  // exclusive and (with the trap segment) exhaustive: checked by solver.
  const ir::Program prog = elements::make_toy_fig1();
  Executor exec;
  const ExploreResult r = exec.explore(prog, SymPacket::symbolic(8, "in"));
  solver::Solver s;
  ExprRef any = bv::mk_bool(false);
  for (size_t i = 0; i < r.segments.size(); ++i) {
    any = bv::mk_lor(any, r.segments[i].constraint);
    for (size_t j = i + 1; j < r.segments.size(); ++j) {
      EXPECT_TRUE(s.is_unsat(bv::mk_land(r.segments[i].constraint,
                                         r.segments[j].constraint)))
          << "segments " << i << "," << j << " overlap";
    }
  }
  EXPECT_TRUE(s.is_unsat(bv::mk_lnot(any))) << "segments do not cover";
}

TEST(Symbex, PreconditionsPruneSegments) {
  const ir::Program prog = elements::make_toy_fig1();
  Executor exec;
  const SymPacket entry = SymPacket::symbolic(8, "in");
  // Precondition byte0 & 0x80 == 0 excludes all negative inputs: the
  // assert-fail segment must not appear (folding alone may keep it, so we
  // check solver-feasibility of any remaining trap).
  std::vector<ExprRef> pre{bv::mk_eq(
      bv::mk_and(entry.byte(0), bv::mk_const(0x80, 8)), bv::mk_const(0, 8))};
  const ExploreResult r = exec.explore(prog, entry, pre);
  solver::Solver s;
  for (const Segment& g : r.segments) {
    if (g.action == SegAction::Trap) {
      EXPECT_TRUE(s.is_unsat(g.constraint));
    }
  }
}

TEST(Symbex, DivByZeroForkDiscovered) {
  ir::ProgramBuilder pb("div", 1);
  ir::FunctionBuilder& f = pb.main();
  const ir::Reg x = f.pkt_load8(0);
  f.udiv(f.imm8(100), x);
  f.emit(0);
  const ir::Program prog = pb.finish();
  Executor exec;
  const SymPacket entry = SymPacket::symbolic(4, "p");
  const ExploreResult r = exec.explore(prog, entry);
  const Segment* dz = find_trap(r.segments, ir::TrapKind::DivByZero);
  ASSERT_NE(dz, nullptr);
  solver::Solver s;
  const solver::CheckResult cr = s.check(dz->constraint);
  ASSERT_EQ(cr.result, solver::Result::Sat);
  EXPECT_EQ(cr.model.at(entry.byte(0)->var_id()), 0u);
}

TEST(Symbex, OobReadDiscoveredOnlyWhenFeasible) {
  ir::ProgramBuilder pb("oob", 1);
  ir::FunctionBuilder& f = pb.main();
  f.pkt_load32(6);  // needs 10 bytes
  f.emit(0);
  const ir::Program prog = pb.finish();
  Executor exec;
  {
    const ExploreResult r = exec.explore(prog, SymPacket::symbolic(8, "p"));
    EXPECT_NE(find_trap(r.segments, ir::TrapKind::OobPacketRead), nullptr);
  }
  {
    const ExploreResult r = exec.explore(prog, SymPacket::symbolic(16, "p"));
    EXPECT_EQ(find_trap(r.segments, ir::TrapKind::OobPacketRead), nullptr);
  }
}

TEST(Symbex, SymbolicOffsetLoadBuildsMux) {
  // value = packet[packet[0] & 3]: a symbolic offset load within bounds.
  ir::ProgramBuilder pb("muxload", 1);
  ir::FunctionBuilder& f = pb.main();
  const ir::Reg idx8 = f.band(f.pkt_load8(0), f.imm8(3));
  const ir::Reg idx = f.zext(idx8, 32);
  const ir::Reg v = f.pkt_load(idx, 0, 1);
  f.pkt_store8(4, v);
  f.emit(0);
  const ir::Program prog = pb.finish();
  Executor exec;
  const SymPacket entry = SymPacket::symbolic(8, "p");
  const ExploreResult r = exec.explore(prog, entry);
  ASSERT_EQ(count_action(r.segments, SegAction::Emit), 1u);
  // Evaluate the exit packet under a concrete assignment and check the mux.
  const Segment* emit = nullptr;
  for (const Segment& s : r.segments) {
    if (s.action == SegAction::Emit) emit = &s;
  }
  ASSERT_NE(emit, nullptr);
  const Segment& g = *emit;
  bv::Assignment a;
  a[entry.byte(0)->var_id()] = 0x02;
  a[entry.byte(2)->var_id()] = 0x99;
  EXPECT_EQ(bv::evaluate(g.exit_packet.byte(4), a), 0x99u);
}

TEST(Symbex, KvReadsAreFreshAndRecorded) {
  const ir::Program prog = elements::make_netflow();
  Executor exec;
  const ExploreResult r = exec.explore(prog, SymPacket::symbolic(40, "p"));
  bool found_emit_with_kv = false;
  for (const Segment& g : r.segments) {
    if (g.action == SegAction::Emit) {
      EXPECT_EQ(g.kv_reads.size(), 1u);
      EXPECT_EQ(g.kv_writes.size(), 1u);
      found_emit_with_kv = true;
    }
  }
  EXPECT_TRUE(found_emit_with_kv);
}

TEST(Symbex, KvReadAfterWriteReturnsWrittenValue) {
  ir::ProgramBuilder pb("raw", 1);
  const ir::TableId t = pb.add_kv_table("m", 8, 16);
  ir::FunctionBuilder& f = pb.main();
  const ir::Reg k = f.imm8(5);
  f.kv_write(t, k, f.imm16(0x1234));
  const ir::Reg v = f.kv_read(t, k);
  f.pkt_store16(0, v);
  f.emit(0);
  const ir::Program prog = pb.finish();
  Executor exec;
  const ExploreResult r = exec.explore(prog, SymPacket::symbolic(4, "p"));
  ASSERT_EQ(r.segments.size(), 1u);
  // The stored bytes must be the constant, not a fresh symbol.
  EXPECT_TRUE(r.segments[0].exit_packet.byte(0)->is_const_value(0x12));
  EXPECT_TRUE(r.segments[0].exit_packet.byte(1)->is_const_value(0x34));
}

TEST(Symbex, StaticTableSmallIsPrecise) {
  ir::ProgramBuilder pb("tbl", 1);
  const ir::TableId t = pb.add_static_table("t", 32, {5, 5, 9, 9});
  ir::FunctionBuilder& f = pb.main();
  const ir::Reg idx = f.zext(f.band(f.pkt_load8(0), f.imm8(3)), 32);
  const ir::Reg v = f.static_load(t, idx);
  const ir::Reg bad = f.eq(v, f.imm32(7));
  f.assert_true(f.lnot(bad));  // can never read 7
  f.emit(0);
  const ir::Program prog = pb.finish();
  Executor exec;
  const ExploreResult r = exec.explore(prog, SymPacket::symbolic(4, "p"));
  solver::Solver s;
  for (const Segment& g : r.segments) {
    if (g.action == SegAction::Trap) {
      EXPECT_TRUE(s.is_unsat(g.constraint))
          << "precise table model should refute reading 7";
    }
  }
}

TEST(Symbex, StaticTableOobGuarded) {
  ir::ProgramBuilder pb("tbl", 1);
  const ir::TableId t = pb.add_static_table("t", 32, {1, 2, 3});
  ir::FunctionBuilder& f = pb.main();
  const ir::Reg idx = f.zext(f.pkt_load8(0), 32);  // 0..255, table has 3
  f.static_load(t, idx);
  f.emit(0);
  const ir::Program prog = pb.finish();
  Executor exec;
  const ExploreResult r = exec.explore(prog, SymPacket::symbolic(4, "p"));
  const Segment* oob = find_trap(r.segments, ir::TrapKind::OobTable);
  ASSERT_NE(oob, nullptr);
  solver::Solver s;
  EXPECT_EQ(s.check(oob->constraint).result, solver::Result::Sat);
}

// --- loops -------------------------------------------------------------------

ir::Program counting_loop_program(uint64_t bound, uint64_t max_trips) {
  // i from 0 while i < n (n = packet[0] & 0x0f, so n <= 15 <= bound proof).
  ir::ProgramBuilder pb("loop", 1);
  ir::FunctionBuilder& body = pb.new_loop_body("b", {32, 32});
  {
    const auto& prm = pb.params(body.id());
    const ir::Reg i = prm[0], n = prm[1];
    const ir::Reg more = body.ult(i, n);
    auto [go, stop] = body.br(more);
    body.set_block(stop);
    body.ret({body.imm1(false), i, n});
    body.set_block(go);
    body.ret({body.imm1(true), body.add(i, body.imm32(1)), n});
  }
  ir::FunctionBuilder& f = pb.main();
  const ir::Reg n =
      f.zext(f.band(f.pkt_load8(0), f.imm8(bound - 1)), 32);
  ir::Reg i0 = f.imm32(0);
  f.run_loop(body.id(), max_trips, {i0, n});
  f.emit(0);
  return pb.finish();
}

TEST(SymbexLoop, UnrollEnumeratesIterationCounts) {
  const ir::Program prog = counting_loop_program(16, 32);
  ExecOptions eo;
  eo.loop_mode = LoopMode::Unroll;
  Executor exec(eo);
  const ExploreResult r = exec.explore(prog, SymPacket::symbolic(4, "p"));
  EXPECT_FALSE(r.truncated);
  // One emit segment per feasible n in 0..15.
  EXPECT_EQ(count_action(r.segments, SegAction::Emit), 16u);
  EXPECT_EQ(find_trap(r.segments, ir::TrapKind::LoopBound), nullptr);
  EXPECT_GE(r.stats.loops_unrolled, 1u);
}

TEST(SymbexLoop, UnrollDetectsInsufficientBound) {
  const ir::Program prog = counting_loop_program(16, 8);  // bound too small
  ExecOptions eo;
  eo.loop_mode = LoopMode::Unroll;
  Executor exec(eo);
  const ExploreResult r = exec.explore(prog, SymPacket::symbolic(4, "p"));
  const Segment* lb = find_trap(r.segments, ir::TrapKind::LoopBound);
  ASSERT_NE(lb, nullptr);
  solver::Solver s;
  EXPECT_EQ(s.check(lb->constraint).result, solver::Result::Sat);
}

TEST(SymbexLoop, SummarizeProvesTerminationViaVariant) {
  const ir::Program prog = counting_loop_program(16, 32);
  solver::Solver solver;
  ExecOptions eo;
  eo.loop_mode = LoopMode::Summarize;
  eo.solver = &solver;
  Executor exec(eo);
  const ExploreResult r = exec.explore(prog, SymPacket::symbolic(4, "p"));
  EXPECT_EQ(find_trap(r.segments, ir::TrapKind::LoopBound), nullptr)
      << "variant check should prove termination within the trip bound";
  EXPECT_GE(r.stats.loops_summarized, 1u);
  // Exactly one post-loop continuation (the mini-element is composed once).
  EXPECT_EQ(count_action(r.segments, SegAction::Emit), 1u);
  EXPECT_TRUE(r.segments.back().count_is_bound ||
              r.segments.front().count_is_bound);
}

TEST(SymbexLoop, SummarizeExploresBodyOnce) {
  const ir::Program prog = counting_loop_program(16, 32);
  solver::Solver solver;
  ExecOptions unroll_opts;
  unroll_opts.loop_mode = LoopMode::Unroll;
  Executor unroll_exec(unroll_opts);
  ExecOptions sum_opts;
  sum_opts.loop_mode = LoopMode::Summarize;
  sum_opts.solver = &solver;
  Executor sum_exec(sum_opts);
  const ExploreResult ru =
      unroll_exec.explore(prog, SymPacket::symbolic(4, "p"));
  const ExploreResult rs = sum_exec.explore(prog, SymPacket::symbolic(4, "p"));
  EXPECT_LT(rs.stats.instructions_interpreted,
            ru.stats.instructions_interpreted)
      << "summarization must interpret far fewer instructions";
}

TEST(SymbexLoop, SummarizeFlagsTrapInBody) {
  // Body asserts i != 7: reachable for n > 7, must be tagged suspect.
  ir::ProgramBuilder pb("looptrap", 1);
  ir::FunctionBuilder& body = pb.new_loop_body("b", {32, 32});
  {
    const auto& prm = pb.params(body.id());
    const ir::Reg i = prm[0], n = prm[1];
    body.assert_true(body.ne(i, body.imm32(7)));
    const ir::Reg more = body.ult(i, n);
    auto [go, stop] = body.br(more);
    body.set_block(stop);
    body.ret({body.imm1(false), i, n});
    body.set_block(go);
    body.ret({body.imm1(true), body.add(i, body.imm32(1)), n});
  }
  ir::FunctionBuilder& f = pb.main();
  const ir::Reg n = f.zext(f.band(f.pkt_load8(0), f.imm8(15)), 32);
  ir::Reg i0 = f.imm32(0);
  f.run_loop(body.id(), 32, {i0, n});
  f.emit(0);
  const ir::Program prog = pb.finish();

  solver::Solver solver;
  ExecOptions eo;
  eo.loop_mode = LoopMode::Summarize;
  eo.solver = &solver;
  Executor exec(eo);
  const ExploreResult r = exec.explore(prog, SymPacket::symbolic(4, "p"));
  EXPECT_NE(find_trap(r.segments, ir::TrapKind::AssertFail), nullptr);
}

TEST(SymbexLoop, IpOptionsSummarizeIsTrapFreeAndTerminating) {
  const ir::Program prog = elements::make_ip_options();
  solver::Solver solver;
  ExecOptions eo;
  eo.loop_mode = LoopMode::Summarize;
  eo.solver = &solver;
  Executor exec(eo);
  const ExploreResult r = exec.explore(prog, SymPacket::symbolic(60, "p"));
  EXPECT_FALSE(r.truncated);
  for (const Segment& g : r.segments) {
    EXPECT_NE(g.action, SegAction::Trap)
        << "IPOptions summarize-mode suspect: " << g.describe();
  }
}

// --- summaries -----------------------------------------------------------------

TEST(Summary, CacheHitsOnSameProgram) {
  SharedSummaryCache cache;
  Executor exec;
  const ir::Program a = elements::make_toy_e1();
  const ir::Program b = elements::make_toy_e1();  // same structure
  bool miss = false;
  const ElementSummary& sa = cache.get(a, 8, exec, &miss);
  EXPECT_TRUE(miss);
  // Keyed by structural hash: the separately built twin shares the entry.
  const ElementSummary& sb = cache.get(b, 8, exec, &miss);
  EXPECT_FALSE(miss);
  EXPECT_EQ(&sa, &sb);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  // Different packet length is a different verification task.
  (void)cache.get(a, 16, exec);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(Summary, RecordsElementNameAndStats) {
  Executor exec;
  const ElementSummary s =
      summarize_element(elements::make_toy_fig1(), 8, exec);
  EXPECT_EQ(s.element_name, "ToyFig1");
  EXPECT_EQ(s.segments.size(), 3u);
  EXPECT_GT(s.stats.instructions_interpreted, 0u);
  EXPECT_EQ(s.count_action(SegAction::Trap), 1u);
}

}  // namespace
}  // namespace vsd::symbex
