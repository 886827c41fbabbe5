// The threaded-code backend's equivalence contract (backend/compiled.hpp):
// for any program, packet, and KvState, CompiledProgram::run must be
// indistinguishable from interp::run — same ExecResult (action, port, trap
// kind, instruction count), same packet bytes and annotations afterwards,
// same private KV state. These tests pin that contract over the whole
// element registry and adversarial packet shapes, pin the step-budget
// boundary (LoopBound at the same instr_count under the same max_steps,
// including inside RunLoop aux functions), and pin that verification
// replay stays byte-deterministic across job counts and engines.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "backend/compiled.hpp"
#include "elements/registry.hpp"
#include "interp/interp.hpp"
#include "net/packet.hpp"
#include "net/workload.hpp"
#include "pipeline/pipeline.hpp"
#include "verify/decomposed.hpp"
#include "verify/report.hpp"

namespace vsd {
namespace {

using backend::CompiledProgram;
using interp::ExecLimits;
using interp::ExecResult;
using interp::KvState;

// Restores the process-global engine switch even when an assertion bails
// out of the test body early.
struct GlobalEngineGuard {
  bool saved = backend::compiled_enabled();
  ~GlobalEngineGuard() { backend::set_compiled_enabled(saved); }
};

std::vector<uint8_t> packet_bytes(const net::Packet& p) {
  return {p.bytes().begin(), p.bytes().end()};
}

// One adversarial corpus reused for every element: all five workload
// classes (well-formed, options-bearing, malformed, random soup, runts),
// each both Ethernet-framed (as generated) and with the frame pulled so
// raw-IP elements like CheckIPHeader see a plausible header at offset 0,
// plus a few packets with random annotation slots to exercise the
// MetaLoad/MetaStore paths (Paint, Classifier, flow-hash elements).
std::vector<net::Packet> differential_corpus() {
  std::vector<net::Packet> corpus;
  uint64_t seed = 7;
  for (const net::TrafficClass tc :
       {net::TrafficClass::WellFormed, net::TrafficClass::WithIpOptions,
        net::TrafficClass::MalformedHeader, net::TrafficClass::RandomBytes,
        net::TrafficClass::TinyPackets}) {
    net::WorkloadConfig cfg;
    cfg.traffic = tc;
    cfg.count = 24;
    cfg.seed = seed++;
    for (net::Packet& p : net::generate_workload(cfg)) {
      if (p.size() >= 14) {
        net::Packet pulled = p;
        pulled.pull_front(14);
        corpus.push_back(std::move(pulled));
      }
      corpus.push_back(std::move(p));
    }
  }
  net::Rng rng(0x5eed);
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (i % 5 == 0) {
      corpus[i].set_meta(rng.next_below(net::kMetaSlots),
                         static_cast<uint32_t>(rng.next()));
    }
  }
  return corpus;
}

void expect_identical(const std::string& tag, const ExecResult& rc,
                      const ExecResult& ri, const net::Packet& pc,
                      const net::Packet& pi, const KvState& kc,
                      const KvState& ki) {
  ASSERT_EQ(static_cast<int>(rc.action), static_cast<int>(ri.action)) << tag;
  ASSERT_EQ(rc.port, ri.port) << tag;
  ASSERT_EQ(static_cast<int>(rc.trap), static_cast<int>(ri.trap)) << tag;
  ASSERT_EQ(rc.instr_count, ri.instr_count) << tag;
  ASSERT_EQ(packet_bytes(pc), packet_bytes(pi)) << tag;
  ASSERT_EQ(pc.all_meta(), pi.all_meta()) << tag;
  ASSERT_EQ(kc.num_tables(), ki.num_tables()) << tag;
  for (ir::TableId t = 0; t < kc.num_tables(); ++t) {
    ASSERT_EQ(kc.entries(t), ki.entries(t)) << tag << " table " << t;
  }
}

// Every builtin element must lower to threaded code — none is supposed to
// hit the arity fallback, and a silent fallback would turn the tab12
// speedup claim into a no-op.
TEST(BackendLowering, AllRegistryElementsLower) {
  for (const std::string& name : elements::registered_elements()) {
    const ir::Program prog = elements::make_element(name, "");
    const CompiledProgram cp(prog);
    EXPECT_TRUE(cp.lowered()) << name;
  }
}

// The core randomized differential: every registry element (default args)
// driven over the shaped/corrupted/runt corpus on both engines, with the
// KvState carried across packets so stateful elements (NetFlow, NAT,
// Counter, RateLimiter) diverge immediately if writes differ.
TEST(BackendDifferential, EnginesAgreeOnAllRegistryElements) {
  const std::vector<net::Packet> corpus = differential_corpus();
  ASSERT_GE(corpus.size(), 200u);
  for (const std::string& name : elements::registered_elements()) {
    const ir::Program prog = elements::make_element(name, "");
    const CompiledProgram cp(prog);
    ASSERT_TRUE(cp.lowered()) << name;
    KvState kv_c(prog.kv_tables.size());
    KvState kv_i(prog.kv_tables.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      net::Packet pc = corpus[i];
      net::Packet pi = corpus[i];
      const ExecResult rc = cp.run(pc, kv_c);
      const ExecResult ri = interp::run(prog, pi, kv_i);
      expect_identical(name + " pkt " + std::to_string(i) + " [" +
                           corpus[i].hex(24) + "]",
                       rc, ri, pc, pi, kv_c, kv_i);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Step-budget boundary sweep over loop-bearing elements. SetIPChecksum and
// CheckIPHeader run their checksum loops inside a RunLoop aux function, so
// this also pins the aux-function accounting: for every budget below the
// full run both engines must trap LoopBound with instr_count == budget and
// leave the partially mutated packet bit-identical.
TEST(BackendDifferential, StepBudgetBoundaryIdentical) {
  net::Packet options_pkt =
      net::make_ip_options_packet({0x01, 0x01, 0x07, 0x07, 0x04, 0x00, 0x00});
  // The generator Ethernet-frames the packet; these elements read the IP
  // header at offset 0.
  options_pkt.pull_front(14);
  for (const char* name : {"SetIPChecksum", "CheckIPHeader", "IPOptions"}) {
    const ir::Program prog = elements::make_element(name, "");
    const CompiledProgram cp(prog);
    ASSERT_TRUE(cp.lowered()) << name;
    net::Packet full = options_pkt;
    KvState kv_full(prog.kv_tables.size());
    const ExecResult r_full = interp::run(prog, full, kv_full);
    ASSERT_FALSE(r_full.trapped()) << name;
    ASSERT_GT(r_full.instr_count, 20u) << name;  // the loop actually ran
    for (uint64_t budget = 1; budget <= r_full.instr_count; ++budget) {
      const ExecLimits limits{budget};
      net::Packet pc = options_pkt;
      net::Packet pi = options_pkt;
      KvState kv_c(prog.kv_tables.size());
      KvState kv_i(prog.kv_tables.size());
      const ExecResult rc = cp.run(pc, kv_c, limits);
      const ExecResult ri = interp::run(prog, pi, kv_i, limits);
      const std::string tag =
          std::string(name) + " budget " + std::to_string(budget);
      expect_identical(tag, rc, ri, pc, pi, kv_c, kv_i);
      if (::testing::Test::HasFatalFailure()) return;
      if (budget < r_full.instr_count) {
        ASSERT_TRUE(rc.trapped()) << tag;
        ASSERT_EQ(rc.trap, ir::TrapKind::LoopBound) << tag;
        ASSERT_EQ(rc.instr_count, budget) << tag;
      } else {
        ASSERT_FALSE(rc.trapped()) << tag;
      }
    }
  }
}

// The kill switch and the per-element override: Auto follows the global
// flag, pinned engines ignore it.
TEST(BackendKillSwitch, GlobalFlagAndPerElementOverride) {
  GlobalEngineGuard guard;
  ASSERT_TRUE(backend::compiled_enabled());  // on by default
  pipeline::Pipeline pl = elements::parse_pipeline("DecIPTTL");
  pipeline::Element& el = pl.element(0);
  EXPECT_EQ(el.engine(), pipeline::Engine::Auto);
  EXPECT_TRUE(el.use_compiled());
  backend::set_compiled_enabled(false);
  EXPECT_FALSE(backend::compiled_enabled());
  EXPECT_FALSE(el.use_compiled());
  el.set_engine(pipeline::Engine::Compiled);
  EXPECT_TRUE(el.use_compiled());
  backend::set_compiled_enabled(true);
  el.set_engine(pipeline::Engine::Interp);
  EXPECT_FALSE(el.use_compiled());
  el.set_engine(pipeline::Engine::Auto);
  EXPECT_TRUE(el.use_compiled());
}

verify::CrashFreedomReport crash_report(const std::string& config,
                                        size_t jobs, size_t len) {
  pipeline::Pipeline pl = elements::parse_pipeline(config);
  verify::DecomposedConfig cfg;
  cfg.packet_len = len;
  cfg.jobs = jobs;
  verify::DecomposedVerifier v(cfg);
  return v.verify_crash_freedom(pl);
}

void expect_reports_identical(const std::string& tag,
                              const verify::CrashFreedomReport& a,
                              const verify::CrashFreedomReport& b) {
  ASSERT_EQ(static_cast<int>(a.verdict), static_cast<int>(b.verdict)) << tag;
  ASSERT_EQ(a.counterexamples.size(), b.counterexamples.size()) << tag;
  for (size_t i = 0; i < a.counterexamples.size(); ++i) {
    const verify::Counterexample& ca = a.counterexamples[i];
    const verify::Counterexample& cb = b.counterexamples[i];
    ASSERT_EQ(ca.element_path, cb.element_path) << tag << " ce " << i;
    ASSERT_EQ(ca.trap, cb.trap) << tag << " ce " << i;
    ASSERT_EQ(ca.requires_sequence, cb.requires_sequence)
        << tag << " ce " << i;
    ASSERT_EQ(packet_bytes(ca.packet), packet_bytes(cb.packet))
        << tag << " ce " << i;
  }
}

// Counterexamples found with the compiled engine on must be byte-identical
// at jobs 1 and jobs 8, and byte-identical to an interpreter-only run —
// replay through the compiled engine is allowed to move the clock, never
// the witness. Each witness is then replayed on BOTH engines and the
// mutated packets compared, closing the loop from verifier to executor.
TEST(BackendReplay, CounterexampleBytesIdenticalAcrossJobsAndEngines) {
  GlobalEngineGuard guard;
  struct Case {
    const char* config;
    size_t len;
  };
  const Case cases[] = {
      {"ToyE2", 8},
      {"UnsafeStrip(14) -> CheckIPHeader -> Discard", 8},
      {"NetFlow(strict)", 40},
  };
  for (const Case& c : cases) {
    backend::set_compiled_enabled(true);
    const verify::CrashFreedomReport r1 = crash_report(c.config, 1, c.len);
    const verify::CrashFreedomReport r8 = crash_report(c.config, 8, c.len);
    backend::set_compiled_enabled(false);
    const verify::CrashFreedomReport ri = crash_report(c.config, 1, c.len);
    backend::set_compiled_enabled(true);
    ASSERT_EQ(r1.verdict, verify::Verdict::Violated) << c.config;
    ASSERT_FALSE(r1.counterexamples.empty()) << c.config;
    expect_reports_identical(std::string(c.config) + " jobs 1 vs 8", r1, r8);
    expect_reports_identical(std::string(c.config) + " compiled vs interp",
                             r1, ri);
    if (::testing::Test::HasFatalFailure()) return;
    for (const verify::Counterexample& ce : r1.counterexamples) {
      if (ce.requires_sequence) continue;
      pipeline::Pipeline plc = elements::parse_pipeline(c.config);
      pipeline::Pipeline pli = elements::parse_pipeline(c.config);
      plc.set_engine(pipeline::Engine::Compiled);
      pli.set_engine(pipeline::Engine::Interp);
      net::Packet pc = ce.packet;
      net::Packet pi = ce.packet;
      const auto resc = plc.process(pc);
      const auto resi = pli.process(pi);
      EXPECT_EQ(static_cast<int>(resc.action), static_cast<int>(resi.action))
          << c.config;
      EXPECT_EQ(packet_bytes(pc), packet_bytes(pi)) << c.config;
      EXPECT_EQ(resc.action, pipeline::FinalAction::Trapped) << c.config;
    }
  }
}

}  // namespace
}  // namespace vsd
